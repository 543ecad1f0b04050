"""Exception types shared across the package, and how messages quote values."""

import reprlib


class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than the interpreter converts to str
            return f"<int of {x.bit_length()} bits>"


# Quotes an offending input value in an error message in at most about 200
# characters: nested containers show as [...], long scalars lose their middle.
_QUOTE = _Quote()
_QUOTE.maxlevel = 1
_QUOTE.maxdict = 3
_QUOTE.maxlong = 30


class Imm5Error(Exception):
    """Base class for every error raised by this package."""


class ParseError(Imm5Error):
    """Malformed input file or command-line value."""


class AsymmetricMatrix(ParseError):
    """A linking matrix that is not square and symmetric."""


class ParityError(Imm5Error):
    """Numeric Seifert data whose parity rules out any genuine filling."""


class WuMismatch(Imm5Error):
    """Connected-sum arithmetic attempted across different Wu classes."""


class InvalidSpinStructure(Imm5Error):
    """A vector that fails the characteristic-sublink equation."""


class NoSolution(Imm5Error):
    """A linear system over Z2 with empty solution set."""


class CosetUncovered(Imm5Error):
    """Bounding-signature data missing for some Wu class."""


class ParityViolation(Imm5Error):
    """A base signature whose parity disagrees with alpha."""


class HypothesisViolated(Imm5Error):
    """A criterion invoked outside its stated hypotheses."""


class MissingData(Imm5Error):
    """A validator needs a field the record does not carry."""
