"""Fuzz gate for the input layer: arbitrary bounded JSON values fed to the
parsers and to the CLI.  Only Imm5Error subclasses may leave the parsers,
and the CLI always exits 0, 1 or 2; on 2 it prints one error line of at
most 300 characters and no report.  The fields of each record type are
read as the record reader reads them (``_record_fields``), and they match
the parameters of the type's ``__init__``.
"""

import contextlib
import inspect
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from imm5.cli import _record_fields, main, parse_manifold, parse_seifert_file
from imm5.errors import Imm5Error
from imm5.invariants import RECORD_KINDS, ImmersionDoubleData

INTS = st.integers(-40, 40)
LEAVES = (st.none() | st.booleans() | INTS
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from(["", "0", "1", "-3", " 12 ", "t3", "s3", "rp3", "01"])
          | st.text(max_size=4))
RECORD_TYPES = [cls for _, cls in RECORD_KINDS.values()] + [ImmersionDoubleData]
# Arbitrary values, their keys biased toward the names the readers look for.
NAMES = sorted(
    {name for cls in RECORD_TYPES for name, _, _ in _record_fields(cls)}
    | set(RECORD_KINDS)
    | {"id", "manifold", "double_data", "name", "linking_matrix",
       "spin_boundary_signatures"})
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=3), children,
                      max_size=5),
    max_leaves=12)

# Files shaped like the real formats, so that most values get past the
# first checks: records carry their kind's required fields, some of its
# optional ones and an id; in half of them every field value has the
# field's declared type, in the rest any field may hold any value.  The
# shaped alternatives come first in each union, where the draws lean.
VALUES = LEAVES | st.lists(LEAVES, max_size=3)
TYPED = {
    "int": INTS | INTS.map(str),
    "bool": st.booleans(),
    "tuple[int, int]": st.lists(INTS, min_size=2, max_size=2),
    "tuple[int, ...] | None": st.lists(INTS, max_size=3) | st.none(),
}


def records_of(cls):
    def record(value):
        fields = _record_fields(cls)
        required = {name: value(kind) for name, kind, needed in fields if needed}
        optional = {name: value(kind) for name, kind, needed in fields if not needed}
        return st.fixed_dictionaries(required, optional={"id": VALUES, **optional})
    return (record(lambda kind: TYPED[kind])
            | record(lambda kind: TYPED[kind] | VALUES))


MATRIX = st.lists(st.lists(st.integers(-3, 3) | LEAVES, max_size=2), max_size=2)
MANIFOLD = st.fixed_dictionaries(
    {"linking_matrix": MATRIX},
    optional={"name": LEAVES,
              "spin_boundary_signatures":
                  st.dictionaries(st.sampled_from(["", "0", "1", "01"]), VALUES,
                                  max_size=2) | LEAVES})
CONTENTS = {
    "double_data": records_of(ImmersionDoubleData),
    **{key: st.lists(records_of(cls), min_size=1, max_size=2)
       for key, (_, cls) in RECORD_KINDS.items()}}
RECORD_FILE = st.sets(st.sampled_from(sorted(CONTENTS)), min_size=1, max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries({
        "manifold": st.sampled_from(["t3", "s3", "rp3", "l4"]) | MANIFOLD,
        **{key: CONTENTS[key] for key in keys}}))
FILES = RECORD_FILE | MANIFOLD | JSON_VALUES
FUZZ = settings(max_examples=300, derandomize=True, deadline=None)


def test_record_fields_match_init_parameters():
    """Each record type's fields, read in annotation order with the
    class-body defaults, are its ``__init__`` parameters in order, a
    required field exactly a parameter without a default, and each default
    the class body's."""
    for cls in RECORD_TYPES:
        params = list(inspect.signature(cls).parameters.values())
        fields = _record_fields(cls)
        assert [p.name for p in params] == [name for name, _, _ in fields], cls
        for p, (name, _, required) in zip(params, fields):
            assert (p.default is p.empty) == required, (cls, name)
            if not required:
                assert p.default is vars(cls)[name], (cls, name)


@FUZZ
@given(value=FILES)
def test_parsers_raise_only_imm5_errors(tmp_path_factory, value):
    base_dir = str(tmp_path_factory.getbasetemp())
    for parse in (parse_manifold, lambda v: parse_seifert_file(v, base_dir)):
        with contextlib.suppress(Imm5Error):
            parse(value)


@FUZZ
@given(value=FILES)
def test_cli_exits_0_1_or_2(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    for command in ("analyze", "invariant", "verify", "embeddings"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--json"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            assert len(err.getvalue().rstrip("\n")) <= 300
