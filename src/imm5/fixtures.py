"""Built-in manifolds and forms used by the CLI, tests and demos."""

from __future__ import annotations

from .intlinalg import IntSymMatrix
from .surgery import SurgeryPresentation

# JSON-shaped manifold records, exactly what a manifold file contains.
# T3 is 0-surgery on the Borromean rings; the two base signatures on its
# single Wu coset are the solid-torus filling (0) and the even
# unimodular filling (8).
MANIFOLDS: dict[str, dict] = {
    "s3": {"name": "S3", "linking_matrix": [],
           "spin_boundary_signatures": {"0": [0]}},
    "s1xs2": {"name": "S1xS2", "linking_matrix": [[0]]},
    "rp3": {"name": "RP3", "linking_matrix": [[2]]},
    "l4": {"name": "L(4,1)", "linking_matrix": [[4]]},
    "t3": {"name": "T3",
           "linking_matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
           "spin_boundary_signatures": {"0": [0, 8]}},
}

_ALIASES = {"s^3": "s3", "t^3": "t3", "rp^3": "rp3", "s1s2": "s1xs2"}


def fixture_names() -> list[str]:
    return sorted(MANIFOLDS)


def _json_copy(value):
    """A deep copy of a JSON-shaped value: dicts and lists are rebuilt,
    strings and numbers are shared."""
    if isinstance(value, dict):
        return {k: _json_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_copy(v) for v in value]
    return value


def manifold_json(name: str) -> dict:
    """A deep copy of the named fixture's manifold record."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in MANIFOLDS:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(fixture_names())}")
    return _json_copy(MANIFOLDS[key])


def presentation(name: str) -> SurgeryPresentation:
    """The named fixture as a SurgeryPresentation."""
    record = manifold_json(name)
    return SurgeryPresentation(record["name"], IntSymMatrix(record["linking_matrix"]))


def e8_form() -> IntSymMatrix:
    """The even unimodular positive definite form of rank 8.

    This is the intersection form of the signature-8 spin filling used
    in the 3-torus embedding arithmetic.
    """
    return IntSymMatrix([
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2],
    ])
