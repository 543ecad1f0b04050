"""The package's 21 value types (``errors._Value``) against dataclass twins.

Each twin below is a frozen dataclass with the fields, annotations,
defaults and check the type was declared with before it had a
hand-written ``__init__`` (the two ``cli`` types were then not frozen).
On seeded instances the two must agree on the fields and the instance
dict, ``repr``, ``==`` and ``!=`` within a class and across classes,
``hash`` (or the TypeError of an unhashable field), positional and
keyword construction with defaults, the ValueError of a failed check and
the TypeError of a bad call, pickle and copy round trips, and assignment
and deletion of attributes, refused with the same AttributeError
message.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import pytest

from imm5 import cli, embeddings, intlinalg, invariants, spin, surgery, verify
from imm5.errors import _Value


def _check_cusp_sum(record) -> None:
    """The former ``__post_init__`` of the cusp-route records, verbatim."""
    if (record.cusps_per_component is not None
            and sum(record.cusps_per_component) != record.cusps_algebraic):
        raise ValueError("per-component cusp counts must sum to the total")


@dataclass(frozen=True)
class SmithDecomposition:
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    s: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]


@dataclass(frozen=True)
class Mod2Solution:
    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SurgeryPresentation:
    name: str
    q: IntSymMatrix


@dataclass(frozen=True)
class HomologyProfile:
    betti1: int
    torsion_factors: tuple[int, ...]


@dataclass(frozen=True)
class Gamma2Element:
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if (type(coords) is not tuple
                or coords.count(0) + coords.count(1) != len(coords)):
            if any(b not in (0, 1) for b in coords):
                raise ValueError("coordinates must be bits")


@dataclass(frozen=True)
class SpinStructure:
    c: tuple[int, ...]
    _mask = None  # no annotation: not a field


@dataclass(frozen=True)
class WuCoset:
    value: Gamma2Element


@dataclass(frozen=True)
class SpinBoundarySignatures:
    per_coset: Mapping[Gamma2Element, frozenset[int]]


@dataclass(frozen=True)
class EmbeddingClassSet:
    offsets_mod_24: Mapping[Gamma2Element, frozenset[int]]


@dataclass(frozen=True)
class ManifoldData:
    presentation: SurgeryPresentation
    profile: HomologyProfile
    signatures: SpinBoundarySignatures | None


@dataclass(frozen=True)
class SeifertData:
    manifold: ManifoldData | None
    double_data: ImmersionDoubleData | None
    fillings_r5: list[tuple[str, SeifertFillingR5]]
    fillings_r6: list[tuple[str, SeifertFillingR6]]
    closed_records_r5: list[tuple[str, ClosedMapRecordR5]]
    closed_records_r6: list[tuple[str, ClosedMapRecordR6]]
    partition_records: list[tuple[str, PartitionRecord]]


@dataclass(frozen=True)
class SeifertFillingR5:
    sigma: int
    cusps_algebraic: int
    cusps_per_component: tuple[int, ...] | None = None

    __post_init__ = _check_cusp_sum


@dataclass(frozen=True)
class SeifertFillingR6:
    sigma: int
    triple_points: int
    singular_linking: int


@dataclass(frozen=True)
class ImmersionDoubleData:
    big_l: int


@dataclass(frozen=True)
class ClosedMapRecordR5:
    sigma: int
    cusps_algebraic: int
    cusps_per_component: tuple[int, ...] | None = None
    is_spin: bool = False

    __post_init__ = _check_cusp_sum


@dataclass(frozen=True)
class ClosedMapRecordR6:
    sigma: int
    triple_points: int
    singular_linking: int


@dataclass(frozen=True)
class PartitionRecord:
    part_cusps: tuple[int, int]
    ambient_spin: bool = False
    separator_null_homologous: bool = False
    separator_avoids_double_points: bool = False


@dataclass(frozen=True)
class RegHomotopyClass:
    wu: Gamma2Element
    i: int


@dataclass(frozen=True)
class SmaleClass:
    omega: int


@dataclass(frozen=True)
class OracleReport:
    name: str
    trials: int
    failures: tuple[str, ...]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    lines: tuple[str, ...]


REAL = {cls.__name__: cls for cls in (
    intlinalg.SmithDecomposition, intlinalg.Mod2Solution,
    surgery.SurgeryPresentation, surgery.HomologyProfile, surgery.Gamma2Element,
    spin.SpinStructure, spin.WuCoset,
    embeddings.SpinBoundarySignatures, embeddings.EmbeddingClassSet,
    cli.ManifoldData, cli.SeifertData,
    invariants.SeifertFillingR5, invariants.SeifertFillingR6,
    invariants.ImmersionDoubleData, invariants.ClosedMapRecordR5,
    invariants.ClosedMapRecordR6, invariants.PartitionRecord,
    invariants.RegHomotopyClass, invariants.SmaleClass,
    verify.OracleReport, verify.CheckReport)}
PAIRS = [(cls, globals()[name]) for name, cls in REAL.items()]
IDS = list(REAL)
# the ValueError message of each type with a check
CHECKED = {invariants.SeifertFillingR5: "per-component cusp counts must sum to the total",
           invariants.ClosedMapRecordR5: "per-component cusp counts must sum to the total",
           surgery.Gamma2Element: "coordinates must be bits"}
DRAWS = 300  # seeded instances per type


def outcome(f, *args, **kwargs):
    """f(*args, **kwargs), or the type and message of the exception it
    raises; a FrozenInstanceError reads as the AttributeError it is."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        kind = AttributeError if isinstance(exc, AttributeError) else type(exc)
        return kind, str(exc)


def state(obj):
    """The class name, instance dict in order, and hash and repr (or their
    exceptions) of obj; an exception outcome stays as it is."""
    if isinstance(obj, tuple):
        return obj
    return (type(obj).__name__, list(vars(obj).items()), outcome(hash, obj),
            outcome(repr, obj))


MATRICES = ([], [[2]], [[0, 1], [1, 0]])
ATOMS = {
    "int": lambda rng: rng.randint(-1, 1),
    "bool": lambda rng: rng.random() < 0.5,
    "str": lambda rng: rng.choice("ab"),
    "tuple[int, ...]": lambda rng: tuple(rng.randint(-1, 1) for _ in range(rng.randint(0, 2))),
    "tuple[int, int]": lambda rng: (rng.randint(-1, 1), rng.randint(-1, 1)),
    "tuple[str, ...]": lambda rng: tuple(rng.choice("ab") for _ in range(rng.randint(0, 2))),
    "tuple[tuple[int, ...], ...]":
        lambda rng: tuple(ATOMS["tuple[int, ...]"](rng) for _ in range(rng.randint(0, 2))),
    "IntSymMatrix": lambda rng: intlinalg.IntSymMatrix(rng.choice(MATRICES)),
    "Mapping[Gamma2Element, frozenset[int]]":
        lambda rng: {instance(rng, surgery.Gamma2Element):
                     frozenset(ATOMS["tuple[int, ...]"](rng)) for _ in range(rng.randint(0, 2))},
}


def draw(rng, kind: str):
    """A value of the declared field type kind: small, so that equal values
    recur, and for a value type an instance of the package's class."""
    if kind.endswith(" | None"):
        return None if rng.random() < 0.3 else draw(rng, kind[:-len(" | None")])
    if kind.startswith("list[tuple[str, "):
        cls = REAL[kind[len("list[tuple[str, "):-2]]
        return [(rng.choice("ab"), instance(rng, cls)) for _ in range(rng.randint(0, 2))]
    if kind in REAL:
        return instance(rng, REAL[kind])
    return ATOMS[kind](rng)


def values(rng, cls) -> list:
    return [draw(rng, kind) for kind in cls.__annotations__.values()]


def instance(rng, cls):
    """An instance of cls from drawn fields, drawn again until its check
    passes."""
    while True:
        obj = outcome(cls, *values(rng, cls))
        if isinstance(obj, cls):
            return obj


def test_twins_cover_every_value_type():
    assert len(PAIRS) == 21
    assert all(issubclass(real, _Value) and dataclasses.is_dataclass(twin)
               for real, twin in PAIRS)


@pytest.mark.parametrize("real, twin", PAIRS, ids=IDS)
def test_fields_and_defaults_match_twin(real, twin):
    """The same annotations in order, which the record reader and the
    value base read, and the same class-body defaults."""
    assert real.__annotations__ == twin.__annotations__
    assert real._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert ({name: vars(real)[name] for name in real._fields if name in vars(real)}
            == {f.name: f.default for f in dataclasses.fields(twin)
                if f.default is not dataclasses.MISSING})


@pytest.mark.parametrize("real, twin", PAIRS, ids=IDS)
def test_construction_repr_eq_hash_match_twin(real, twin):
    """Positional, keyword and defaulted construction, the check's
    ValueError, which fires on at least 30 draws of a type with a check,
    and repr, ==, != and hash on seeded instances and on pairs of them,
    against the twin."""
    rng = random.Random(f"value-types {real.__name__}")
    others = [cls for cls in REAL.values() if cls is not real]
    seen = Counter()
    built = []
    for _ in range(DRAWS):
        args = values(rng, real)
        got, want = outcome(real, *args), outcome(twin, *args)
        assert state(got) == state(want), args
        if isinstance(want, tuple):
            seen[want[1]] += 1
            continue
        seen["built"] += 1
        kwargs = dict(zip(real._fields, args))
        assert state(real(**kwargs)) == state(want)
        defaulted = [name for name in real._fields if name in vars(real)]
        for name in rng.sample(defaulted, rng.randint(0, len(defaulted))):
            del kwargs[name]
        assert state(real(**kwargs)) == state(twin(**kwargs)), kwargs
        built.append((got, want))
    if real in CHECKED:
        assert seen[CHECKED[real]] >= 30, seen

    for (a, ta), (b, tb) in zip(built, built[1:] + built[:1]):
        if rng.random() < 0.5:  # the same fields, another instance
            b = real(*[getattr(a, name) for name in real._fields])
            tb = twin(*[getattr(ta, name) for name in real._fields])
        assert (a == b, a != b) == (ta == tb, ta != tb), (a, b)
        seen[f"equal {a == b}"] += 1
        # across classes: the twin, and an instance of another value type
        other = instance(rng, rng.choice(others))
        assert a.__eq__(ta) is NotImplemented and a.__eq__(other) is NotImplemented
        assert (a == ta, a != ta, a == other, a != other) == (False, True, False, True)
    assert seen["built"] >= 100 and seen["equal True"] >= 50 and seen["equal False"] >= 10, seen

    for bad in ((), tuple(range(len(real._fields) + 1))):
        assert outcome(real, *bad) == outcome(twin, *bad)
    assert outcome(real, bogus=0) == outcome(twin, bogus=0)


@pytest.mark.parametrize("real, twin", PAIRS, ids=IDS)
def test_round_trips_match_twin(real, twin):
    """pickle, copy.copy and copy.deepcopy keep the class, the instance
    dict, hash and repr, as they do for the twin."""
    rng = random.Random(f"value-type trips {real.__name__}")
    for _ in range(50):
        obj = instance(rng, real)
        tw = twin(*[getattr(obj, name) for name in real._fields])
        for trip in (lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy):
            back = trip(obj)
            assert type(back) is real and back == obj
            assert state(back) == state(obj) == state(trip(tw))


@pytest.mark.parametrize("real, twin", PAIRS, ids=IDS)
def test_assignment_and_deletion_match_twin(real, twin):
    """Each type refuses setattr and delattr, of a field or any other
    name, with the twin's message."""
    rng = random.Random(f"value-type writes {real.__name__}")
    obj = instance(rng, real)
    tw = twin(*[getattr(obj, name) for name in real._fields])
    for name in (*real._fields, "other"):
        value = draw(rng, "int")
        assert outcome(setattr, obj, name, value) == outcome(setattr, tw, name, value)
        assert state(obj) == state(tw)
        assert outcome(delattr, obj, name) == outcome(delattr, tw, name)
    message = outcome(setattr, obj, real._fields[0], 0)
    assert message == (AttributeError, f"cannot assign to field {real._fields[0]!r}")


def test_cached_properties_leave_the_value_alone():
    """The cached properties of Mod2Solution, HomologyProfile and
    SurgeryPresentation write the instance dict after the fields; repr,
    == and hash are those of a fresh instance, and the round trips carry
    the cached entries."""
    q = intlinalg.IntSymMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 4]])
    for obj, names in ((q._over_z2[2], ("count", "_tables", "_free_columns")),
                       (surgery.HomologyProfile(1, (2, 4)), ("alpha",)),
                       (surgery.SurgeryPresentation("m", q), ("_h1", "_wu_tables"))):
        real = type(obj)
        fresh = real(*[getattr(obj, name) for name in real._fields])
        for name in names:
            assert isinstance(vars(real)[name], cached_property)
            getattr(obj, name)
        assert list(vars(obj)) == [*real._fields, *names]
        assert (repr(obj), hash(obj), obj) == (repr(fresh), hash(fresh), fresh)
        for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
            assert list(vars(back).items()) == list(vars(obj).items())


def test_carried_mask_stays_out_of_the_value():
    """A spin structure that carries its mask in its instance dict, as the
    elements of ``spin_structures`` do, has the ==, hash and repr of one
    built from c alone, and of the twin carrying the same mask."""
    p = surgery.SurgeryPresentation("m", intlinalg.IntSymMatrix([[0] * 5 for _ in range(5)]))
    spins = spin.spin_structures(p)
    for k in range(len(spins)):
        s = spins[k]
        built, tw = spin.SpinStructure(s.c), SpinStructure(s.c)
        vars(tw)["_mask"] = s._mask
        assert list(vars(s)) == ["c", "_mask"] and list(vars(built)) == ["c"]
        assert s == built and not s != built
        assert hash(s) == hash(built) == hash(tw)
        assert repr(s) == repr(built) == repr(tw) == f"SpinStructure(c={s.c!r})"
        assert state(s) == state(tw)
