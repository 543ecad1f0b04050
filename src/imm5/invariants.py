"""The invariant algebra for immersions with trivial normal bundle.

Smale invariants of sphere immersions from singular Seifert data, the
integer invariant i of 3-manifold immersions in its two incarnations
i_a (cusp route, via a filling mapped to 5-space) and i_b (triple-point
route, via a filling mapped to upper 6-space), and the free transitive
connected-sum action of sphere immersions on each Wu class.

Seifert data is supplied numerically; the module enforces every parity
and consistency identity such data must satisfy.  It also holds every
record type of the record file (fillings, closed maps, partitions) and
the validators of the closed-manifold identities and of the cusp-count
divisibility facts that follow from them.
"""

from __future__ import annotations

from .errors import (
    _QUOTE, HypothesisViolated, MissingData, ParityError, WuMismatch, _Value,
)
from .surgery import Gamma2Element, HomologyProfile


def _check_cusp_sum(cusps_algebraic: int,
                    cusps_per_component: tuple[int, ...] | None) -> None:
    """The check of the cusp-route records: per-component cusp counts, when
    given, sum to the algebraic total."""
    if (cusps_per_component is not None
            and sum(cusps_per_component) != cusps_algebraic):
        raise ValueError("per-component cusp counts must sum to the total")


class SeifertFillingR5(_Value):
    """Signature and algebraic cusp count of a generic 5-space filling."""

    sigma: int
    cusps_algebraic: int
    cusps_per_component: tuple[int, ...] | None = None

    def __init__(self, sigma, cusps_algebraic, cusps_per_component=None) -> None:
        _check_cusp_sum(cusps_algebraic, cusps_per_component)
        self._set(sigma, cusps_algebraic, cusps_per_component)


class SeifertFillingR6(_Value):
    """Signature, triple points and singular linking of an upper 6-space filling."""

    sigma: int
    triple_points: int
    singular_linking: int

    def __init__(self, sigma, triple_points, singular_linking) -> None:
        self._set(sigma, triple_points, singular_linking)


class ImmersionDoubleData(_Value):
    """Linking number of the immersed image with its pushed-off double curves."""

    big_l: int

    def __init__(self, big_l) -> None:
        self._set(big_l)


class ClosedMapRecordR5(_Value):
    """Data of a generic map of a closed oriented 4-manifold to 5-space."""

    sigma: int
    cusps_algebraic: int
    cusps_per_component: tuple[int, ...] | None = None
    is_spin: bool = False

    def __init__(self, sigma, cusps_algebraic, cusps_per_component=None,
                 is_spin=False) -> None:
        _check_cusp_sum(cusps_algebraic, cusps_per_component)
        self._set(sigma, cusps_algebraic, cusps_per_component, is_spin)


class ClosedMapRecordR6(_Value):
    """Data of a generic map of a closed oriented 4-manifold to 6-space."""

    sigma: int
    triple_points: int
    singular_linking: int

    def __init__(self, sigma, triple_points, singular_linking) -> None:
        self._set(sigma, triple_points, singular_linking)


class PartitionRecord(_Value):
    """Algebraic cusp counts on the two sides of a separating 3-manifold,
    and the preconditions under which both are divisible by 6."""

    part_cusps: tuple[int, int]
    ambient_spin: bool = False
    separator_null_homologous: bool = False
    separator_avoids_double_points: bool = False

    def __init__(self, part_cusps, ambient_spin=False, separator_null_homologous=False,
                 separator_avoids_double_points=False) -> None:
        self._set(part_cusps, ambient_spin, separator_null_homologous,
                  separator_avoids_double_points)


# Record-file key -> (id prefix of an unnamed record, record type); the file
# key is also the cli.SeifertData field holding that kind's (id, record) pairs.
RECORD_KINDS = {
    "fillings_r5": ("r5", SeifertFillingR5),
    "fillings_r6": ("r6", SeifertFillingR6),
    "closed_records_r5": ("closed_r5", ClosedMapRecordR5),
    "closed_records_r6": ("closed_r6", ClosedMapRecordR6),
    "partition_records": ("partition", PartitionRecord),
}


class RegHomotopyClass(_Value):
    """The complete classifying pair (wu, i) of an immersion."""

    wu: Gamma2Element
    i: int

    def __init__(self, wu, i) -> None:
        self._set(wu, i)


class SmaleClass(_Value):
    """A regular homotopy class of sphere immersions in 5-space."""

    omega: int

    def __init__(self, omega) -> None:
        self._set(omega)


_NO_FILLING = "no genuine filling yields this data"
_NO_SURFACE = "the record is inconsistent with any singular Seifert surface"


def _half(total: int, formula: str, reason: str) -> int:
    """total / 2; a ParityError naming formula and reason when total is odd."""
    if total % 2:
        raise ParityError(f"{formula} = {_QUOTE.repr(total)} is odd; {reason}")
    return total // 2


def smale_via_seifert_r5(s: SeifertFillingR5) -> SmaleClass:
    """Omega = (3*sigma + #cusps) / 2."""
    return SmaleClass(_half(3 * s.sigma + s.cusps_algebraic,
                            "3*sigma + cusps", _NO_FILLING))


def smale_via_seifert_r6(s: SeifertFillingR6, d: ImmersionDoubleData) -> SmaleClass:
    """Omega = (3*sigma + 3t - 3l + L) / 2."""
    return SmaleClass(_half(
        3 * (s.sigma + s.triple_points - s.singular_linking) + d.big_l,
        "3*(sigma + t - l) + L", _NO_FILLING))


def i_a(s: SeifertFillingR5, h: HomologyProfile) -> int:
    """i_a = 3/2*(sigma - alpha) + #cusps/2, always an integer."""
    return _half(3 * (s.sigma - h.alpha) + s.cusps_algebraic,
                 "3*(sigma - alpha) + cusps", _NO_SURFACE)


def i_b(s: SeifertFillingR6, d: ImmersionDoubleData, h: HomologyProfile) -> int:
    """i_b = 3/2*(sigma - alpha) + (3t - 3l + L)/2, always an integer."""
    return _half(
        3 * (s.sigma - h.alpha + s.triple_points - s.singular_linking) + d.big_l,
        "3*(sigma - alpha + t - l) + L", _NO_SURFACE)


def connected_sum_act(f: RegHomotopyClass, g: SmaleClass) -> RegHomotopyClass:
    """Connected sum with a sphere immersion: (wu, i) -> (wu, i + omega).

    The Wu class is untouched; the action on each Wu component is the
    free transitive Z-action by the Smale invariant.
    """
    return RegHomotopyClass(f.wu, f.i + g.omega)


def solve_for_summand(f0: RegHomotopyClass, target: RegHomotopyClass) -> SmaleClass:
    """The unique sphere-immersion class carrying f0 to target."""
    if f0.wu != target.wu:
        raise WuMismatch(
            f"no summand carries Wu class {f0.wu} to {target.wu}; "
            "the action preserves components"
        )
    return SmaleClass(target.i - f0.i)


def track_correction(l_before: int, l_after: int,
                     triple_points_of_track: int) -> bool:
    """Double-point linking bookkeeping across a regular homotopy track.

    True iff l_before = l_after + 3 * (triple points of the track).
    """
    return l_before == l_after + 3 * triple_points_of_track


def check_closed_r5(r: ClosedMapRecordR5) -> bool:
    """Closed-manifold identity in 5-space: #cusps + 3*sigma = 0."""
    return r.cusps_algebraic + 3 * r.sigma == 0


def check_closed_r6(r: ClosedMapRecordR6) -> bool:
    """Closed-manifold identity in 6-space: sigma - l + t = 0."""
    return r.sigma - r.singular_linking + r.triple_points == 0


def check_cusp_residue(filling: SeifertFillingR5, d: ImmersionDoubleData) -> bool:
    """The cusp count of any filling is congruent to L mod 3."""
    return (filling.cusps_algebraic - d.big_l) % 3 == 0


def check_spin_even_components(r: ClosedMapRecordR5) -> bool:
    """On a closed spin 4-manifold every singularity component carries an
    even number of cusps."""
    if not r.is_spin:
        raise HypothesisViolated("the even-cusp check applies to spin records only")
    if r.cusps_per_component is None:
        raise MissingData("record carries no per-component cusp counts")
    return all(c % 2 == 0 for c in r.cusps_per_component)


def check_partition_divisibility(p: PartitionRecord) -> bool:
    """Cusp counts on both sides of the separating 3-manifold are
    divisible by 6."""
    return all(c % 6 == 0 for c in p.part_cusps)
