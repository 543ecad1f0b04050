"""Spin structures and the quotient onto the Wu classes."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from imm5.errors import InvalidSpinStructure
from imm5.fixtures import presentation
from imm5.intlinalg import IntSymMatrix
from imm5.spin import (
    _WU_COSET_CAP,
    SpinStructure,
    spin_structures,
    wu_coset_of_difference,
)
from imm5.surgery import SurgeryPresentation, homology_profile


def _pres(rows, name="m"):
    return SurgeryPresentation(name, IntSymMatrix(rows))


def _wu_accepts(p, s) -> bool:
    """The Wu map's verdict on s: it maps s against an element of p in
    both argument positions, raising if s is not characteristic, and
    leaves the instance dict of s as it was."""
    before = list(vars(s).items())
    base = spin_structures(p)[0]
    wu_coset_of_difference(p, s, base)
    wu_coset_of_difference(p, base, s)
    return list(vars(s).items()) == before


class TestEnumeration:
    def test_zero_framing(self):
        assert {s.c for s in spin_structures(_pres([[0]]))} == {(0,), (1,)}

    def test_odd_framing_forces_component(self):
        assert [s.c for s in spin_structures(_pres([[1]]))] == [(1,)]

    def test_torus_has_all_eight(self):
        found = {s.c for s in spin_structures(presentation("t3"))}
        assert found == set(itertools.product((0, 1), repeat=3))

    def test_empty_link(self):
        assert [s.c for s in spin_structures(presentation("s3"))] == [()]

    def test_lazy_past_sys_maxsize(self):
        """#70 S1xS2 has 2**70 spin structures; the sequence over them is
        built without listing any."""
        p = _pres([[0] * 70 for _ in range(70)])
        tracemalloc.start()
        try:
            spins = spin_structures(p)
            last = spins[2 ** 70 - 1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert last == SpinStructure((1,) * 70) == spins[-1]
        assert p.q._over_z2[2].count == 2 ** 70
        with pytest.raises(IndexError):
            spins[2 ** 70]
        # truth testing and reversed() go without len(), which overflows
        assert spins and next(reversed(spins)) == last
        with pytest.raises(OverflowError):
            len(spins)

    def test_every_solution_is_characteristic(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(0, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            p = _pres(rows)
            sols = spin_structures(p)
            assert all(_wu_accepts(p, s) for s in sols)
            h = homology_profile(p)
            assert len(sols) == 2 ** (h.betti1 + h.alpha)
            assert len(set(sols)) == len(sols)


class TestCarriedMask:
    """The mask a spin structure carries is not part of its value."""

    def test_element_equals_user_built(self):
        rng = random.Random(17)
        spins = spin_structures(_pres([[0] * 9 for _ in range(9)]))
        for k in rng.sample(range(len(spins)), 20):
            s, built = spins[k], SpinStructure(spins[k].c)
            assert s == built and hash(s) == hash(built) and repr(s) == repr(built)
            assert "_mask" in vars(s) and "_mask" not in vars(built)
        assert SpinStructure._fields == ("c",)
        assert {name: getattr(s, name) for name in s._fields} == {"c": s.c}

    def test_reads_write_nothing_into_their_arguments(self):
        """The Wu map in both argument positions, ``in``, ``count`` and
        ``index`` leave the instance dict of a user-built spin structure,
        with c a tuple or a list, and of an element as they were."""
        p = _pres([[2, 1, 0], [1, 0, 0], [0, 0, 0]])
        spins = spin_structures(p)
        listed = list(spins)
        element = spins[len(spins) - 1]
        for s in (SpinStructure(element.c), SpinStructure(list(element.c)), element):
            before = list(vars(s).items())
            for other in listed:
                wu_coset_of_difference(p, s, other)
                wu_coset_of_difference(p, other, s)
            assert (s in spins, spins.count(s)) == (s in listed, listed.count(s))
            if s in listed:
                assert spins.index(s) == listed.index(s)
            else:
                with pytest.raises(ValueError):
                    spins.index(s)
            assert list(vars(s).items()) == before, s


class _Sub(SpinStructure):
    pass


def _membership_probes(rng, n, listed):
    """Vectors to look up: every element, random 0/1 vectors, the wrong
    length, entries 2, -1, True, 1.0 or 0.0 in place of a bit, c as a
    list, a subclass and a bare tuple."""
    probes = list(listed)
    for _ in range(6):
        bits = [rng.randint(0, 1) for _ in range(n)]
        probes.append(SpinStructure(tuple(bits)))
        if n:
            k = rng.randrange(n)
            swapped = {0: (0.0, False, -2), 1: (True, 1.0, -1, 3)}[bits[k]]
            bits[k] = rng.choice(swapped + (2,))
            probes.append(SpinStructure(tuple(bits)))
    member = rng.choice(listed)
    probes += [SpinStructure(member.c + (0,)), SpinStructure(member.c[:-1]),
               SpinStructure(list(member.c)), _Sub(member.c), member.c]
    return probes


class TestMembership:
    """``in``, ``count`` and ``index`` against the list of the elements."""

    def test_matches_list(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(200):
            n = rng.randint(0, 7)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, 3))
            spins = spin_structures(_pres(rows))
            listed = list(spins)
            assert spins and list(reversed(spins)) == listed[::-1]
            for s in _membership_probes(rng, n, listed):
                assert (s in spins) == (s in listed), (rows, s)
                assert spins.count(s) == listed.count(s), (rows, s)
                ends = (0, 1, -1, len(listed) - 1, len(listed), -len(listed) - 3)
                for start, stop in [(0, None), *itertools.product(ends, repeat=2)]:
                    window = (start,) if stop is None else (start, stop)
                    try:
                        want = listed.index(s, *window)
                    except ValueError:
                        with pytest.raises(ValueError):
                            spins.index(s, *window)
                    else:
                        assert spins.index(s, *window) == want, (rows, s, window)
                        checked += 1
        assert checked >= 5000

    def test_index_of_element(self):
        """``index`` inverts reading an element, on #70 S1xS2 and on random
        presentations."""
        rng = random.Random(21)
        spins = spin_structures(_pres([[0] * 70 for _ in range(70)]))
        for k in [0, 2 ** 70 - 1] + [rng.randrange(2 ** 70) for _ in range(50)]:
            assert spins.index(spins[k]) == k
        for _ in range(100):
            n = rng.randint(0, 12)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, 3))
            spins = spin_structures(_pres(rows))
            for k in rng.sample(range(len(spins)), min(len(spins), 10)):
                assert spins.index(spins[k]) == k, (rows, k)

    def test_past_sys_maxsize(self):
        """#70 S1xS2: membership and index solve for the vector instead of
        scanning 2**70 elements."""
        spins = spin_structures(_pres([[0] * 70 for _ in range(70)]))
        last = SpinStructure((1,) * 70)
        assert last in spins and spins.count(last) == 1
        assert spins.index(last) == 2 ** 70 - 1
        assert spins.index(SpinStructure((0,) * 70)) == 0
        assert SpinStructure((1,) * 69 + (2,)) not in spins
        with pytest.raises(ValueError):
            spins.index(last, 0, -1)


class TestWuCoset:
    def test_equal_structures_map_to_zero(self):
        p = presentation("rp3")
        s = spin_structures(p)[0]
        assert wu_coset_of_difference(p, s, s).value.is_zero

    def test_torus_differences_all_vanish(self):
        p = presentation("t3")
        sols = spin_structures(p)
        for s1, s2 in itertools.combinations(sols, 2):
            assert wu_coset_of_difference(p, s1, s2).value.is_zero

    def test_projective_space_separates(self):
        p = presentation("rp3")
        s1, s2 = spin_structures(p)
        coset = wu_coset_of_difference(p, s1, s2).value
        assert not coset.is_zero
        assert coset.coords == (1,)

    def test_rejects_invalid_vectors(self):
        p = presentation("rp3")
        good = spin_structures(p)[0]
        with pytest.raises(InvalidSpinStructure):
            wu_coset_of_difference(p, good, SpinStructure((1, 0)))

    def test_rejection_message_is_bounded(self):
        p = _pres([[2]], name="m" * 10_000)
        with pytest.raises(InvalidSpinStructure) as exc:
            wu_coset_of_difference(p, SpinStructure((0, 1) * 50_000), SpinStructure((0,)))
        assert len(str(exc.value)) < 300

    @pytest.mark.parametrize(
        "rows",
        [
            [],                                   # alpha 0, betti 0
            [[0]],                                # alpha 0, betti 1
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],    # alpha 0, betti 3
            [[2]],                                # alpha 1
            [[4]],                                # alpha 1
            [[2, 0], [0, 3]],                     # alpha 1, factors (1, 6)
            [[0, 2], [2, 0]],                     # alpha 2
            [[2, 0], [0, 4]],                     # alpha 2
            [[4, 2], [2, 4]],                     # alpha 2, factors (2, 6)
            [[0, 0], [0, 2]],                     # alpha 1, betti 1
            [[2, 1, 0], [1, 2, 0], [0, 0, 0]],    # alpha 0, betti 1, torsion 3
        ],
    )
    def test_surjective_with_uniform_fibres(self, rows):
        p = _pres(rows)
        h = homology_profile(p)
        sols = spin_structures(p)
        base = sols[0]
        hits = Counter(
            wu_coset_of_difference(p, s, base).value.coords for s in sols
        )
        assert len(hits) == 2 ** h.alpha
        assert all(count == 2 ** h.betti1 for count in hits.values())

    def test_equal_cosets_are_shared(self):
        p = presentation("rp3")
        s1, s2 = spin_structures(p)
        assert wu_coset_of_difference(p, s1, s2) is wu_coset_of_difference(p, s2, s1)
        assert wu_coset_of_difference(p, s1, s1) is wu_coset_of_difference(p, s2, s2)

    def test_memo_stops_at_its_cap(self):
        """alpha = 12: 4,096 cosets, one per spin structure, so the calls
        run past the cap; the memo keeps the first _WU_COSET_CAP."""
        p = _pres([[2 if i == j else 0 for j in range(12)] for i in range(12)])
        assert homology_profile(p).alpha == 12 and _WU_COSET_CAP < 2 ** 12
        spins = spin_structures(p)
        base = spins[0]
        coords = {wu_coset_of_difference(p, s, base).value.coords for s in spins}
        assert len(coords) == 2 ** 12
        assert len(p._wu_cosets) == _WU_COSET_CAP
        for s in spins:
            wu_coset_of_difference(p, s, base)
        assert len(p._wu_cosets) == _WU_COSET_CAP

    def test_difference_map_is_homomorphism(self):
        p = _pres([[2, 0], [0, 4]])
        sols = spin_structures(p)
        base = sols[0]
        rng = random.Random(8)
        for _ in range(20):
            s1, s2 = rng.choice(sols), rng.choice(sols)
            mixed = SpinStructure(
                tuple(a ^ b ^ c for a, b, c in zip(s1.c, s2.c, base.c))
            )
            assert _wu_accepts(p, mixed)
            lhs = wu_coset_of_difference(p, mixed, base).value
            rhs = (wu_coset_of_difference(p, s1, base).value
                   + wu_coset_of_difference(p, s2, base).value)
            assert lhs == rhs
