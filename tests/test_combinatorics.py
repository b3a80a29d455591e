"""Compositions, set compositions, their binary statistics, and the
permutation helpers."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from hopftower.combinatorics import (bc_bits, block_index, boundary_bits,
                                     coarsenings, composition_from_boundary_bits,
                                     compositions, concat, conjugate, descents,
                                     interior_bits, inverse, lc_bits, llc_bits,
                                     partial_sums, permutations, refinements,
                                     set_compositions, setcomp_refinements,
                                     setcomp_refines, smash, toggle_free)


def composition_from_interior_bits(bits):
    """Inverse of :func:`interior_bits`."""
    return composition_from_boundary_bits(tuple(1 - b for b in bits))


bits_strategy = st.lists(st.integers(0, 1), max_size=8).map(tuple)
compo_strategy = bits_strategy.map(composition_from_boundary_bits)


@st.composite
def setcomp_strategy(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()))
    blocks, start = [], 0
    for cut in sorted(cuts) + [n]:
        blocks.append(tuple(sorted(order[start:cut])))
        start = cut
    return tuple(blocks)


# -- integer compositions -----------------------------------------------------


def test_compositions_order_and_count():
    assert list(compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert list(compositions(0)) == [()]
    assert list(compositions(1)) == [(1,)]
    for n in range(1, 9):
        assert len(list(compositions(n))) == 2 ** (n - 1)


def test_compositions_negative():
    for enumerate_size in (compositions, set_compositions):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            list(enumerate_size(-1))


def test_boundary_interior_examples():
    assert boundary_bits((2, 3, 1)) == (0, 1, 0, 0, 1)
    assert interior_bits((2, 3, 1)) == (1, 0, 1, 1, 0)
    assert partial_sums((2, 3, 1)) == (2, 5)
    assert partial_sums((4,)) == ()


@given(compo_strategy)
def test_bit_round_trips(mu):
    assert composition_from_boundary_bits(boundary_bits(mu)) == mu
    assert composition_from_interior_bits(interior_bits(mu)) == mu


@given(compo_strategy)
def test_conjugate_is_bit_complement(mu):
    assert boundary_bits(conjugate(mu)) == interior_bits(mu)
    assert conjugate(conjugate(mu)) == mu


@given(compo_strategy, compo_strategy)
def test_concat_smash_bit_identities(mu, nu):
    assert boundary_bits(concat(mu, nu)) == (
        boundary_bits(mu) + (1,) + boundary_bits(nu))
    assert boundary_bits(smash(mu, nu)) == (
        boundary_bits(mu) + (0,) + boundary_bits(nu))


def test_concat_smash_edges():
    assert concat((), (2, 1)) == (2, 1)
    assert smash((), (2, 1)) == (2, 1)
    assert smash((2, 1), ()) == (2, 1)
    assert smash((2, 1), (3,)) == (2, 4)


def refines(nu, mu):
    """True when every boundary of mu is also a boundary of nu: the
    definition that ``refinements`` and ``coarsenings`` are tested against.

    >>> refines((1, 1, 2), (2, 2))
    True
    >>> refines((2, 2), (1, 3))
    False
    >>> refines((2, 2), (2, 2))
    True
    """
    if sum(nu) != sum(mu):
        return False
    return all(x >= y for x, y in zip(boundary_bits(nu), boundary_bits(mu)))


def test_refines():
    assert refines((1, 1, 2), (2, 2))
    assert not refines((2, 2), (1, 1, 2))
    assert refines((2, 2), (2, 2))
    assert not refines((2,), (1, 1, 1))  # different n
    # refinement counts: each part of size p splits in 2^(p-1) ways
    for mu in [(3,), (2, 2), (1, 3), (4,)]:
        expect = 1
        for p in mu:
            expect *= 2 ** (p - 1)
        assert len(list(refinements(mu))) == expect


def test_coarsenings_conjugate_duality():
    for n in range(1, 6):
        for mu in compositions(n):
            coarse = sorted(coarsenings(mu))
            fine_conj = sorted(conjugate(nu) for nu in refinements(conjugate(mu)))
            assert coarse == fine_conj


def test_refinements_and_coarsenings_are_the_filter_in_order():
    """Both enumerate masks directly; they must yield exactly the
    compositions ``refines`` admits, in the order of ``compositions``."""
    for n in range(9):
        comps = list(compositions(n))
        for mu in comps:
            assert list(refinements(mu)) == [
                nu for nu in comps if refines(nu, mu)]
            assert list(coarsenings(mu)) == [
                nu for nu in comps if refines(mu, nu)]
    assert list(coarsenings(())) == list(refinements(())) == [()]


# -- set compositions ---------------------------------------------------------


def test_set_composition_counts():
    # ordered Bell numbers
    assert [len(list(set_compositions(n))) for n in range(6)] == [
        1, 1, 3, 13, 75, 541]


def test_block_index_and_ground_size():
    A = ((2, 5), (1,), (3, 4))
    assert ground_size(A) == 5
    assert block_index(A) == {2: 0, 5: 0, 1: 1, 3: 2, 4: 2}


def test_binary_statistics_worked_example():
    A = ((1, 3, 4, 5, 7), (6,), (8, 9), (2, 10))
    assert lc_bits(A) == (1, 1, 1, 1, 1, 0, 0, 1, 0)
    assert llc_bits(A) == (1, 0, 1, 1, 1, 0, 1, 1, 1)
    assert bc_bits(A) == (0, 0, 1, 1, 0, 0, 0, 1, 0)


def test_binary_statistics_extremes():
    singletons = tuple((j,) for j in range(1, 5))
    assert lc_bits(singletons) == (0, 0, 0)
    assert llc_bits(singletons) == (1, 1, 1)
    assert bc_bits(singletons) == (0, 0, 0)
    block = (tuple(range(1, 5)),)
    assert lc_bits(block) == llc_bits(block) == bc_bits(block) == (1, 1, 1)


@given(setcomp_strategy())
def test_bc_implies_lc_and_llc(A):
    for b, l, w in zip(bc_bits(A), lc_bits(A), llc_bits(A)):
        assert b <= l and b <= w


def test_statistics_monotone_under_refinement():
    """Coarsening can only turn statistic bits on, never off."""
    for n in range(1, 6):
        for B in set_compositions(n):
            lb, wb, bb = lc_bits(B), llc_bits(B), bc_bits(B)
            for A in setcomp_refinements(B):
                assert setcomp_refines(A, B)
                assert all(a <= b for a, b in zip(lc_bits(A), lb))
                assert all(a <= b for a, b in zip(llc_bits(A), wb))
                assert all(a <= b for a, b in zip(bc_bits(A), bb))


def test_setcomp_refines():
    assert setcomp_refines(((2,), (1,), (3,)), ((1, 2), (3,)))
    assert not setcomp_refines(((3,), (1,), (2,)), ((1, 2), (3,)))
    assert not setcomp_refines(((1,), (3,), (2,)), ((1, 2), (3,)))
    assert setcomp_refines(((1, 2), (3,)), ((1, 2), (3,)))


def test_setcomp_refinements_are_exactly_the_refining_ones():
    for n in range(4):
        for B in set_compositions(n):
            listed = sorted(setcomp_refinements(B))
            brute = sorted(A for A in set_compositions(n)
                           if setcomp_refines(A, B))
            assert listed == brute


# -- toggle-free set compositions ---------------------------------------------


def toggle_points(A):
    """The positions where the pairing move of the cancellation argument
    applies: j is listed when it is the largest element of its block and
    the following block starts above j+1 (a split point), or when it is
    not the largest and j+1 lies in another block (a fused point).  It is
    the definition that ``toggle_free`` is tested against."""
    idx = block_index(A)
    out = []
    for j in range(1, len(idx) + 1):
        k = idx[j]
        if j == max(A[k]):
            if k + 1 < len(A) and min(A[k + 1]) > j + 1:
                out.append(j)
        elif j + 1 not in A[k]:
            out.append(j)
    return out


def test_toggle_points_examples():
    assert toggle_points(((1,), (3,), (2,))) == [1]   # split at 1
    assert toggle_points(((1, 3), (2,))) == [1]       # fused at 1
    assert toggle_points(((1,), (2,), (3,))) == []
    assert toggle_points(((3,), (1, 2))) == []


def test_toggle_free_matches_definition():
    for n in range(5):
        listed = sorted(toggle_free(n))
        brute = sorted(A for A in set_compositions(n) if not toggle_points(A))
        assert listed == brute
        assert len(listed) == len(set(listed))


def reference_toggle_free(n):
    """The recursive insert-and-undo builder ``toggle_free`` replaced."""
    if n == 0:
        yield ()
        return

    def rec(j, blocks, kj):
        if j == n:
            yield tuple(tuple(b) for b in blocks)
            return
        nxt = j + 1
        blocks[kj].append(nxt)
        yield from rec(nxt, blocks, kj)
        blocks[kj].pop()
        blocks.insert(kj + 1, [nxt])
        yield from rec(nxt, blocks, kj + 1)
        del blocks[kj + 1]
        blocks.insert(0, [nxt])
        yield from rec(nxt, blocks, 0)
        del blocks[0]

    yield from rec(1, [[1]], 0)


def test_toggle_free_keeps_the_recursive_order():
    for n in range(9):
        assert list(toggle_free(n)) == list(reference_toggle_free(n))
    with pytest.raises(ValueError):
        list(toggle_free(-1))


def test_toggle_free_counts():
    assert [sum(1 for _ in toggle_free(n)) for n in range(1, 7)] == [
        1, 3, 9, 27, 81, 243]


def test_toggle_free_excluded_at_three():
    excluded = sorted(set(set_compositions(3)) - set(toggle_free(3)))
    assert excluded == sorted([
        ((1,), (3,), (2,)),
        ((2,), (1,), (3,)),
        ((1, 3), (2,)),
        ((2,), (1, 3)),
    ])


# -- straightening and permutations ---------------------------------------------


def ground_size(A):
    return sum(map(len, A))


def straighten(A):
    """The permutation w sending each element to its position when the
    blocks of A are laid out consecutively in block order: the slots that
    ``antipode._setcomp_table`` fills, which the set-composition references
    in ``test_kernels`` and ``test_antipode`` are built from.

    Returned as a tuple with ``w[j-1] == w(j)``.

    >>> straighten(((2,), (1,)))
    (2, 1)
    >>> inverse(straighten(((7, 8), (9, 10), (3, 4, 5, 6), (1,), (2,))))
    (7, 8, 9, 10, 3, 4, 5, 6, 1, 2)
    """
    w = [0] * ground_size(A)
    pos = 0
    for blk in A:
        for x in blk:
            pos += 1
            w[x - 1] = pos
    return tuple(w)


def test_straighten():
    assert straighten(((2,), (1,))) == (2, 1)
    assert straighten(((1, 2, 3),)) == (1, 2, 3)
    A = ((7, 8), (9, 10), (3, 4, 5, 6), (1,), (2,))
    assert inverse(straighten(A)) == (7, 8, 9, 10, 3, 4, 5, 6, 1, 2)


@given(setcomp_strategy())
def test_straighten_lays_blocks_out_consecutively(A):
    w = straighten(A)
    assert sorted(w) == list(range(1, ground_size(A) + 1))
    # reading the slots back in position order recovers the block layout
    assert inverse(w) == tuple(x for blk in A for x in blk)


def test_inverse_and_descents():
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert sorted(descents((4, 2, 9, 5, 8, 3, 1, 7, 6))) == [1, 3, 5, 6, 8]
    assert descents((1, 2, 3)) == set()
    assert descents((3, 2, 1)) == {1, 2}


@given(st.permutations(range(1, 8)))
def test_inverse_involution(w):
    w = tuple(w)
    assert inverse(inverse(w)) == w


def test_permutations_lexicographic():
    perms = list(permutations(3))
    assert perms == [(1, 2, 3), (1, 3, 2), (2, 1, 3),
                     (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert len(list(permutations(5))) == 120
