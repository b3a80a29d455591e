"""Integer compositions, set compositions, permutation helpers, and
descent classes.

Compositions of n are tuples of positive integers summing to n.  They are
identified with binary words of length n-1 in two complementary ways:
``boundary_bits`` marks each internal part boundary with a 1, while
``interior_bits`` marks it with a 0.  Set compositions of {1, ..., n} are
tuples of pairwise disjoint nonempty blocks (each block a sorted tuple)
whose union is {1, ..., n}; the order of the blocks matters.
"""

from __future__ import annotations

from itertools import permutations as _lex_permutations, product as _cartesian


# ---------------------------------------------------------------------------
# integer compositions


def compositions(n):
    """Yield the compositions of n, ordered by boundary bits read as a
    binary counter.

    >>> list(compositions(3))
    [(3,), (2, 1), (1, 2), (1, 1, 1)]
    >>> list(compositions(0))
    [()]
    >>> len(list(compositions(6)))
    32
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        yield composition_from_boundary_bits(
            tuple((mask >> (n - 2 - i)) & 1 for i in range(n - 1)))


def _check_composition(mu):
    """``mu`` as a tuple, after checking that its parts are positive ints."""
    mu = tuple(mu)
    if any(not isinstance(p, int) or p <= 0 for p in mu):
        from .theory import TheoryError
        raise TheoryError(f"not a composition: {mu!r}")
    return mu


def boundary_bits(mu):
    """Binary word of length n-1 with a 1 at each internal boundary of mu.

    >>> boundary_bits((2, 2))
    (0, 1, 0)
    >>> boundary_bits((4,))
    (0, 0, 0)
    >>> boundary_bits((1, 1, 1))
    (1, 1)
    """
    mu = _check_composition(mu)
    n = sum(mu)
    cuts = set(partial_sums(mu))
    return tuple(1 if j in cuts else 0 for j in range(1, n))


def interior_bits(mu):
    """Binary word of length n-1 with a 0 at each internal boundary of mu.

    >>> interior_bits((2, 2))
    (1, 0, 1)
    """
    return tuple(1 - b for b in boundary_bits(mu))


def composition_from_boundary_bits(bits):
    """Inverse of :func:`boundary_bits`.

    >>> composition_from_boundary_bits((0, 1, 0))
    (2, 2)
    >>> composition_from_boundary_bits(())
    (1,)
    """
    parts = []
    size = 1
    for b in bits:
        if b:
            parts.append(size)
            size = 1
        else:
            size += 1
    parts.append(size)
    return tuple(parts)


def partial_sums(mu):
    """The internal partial sums of mu (the boundary positions).

    >>> partial_sums((2, 3, 1))
    (2, 5)
    """
    out = []
    total = 0
    for part in mu[:-1]:
        total += part
        out.append(total)
    return tuple(out)


def conjugate(mu):
    """The composition whose boundary bits are the complement of mu's.

    >>> conjugate((2, 2))
    (1, 2, 1)
    >>> conjugate(conjugate((3, 1, 2)))
    (3, 1, 2)
    """
    return composition_from_boundary_bits(interior_bits(mu))


def concat(mu, nu):
    """Concatenation: inserts a boundary between mu and nu.

    >>> concat((2, 1), (3,))
    (2, 1, 3)
    """
    return tuple(mu) + tuple(nu)


def smash(mu, nu):
    """Near-concatenation: the last part of mu absorbs the first of nu.

    >>> smash((2, 1), (3,))
    (2, 4)
    """
    if not mu:
        return tuple(nu)
    if not nu:
        return tuple(mu)
    return tuple(mu[:-1]) + (mu[-1] + nu[0],) + tuple(nu[1:])


def refinements(mu):
    """Yield every composition refining mu (mu itself included), in the
    order of ``compositions``: each part split as ``compositions`` splits
    it, the first part's boundary bits the most significant.

    >>> sorted(refinements((2, 1)))
    [(1, 1, 1), (2, 1)]
    """
    for pieces in _cartesian(*map(compositions, _check_composition(mu))):
        yield sum(pieces, ())


def coarsenings(mu):
    """Yield every composition that mu refines (mu itself included), in
    the order of ``compositions``: each boundary of mu dropped (0) or kept
    (1), the first one the most significant.

    >>> sorted(coarsenings((1, 2)))
    [(1, 2), (3,)]
    """
    mu = _check_composition(mu)
    for keep in _cartesian((0, 1), repeat=max(len(mu) - 1, 0)):
        parts = list(mu[:1])
        for part, kept in zip(mu[1:], keep):
            if kept:
                parts.append(part)
            else:
                parts[-1] += part
        yield tuple(parts)


# ---------------------------------------------------------------------------
# set compositions


def _ordered_set_compositions(elements):
    # all ways to arrange `elements` into an ordered sequence of nonempty
    # blocks; first block ranges over nonempty subsets by increasing bitmask
    if not elements:
        yield ()
        return
    for mask in range(1, 1 << len(elements)):
        block, rest = [], []
        for x in elements:  # bit i of mask puts the i-th element in block
            (block if mask & 1 else rest).append(x)
            mask >>= 1
        block = (tuple(block),)
        for tail in _ordered_set_compositions(tuple(rest)):
            yield block + tail


def set_compositions(n):
    """Yield the ordered set partitions of {1, ..., n}.

    >>> list(set_compositions(2))
    [((1,), (2,)), ((2,), (1,)), ((1, 2),)]
    >>> [len(list(set_compositions(n))) for n in range(5)]
    [1, 1, 3, 13, 75]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _ordered_set_compositions(tuple(range(1, n + 1)))


def block_index(A):
    """Map each element of the ground set to the index of its block."""
    return {x: k for k, blk in enumerate(A) for x in blk}


def lc_bits(A):
    """For j = 1..n-1: 1 when j is not the largest element of its block.

    >>> lc_bits(((1, 3, 4, 5, 7), (6,), (8, 9), (2, 10)))
    (1, 1, 1, 1, 1, 0, 0, 1, 0)
    """
    idx = block_index(A)
    mx = [max(b) for b in A]
    return tuple(1 if mx[idx[j]] != j else 0 for j in range(1, len(idx)))


def llc_bits(A):
    """For j = 1..n-1: 1 when j's block comes no later than (j+1)'s block.

    >>> llc_bits(((1, 3, 4, 5, 7), (6,), (8, 9), (2, 10)))
    (1, 0, 1, 1, 1, 0, 1, 1, 1)
    """
    idx = block_index(A)
    return tuple(1 if idx[j] <= idx[j + 1] else 0 for j in range(1, len(idx)))


def bc_bits(A):
    """For j = 1..n-1: 1 when j and j+1 share a block.

    >>> bc_bits(((1, 3, 4, 5, 7), (6,), (8, 9), (2, 10)))
    (0, 0, 1, 1, 0, 0, 0, 1, 0)
    """
    idx = block_index(A)
    return tuple(1 if idx[j] == idx[j + 1] else 0 for j in range(1, len(idx)))


def setcomp_refines(A, B):
    """True when A lists, in order, an ordered set composition of each
    block of B.

    >>> setcomp_refines(((2,), (1,), (3,)), ((1, 2), (3,)))
    True
    >>> setcomp_refines(((3,), (1,), (2,)), ((1, 2), (3,)))
    False
    >>> setcomp_refines(((1, 2), (3,)), ((1, 2), (3,)))
    True
    """
    ai = 0
    for target in B:
        tset = set(target)
        seen = set()
        while seen != tset:
            if ai >= len(A):
                return False
            blk = set(A[ai])
            if not blk <= tset or blk & seen:
                return False
            seen |= blk
            ai += 1
    return ai == len(A)


def setcomp_refinements(B):
    """Yield every A with ``setcomp_refines(A, B)``.

    >>> len(list(setcomp_refinements(((1, 2), (3,)))))
    3
    """
    def rec(i):
        if i == len(B):
            yield ()
            return
        for head in _ordered_set_compositions(tuple(B[i])):
            for tail in rec(i + 1):
                yield head + tail
    yield from rec(0)


def toggle_free(n):
    """Yield the toggle-free set compositions of {1, ..., n}.

    Starting from the block (1,), each of 2, ..., n in turn joins the
    block of its predecessor (move 0), opens a new block right after that
    block (move 1), or opens a new first block (move 2).  The 3^(n-1)
    move words are listed in lexicographic order.

    >>> sorted(toggle_free(2)) == sorted(set_compositions(2))
    True
    >>> len(list(toggle_free(4)))
    27
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    for moves in _cartesian(range(3), repeat=n - 1):
        blocks, k = [[1]], 0
        for nxt, move in enumerate(moves, start=2):
            if move == 0:
                blocks[k].append(nxt)
            else:
                k = k + 1 if move == 1 else 0
                blocks.insert(k, [nxt])
        yield tuple(map(tuple, blocks))


# ---------------------------------------------------------------------------
# permutations (one-line notation, 1-based)


def inverse(w):
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def descents(w):
    """The positions i with w(i) > w(i+1).

    >>> sorted(descents((4, 2, 9, 5, 8, 3, 1, 7, 6)))
    [1, 3, 5, 6, 8]
    """
    return {i for i in range(1, len(w)) if w[i - 1] > w[i]}


def permutations(n):
    """All permutations of {1, ..., n} in lexicographic one-line order."""
    return _lex_permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# descent classes


def descent_embedding(mu):
    """The descent class of mu: the permutations of sum(mu) letters whose
    inverse has descent set the partial sums of mu, as a tuple in
    lexicographic one-line order.  The classes over all compositions of n
    partition the symmetric group.  sum(mu) is at most 7, so at most
    5,040 permutations are scanned."""
    mu = _check_composition(mu)
    if not mu:
        from .theory import TheoryError
        raise TheoryError("composition must be nonempty")
    n = sum(mu)
    if n > 7:
        raise ValueError(f"degree {n} exceeds the bound 7 for descent classes")
    target = set(partial_sums(mu))
    return tuple(w for w in permutations(n)
                 if descents(inverse(w)) == target)
