"""Coordinatewise maps between graded components.

The bit-mask operations move elements between a full word and the subword
selected by the 1-bits: inflation fills the gaps with the all-ones letter,
deflation pairs dropped letters against it, induction fills gaps with the
regular character, restriction pairs dropped letters against it.  The
set-composition brackets are the same mask functors along a refinement
A ≤ B: on the positions B keeps, the statistics of the finer A are the
masks that decide which letters survive, which are paired away, and where
marker letters are inserted.
"""

from __future__ import annotations

from .combinatorics import bc_bits, lc_bits, llc_bits, setcomp_refines
from .elements import TensorElement, _check_letters, expand_letters


def _popcount(bits):
    return sum(1 for b in bits if b)


def _extend(basis, bits, x, letter):
    """Write ``letter`` (a basis index or a coordinate tuple) at each
    0-bit, keeping the letters of x at the 1-bits."""
    if x.degree != _popcount(bits) + 1:
        raise ValueError("degree must be one more than the number of 1-bits")
    _check_letters(x.terms, basis.dim)
    out = TensorElement(len(bits) + 1)
    for word, coeff in x.terms.items():
        it = iter(word)
        entries = [next(it) if b else letter for b in bits]
        out.add_scaled(expand_letters(entries, coeff))
    return out


def _pair_away(basis, bits, x, pairings):
    """Drop the letters at 0-bits, multiplying by their entries in that
    position's table of ``pairings`` (one inner product per basis letter)."""
    if x.degree != len(bits) + 1:
        raise ValueError("degree must be len(bits)+1")
    _check_letters(x.terms, basis.dim)
    small = TensorElement(_popcount(bits) + 1)
    for word, coeff in x.terms.items():
        kept = []
        for b, pairing, letter in zip(bits, pairings, word):
            if b:
                kept.append(letter)
            else:
                coeff = coeff * pairing[letter]
                if not coeff:
                    break
        else:
            small.add_term(kept, coeff)
    return small


def inf_along(basis, bits, x):
    """Extend a degree-(k+1) element (k = number of 1-bits) to degree
    len(bits)+1 by writing the all-ones letter at each 0-bit."""
    return _extend(basis, bits, x, basis.one_index)


def def_along(basis, bits, x):
    """Drop the letters at 0-bits, pairing each against the all-ones
    character; inverse to :func:`inf_along` on its image."""
    return _pair_away(basis, bits, x, [basis.pairings(basis.one)] * len(bits))


def ind_along(basis, bits, x):
    """Extend by writing the regular character (expanded in the basis) at
    each 0-bit."""
    return _extend(basis, bits, x, basis.reg.coords)


def res_along(basis, bits, x):
    """Drop the letters at 0-bits, pairing each against the regular
    character."""
    return _pair_away(basis, bits, x, [basis.pairings(basis.reg)] * len(bits))


def pointwise_twist(basis, x, j, f):
    """Multiply coordinate j (1-based) of every word by the class function
    f, pointwise, expanding the result in the basis."""
    if not 1 <= j <= max(x.degree - 1, 0):
        raise ValueError("coordinate out of range")
    _check_letters(x.terms, basis.dim)
    out = TensorElement(x.degree)
    for word, coeff in x.terms.items():
        letter = word[j - 1]
        for k, ck in enumerate(f.coords):
            if not ck:
                continue
            for m, cm in enumerate(basis.pointwise_coords(letter, k)):
                if cm:
                    nw = word[:j - 1] + (m,) + word[j:]
                    out.add_term(nw, coeff * ck * cm)
    return out


def inf_bracket(basis, A, B, iota, x):
    """Refinement inflation: inflation by the letter iota along the
    positions B keeps (its lc_bits), with the lc_bits of the finer A there
    as the mask.  A keeps a subset of B's positions, since each block of
    A lies inside a block of B.

    x has degree sum(lc_bits(A)) + 1; the result has degree
    sum(lc_bits(B)) + 1.
    """
    if not setcomp_refines(A, B):
        raise ValueError("A must refine B")
    bits = [a for a, b in zip(lc_bits(A), lc_bits(B)) if b]
    return _extend(basis, bits, x, iota.coords)


def dn_bracket(basis, A, B, tau, alpha, beta, x):
    """Refinement descent: along the positions B keeps, deflation to the
    letters A keeps together (its bc_bits), pairing each other letter
    against alpha where A's llc_bits is set and against beta elsewhere;
    then inflation by tau wherever A still keeps a slot (its lc_bits).

    x has degree sum(lc_bits(B)) + 1; the result has degree
    sum(lc_bits(A)) + 1.
    """
    if not setcomp_refines(A, B):
        raise ValueError("A must refine B")
    lca, llca, bca = lc_bits(A), llc_bits(A), bc_bits(A)
    kept = [j for j, b in enumerate(lc_bits(B)) if b]
    pair_a, pair_b = basis.pairings(alpha), basis.pairings(beta)
    small = _pair_away(basis, [bca[j] for j in kept], x,
                       [pair_a if llca[j] else pair_b for j in kept])
    bits = [c for a, c in zip(lca, bca) if a]
    return _extend(basis, bits, small, tau.coords)
