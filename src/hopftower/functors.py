"""Coordinatewise maps between graded components.

The bit-mask operations move elements between a full word and the subword
selected by the 1-bits: inflation fills the gaps with the all-ones letter,
deflation pairs dropped letters against it, induction fills gaps with the
regular character, restriction pairs dropped letters against it.  The
set-composition brackets are the refinement versions used by the coproduct
and antipode: statistics of the finer set composition decide which letters
survive, which are paired away, and where marker letters are inserted.
"""

from __future__ import annotations

from .combinatorics import bc_bits, lc_bits, llc_bits, setcomp_refines
from .elements import TensorElement, expand_letters


def _popcount(bits):
    return sum(1 for b in bits if b)


def _extend(bits, x, letter):
    """Write ``letter`` (a basis index or a coordinate tuple) at each
    0-bit, keeping the letters of x at the 1-bits."""
    if x.degree != _popcount(bits) + 1:
        raise ValueError("degree must be one more than the number of 1-bits")
    out = TensorElement(len(bits) + 1)
    for word, coeff in x.terms.items():
        it = iter(word)
        entries = [next(it) if b else letter for b in bits]
        out.add_scaled(expand_letters(entries, coeff))
    return out


def _pair_away(bits, x, pairing):
    """Drop the letters at 0-bits, multiplying by their entries in
    ``pairing`` (one inner product per basis letter)."""
    if x.degree != len(bits) + 1:
        raise ValueError("degree must be len(bits)+1")
    small = TensorElement(_popcount(bits) + 1)
    for word, coeff in x.terms.items():
        kept = []
        for b, letter in zip(bits, word):
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
    return _extend(bits, x, basis.one_index)


def def_along(basis, bits, x):
    """Drop the letters at 0-bits, pairing each against the all-ones
    character; inverse to :func:`inf_along` on its image."""
    return _pair_away(bits, x, basis.pairings(basis.one))


def ind_along(basis, bits, x):
    """Extend by writing the regular character (expanded in the basis) at
    each 0-bit."""
    return _extend(bits, x, basis.reg.coords)


def res_along(basis, bits, x):
    """Drop the letters at 0-bits, pairing each against the regular
    character."""
    return _pair_away(bits, x, basis.pairings(basis.reg))


def pointwise_twist(basis, x, j, f):
    """Multiply coordinate j (1-based) of every word by the class function
    f, pointwise, expanding the result in the basis."""
    if not 1 <= j <= max(x.degree - 1, 0):
        raise ValueError("coordinate out of range")
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
    """Refinement inflation: letters of x sit at the positions where the
    finer set composition A keeps them; positions freed when passing to the
    coarser B receive the letter iota.

    x has degree sum(lc_bits(A)) + 1; the result has degree
    sum(lc_bits(B)) + 1.
    """
    if not setcomp_refines(A, B):
        raise ValueError("A must refine B")
    lca, lcb = lc_bits(A), lc_bits(B)
    if x.degree != _popcount(lca) + 1:
        raise ValueError("element degree does not match A")
    out = TensorElement(_popcount(lcb) + 1)
    for word, coeff in x.terms.items():
        it = iter(word)
        entries = []
        for a_bit, b_bit in zip(lca, lcb):
            if a_bit:
                entries.append(next(it))
            elif b_bit:
                entries.append(iota.coords)
        out.add_scaled(expand_letters(entries, coeff))
    return out


def dn_bracket(basis, A, B, tau, alpha, beta, x):
    """Refinement descent: letters of a degree-(sum(lc_bits(B))+1) element
    either survive (when A keeps j and j+1 together), or are paired away
    against alpha/beta (by the weak statistic of A) with a tau marker
    emitted when A still needs a letter at that slot.
    """
    if not setcomp_refines(A, B):
        raise ValueError("A must refine B")
    lca, llca, bca = lc_bits(A), llc_bits(A), bc_bits(A)
    lcb = lc_bits(B)
    if x.degree != _popcount(lcb) + 1:
        raise ValueError("element degree does not match B")
    pair_a = basis.pairings(alpha)
    pair_b = basis.pairings(beta)
    out = TensorElement(_popcount(lca) + 1)
    for word, coeff in x.terms.items():
        it = iter(word)
        entries = []
        dead = False
        for j in range(len(lca)):
            if not lcb[j]:
                continue
            letter = next(it)
            if bca[j]:
                entries.append(letter)
                continue
            coeff = coeff * (pair_a[letter] if llca[j] else pair_b[letter])
            if not coeff:
                dead = True
                break
            if lca[j]:
                entries.append(tau.coords)
        if not dead:
            out.add_scaled(expand_letters(entries, coeff))
    return out
