"""Bit-mask inflation/deflation/induction/restriction and the
set-composition refinement brackets."""

import random
from fractions import Fraction
from itertools import product as cartesian

import pytest

from hopftower.combinatorics import (bc_bits, block_index, lc_bits, llc_bits,
                                     set_compositions, setcomp_refinements,
                                     setcomp_refines)
from hopftower.elements import (TensorElement, TensorSquare, basis_words,
                                expand_letters)
from hopftower.functors import (_pair_away, def_along, dn_bracket, ind_along,
                                inf_along, inf_bracket, pointwise_twist,
                                res_along)
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.theory import cyclic4, two_dim
from test_characters import morphism_tables
from test_kernels import assert_same


def all_bit_masks(n):
    return cartesian((0, 1), repeat=n)


def test_inf_along_fills_ones():
    t = two_dim(3)
    x = TensorElement(2, {(1,): 5})
    assert inf_along(t, (1, 0), x) == TensorElement(3, {(1, 0): 5})
    assert inf_along(t, (0, 1), x) == TensorElement(3, {(0, 1): 5})
    assert inf_along(t, (0, 0), TensorElement(1, {(): 1})) == TensorElement(
        3, {(0, 0): 1})
    with pytest.raises(ValueError):
        inf_along(t, (1, 1), x)


def test_def_along_pairs_against_ones():
    t = two_dim(3)
    # dropping a regm1 letter kills the term, dropping a one letter keeps it
    x = TensorElement(3, {(1, 0): 2, (1, 1): 7})
    assert def_along(t, (1, 0), x) == TensorElement(2, {(1,): 2})
    assert def_along(t, (0, 1), x) == TensorElement(2)
    with pytest.raises(ValueError):
        def_along(t, (1,), x)


def test_def_inverts_inf():
    for t in (two_dim(3), cyclic4()):
        for bits in all_bit_masks(3):
            k = sum(bits)
            for w in basis_words(t.dim, k + 1):
                x = TensorElement(k + 1, {w: 3})
                assert def_along(t, bits, inf_along(t, bits, x)) == x


def test_ind_along_fills_reg():
    t = two_dim(3)
    x = TensorElement(1, {(): 1})
    assert ind_along(t, (0,), x) == TensorElement(2, {(0,): 1, (1,): 1})
    got = ind_along(t, (0, 1), TensorElement(2, {(1,): 2}))
    assert got == TensorElement(3, {(0, 1): 2, (1, 1): 2})


def test_res_after_ind_scales_by_order():
    # <reg, reg> = |G|, once per filled slot
    for t in (two_dim(3), two_dim(5), cyclic4()):
        for bits in all_bit_masks(3):
            k = sum(bits)
            zeros = len(bits) - k
            for w in basis_words(t.dim, k + 1):
                x = TensorElement(k + 1, {w: 1})
                assert res_along(t, bits, ind_along(t, bits, x)) == (
                    t.order ** zeros * x)


def test_pointwise_twist():
    t = two_dim(3)
    x = TensorElement(3, {(1, 0): 1})
    assert pointwise_twist(t, x, 1, t.one) == x
    # regm1 . regm1 = 2*one + regm1 at q=3
    assert pointwise_twist(t, x, 1, t.basis_element(1)) == TensorElement(
        3, {(0, 0): 2, (1, 0): 1})
    assert pointwise_twist(t, x, 2, t.reg) == TensorElement(
        3, {(1, 0): 1, (1, 1): 1})
    with pytest.raises(ValueError):
        pointwise_twist(t, x, 3, t.one)


def test_induction_is_inflation_twisted_by_reg():
    """Filling slots with reg = inflating with ones then multiplying the
    new coordinates pointwise by reg, coordinatewise for every mask."""
    for t in (two_dim(3), cyclic4()):
        for bits in all_bit_masks(3):
            k = sum(bits)
            for w in basis_words(t.dim, k + 1):
                x = TensorElement(k + 1, {w: 1})
                via_inf = inf_along(t, bits, x)
                for j, b in enumerate(bits, start=1):
                    if not b:
                        via_inf = pointwise_twist(t, via_inf, j, t.reg)
                assert via_inf == ind_along(t, bits, x)


def test_restriction_is_deflation_of_reg_twist():
    """Twisting a letter pointwise by f and deflating it against the
    all-ones character pairs it against f, <chi_l f, 1> = <chi_l, f>: for
    f = reg that is restriction, for any f it is ``_pair_away`` with f's
    pairings (the left-hand side of ``check_morphism``, f = iota).  Each
    basis word is checked on its own."""
    rng = random.Random(17)
    for t in morphism_tables():
        fs = [t.reg] + [t.element([Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 7))
                                   for _ in range(t.dim)])
                        for _ in range(3)]
        for bits in all_bit_masks(3):
            n = len(bits) + 1
            tables = [[t.pairings(f)] * len(bits) for f in fs]
            for w in basis_words(t.dim, n):
                x = TensorElement(n, {w: 1})
                deflated = []
                for f, pairings in zip(fs, tables):
                    twisted = x
                    for j, b in enumerate(bits, start=1):
                        if not b:
                            twisted = pointwise_twist(t, twisted, j, f)
                    deflated.append(def_along(t, bits, twisted))
                    assert deflated[-1] == _pair_away(t, bits, x, pairings)
                assert deflated[0] == res_along(t, bits, x)


# -- refinement brackets --------------------------------------------------------


def test_inf_bracket_consecutive_blocks_is_the_product():
    """Two consecutive blocks insert iota exactly where the graded
    product does."""
    for ctx in (all_ones_context(two_dim(3)), induction_context(two_dim(3))):
        t = ctx.basis
        n = 4
        B = (tuple(range(1, n + 1)),)
        for k in range(1, n):
            A = (tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))
            for u in basis_words(t.dim, k):
                for v in basis_words(t.dim, n - k):
                    x = TensorElement(k, {u: 1})
                    y = TensorElement(n - k, {v: 1})
                    flat = TensorElement(n - 1, {u + v: 1})
                    assert inf_bracket(t, A, B, ctx.iota, flat) == ctx.product(
                        x, y)


def test_inf_bracket_identity_refinement():
    t = two_dim(3)
    A = ((1, 2), (3,))
    x = TensorElement(2, {(1,): 4})
    assert inf_bracket(t, A, A, t.one, x) == x
    with pytest.raises(ValueError):
        inf_bracket(t, ((3,), (1, 2)), ((1, 2), (3,)), t.one, x)


def test_dn_bracket_two_blocks_matches_coproduct():
    """Splitting the full block in two reproduces the coproduct term of
    the corresponding subset, after unshuffling sides.

    Over two_dim(3) the degree-3 coproduct is the same with alpha and beta
    swapped, so only cyclic4 (6 of its 9 words change) pins which of the
    two pairs away at each slot."""
    for ctx, swap_changes in ((all_ones_context(two_dim(3)), 0),
                              (induction_context(two_dim(3)), 0),
                              (induction_context(cyclic4()), 6)):
        t = ctx.basis
        n = 3
        B = (tuple(range(1, n + 1)),)
        swapped = HopfContext(t, ctx.iota, ctx.beta, ctx.alpha)
        changed = 0
        for w in basis_words(t.dim, n):
            x = TensorElement(n, {w: 1})
            expected = TensorSquare.tensor(x, ctx.unit()) + TensorSquare.tensor(
                ctx.unit(), x)
            for mask in range(1, 2 ** n - 1):
                left = tuple(j for j in range(1, n + 1) if (mask >> (j - 1)) & 1)
                right = tuple(j for j in range(1, n + 1) if not (mask >> (j - 1)) & 1)
                A = (left, right)
                flat = dn_bracket(t, A, B, ctx.iota, ctx.alpha, ctx.beta, x)
                # entries of the flat word belong to the side of their slot
                idx = block_index(A)
                slots = [j for j in range(1, n) if lc_bits(A)[j - 1]]
                for word, coeff in flat.terms.items():
                    lw = tuple(l for j, l in zip(slots, word) if idx[j] == 0)
                    rw = tuple(l for j, l in zip(slots, word) if idx[j] == 1)
                    expected.add_term(
                        ((len(left), lw), (len(right), rw)), coeff)
            assert expected == ctx.coproduct(x)
            changed += swapped.coproduct(x) != expected
        assert changed == swap_changes


def test_dn_bracket_validates():
    t = two_dim(3)
    x = TensorElement(3, {(0, 0): 1})
    with pytest.raises(ValueError):
        dn_bracket(t, ((1,), (2,)), ((1, 2, 3),), t.one, t.one, t.one, x)


def test_brackets_compose_along_refinement_chains():
    """inf along A->B then B->C agrees with inf along A->C when iota is
    the all-ones element (the middle statistics cancel)."""
    t = two_dim(3)
    C = ((1, 2, 3),)
    for B in set_compositions(3):
        for A in set_compositions(3):
            if not (setcomp_refines(A, B) and setcomp_refines(B, C)):
                continue
            k = sum(lc_bits(A)) + 1
            for w in basis_words(t.dim, k):
                x = TensorElement(k, {w: 1})
                two_step = inf_bracket(t, B, C, t.one,
                                       inf_bracket(t, A, B, t.one, x))
                assert two_step == inf_bracket(t, A, C, t.one, x)


# -- the bracket walks the mask functors replaced ---------------------------------


def reference_inf_bracket(basis, A, B, iota, x):
    """The position walk ``inf_bracket`` was before it became an
    inflation along B's kept positions."""
    lca, lcb = lc_bits(A), lc_bits(B)
    out = TensorElement(sum(lcb) + 1)
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


def reference_dn_bracket(basis, A, B, tau, alpha, beta, x):
    """The position walk ``dn_bracket`` was before it became a deflation
    followed by an inflation."""
    lca, llca, bca = lc_bits(A), llc_bits(A), bc_bits(A)
    lcb = lc_bits(B)
    pair_a = basis.pairings(alpha)
    pair_b = basis.pairings(beta)
    out = TensorElement(sum(lca) + 1)
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


def test_brackets_match_the_position_walks():
    """On every refinement pair A <= B through degree 4, both brackets
    give the walks' term dicts, on dense elements whose coefficients
    cancel in part."""
    rng = random.Random(7)

    def dense(dim, degree):
        return TensorElement(degree, {
            w: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 4))
            for w in basis_words(dim, degree)})

    for ctx in (induction_context(two_dim(3)), induction_context(cyclic4())):
        t = ctx.basis
        for n in range(5):
            for B in set_compositions(n):
                for A in setcomp_refinements(B):
                    x = dense(t.dim, sum(lc_bits(A)) + 1)
                    assert_same(inf_bracket(t, A, B, ctx.iota, x),
                                reference_inf_bracket(t, A, B, ctx.iota, x))
                    x = dense(t.dim, sum(lc_bits(B)) + 1)
                    for tau, alpha, beta in ((ctx.iota, ctx.alpha, ctx.beta),
                                             (t.one, ctx.beta, ctx.alpha)):
                        assert_same(
                            dn_bracket(t, A, B, tau, alpha, beta, x),
                            reference_dn_bracket(t, A, B, tau, alpha, beta, x))
