"""Graded product, coproduct, context validation, the free-generator
factorization, and word reversal as a Hopf anti-automorphism."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopftower.antipode import antipode_closed
from hopftower.combinatorics import compositions
from hopftower.elements import TensorElement, TensorSquare
from hopftower.hopf import (HopfContext, IotaNotBasisElement, PairingNotOne,
                            all_ones_context, induction_context)
from hopftower.theory import cyclic4, two_dim
from test_characters import negative_coproduct_contexts


def ones_ctx(q=3):
    return all_ones_context(two_dim(q))


def ind_ctx(q=3):
    return induction_context(two_dim(q))


def word(degree, letters, coeff=1):
    return TensorElement(degree, {tuple(letters): coeff})


# -- context validation -------------------------------------------------------


def test_example_contexts_validate():
    for q in (2, 3, 5):
        c1 = ones_ctx(q)
        assert c1.iota == c1.alpha == c1.beta == two_dim(q).one
        c2 = ind_ctx(q)
        assert c2.iota == two_dim(q).reg
        assert c2.iota.inner(c2.alpha) == 1
        assert c2.iota.inner(c2.beta) == 1


def test_pairing_not_one():
    t = two_dim(3)
    with pytest.raises(PairingNotOne) as err:
        HopfContext(t, t.reg, t.reg, t.one)
    assert err.value.which == "alpha"
    assert err.value.value == 3
    assert str(err.value) == "<iota,alpha> = 3, expected 1"
    with pytest.raises(PairingNotOne) as err:
        HopfContext(t, t.reg, t.one, 2 * t.one)
    assert err.value.which == "beta"
    assert err.value.value == 2


def test_unchecked_skips_validation():
    t = two_dim(3)
    ctx = HopfContext.unchecked(t, t.reg, t.reg, t.one)
    assert ctx.iota == t.reg  # constructed despite <iota,alpha> = 3


def test_context_equality_and_hash():
    assert ones_ctx() == ones_ctx()
    assert ones_ctx() != ind_ctx()
    assert len({ones_ctx(), ones_ctx(), ind_ctx()}) == 2


def test_context_is_hashed_once(monkeypatch):
    """A context hashes its basis and triple once, however often a memo
    looks it up; equal contexts still hash equal."""
    real, keyed = HopfContext._key, []

    def counted(self):
        keyed.append(self)
        return real(self)

    monkeypatch.setattr(HopfContext, "_key", counted)
    a, b = ind_ctx(), ind_ctx()
    assert hash(a) == hash(b) == hash(a) == hash(b)
    assert len(keyed) == 2
    assert {a: 1}[b] == 1
    t = two_dim(3)
    assert hash(HopfContext.unchecked(t, t.reg, t.one, t.one)) == hash(
        HopfContext.unchecked(two_dim(3), t.reg, t.one, t.one))


def test_context_rejects_foreign_elements():
    with pytest.raises(ValueError):
        HopfContext(two_dim(3), two_dim(5).one, two_dim(3).one, two_dim(3).one)


# -- product ------------------------------------------------------------------


def test_product_inserts_iota():
    x, y = word(2, [1]), word(2, [0])
    # iota = one: a single inserted letter
    assert ones_ctx().product(x, y) == word(4, [1, 0, 0])
    # iota = reg = one + regm1: two branches
    assert ind_ctx().product(x, y) == TensorElement(
        4, {(1, 0, 0): 1, (1, 1, 0): 1})


def test_product_unit_and_scalars():
    ctx = ones_ctx()
    x = word(3, [0, 1], 5)
    assert ctx.product(ctx.unit(), x) == x
    assert ctx.product(x, ctx.unit()) == x
    assert ctx.product(ctx.unit(Fraction(1, 2)), x) == word(
        3, [0, 1], Fraction(5, 2))
    assert ctx.product_many([]) == ctx.unit()


def test_product_degree_one_is_free_of_letters():
    ctx = ones_ctx()
    e = word(1, [])
    assert ctx.product(e, e) == word(2, [0])
    assert ctx.product(ctx.product(e, e), e) == word(3, [0, 0])


def test_product_associative_spot():
    for ctx in (ones_ctx(), ind_ctx(5)):
        x, y, z = word(2, [1]), word(3, [0, 1]), word(2, [0])
        assert ctx.product(ctx.product(x, y), z) == ctx.product(
            x, ctx.product(y, z))


# -- coproduct ----------------------------------------------------------------


def test_counit():
    ctx = ones_ctx()
    assert ctx.counit(ctx.unit(7)) == 7
    assert ctx.counit(word(2, [0])) == 0


def test_coproduct_degree_zero_and_one():
    ctx = ones_ctx()
    assert ctx.coproduct(ctx.unit()) == TensorSquare(
        {((0, ()), (0, ())): 1})
    e = word(1, [])
    assert ctx.coproduct(e) == (TensorSquare.tensor(e, ctx.unit())
                                + TensorSquare.tensor(ctx.unit(), e))


def test_coproduct_degree_two_middle_coefficient():
    """The middle term carries <letter,alpha> + <letter,beta>."""
    ctx = ones_ctx()
    x = word(2, [0])
    ends = (TensorSquare.tensor(x, ctx.unit())
            + TensorSquare.tensor(ctx.unit(), x))
    e = word(1, [])
    assert ctx.coproduct(x) == ends + 2 * TensorSquare.tensor(e, e)
    # a regm1 letter pairs to zero with the all-ones element on both sides
    y = word(2, [1])
    assert ctx.coproduct(y) == (TensorSquare.tensor(y, ctx.unit())
                                + TensorSquare.tensor(ctx.unit(), y))


def test_coproduct_degree_three_worked_examples():
    ctx = ones_ctx()
    unit, e = ctx.unit(), word(1, [])

    x = word(3, [0, 1])
    expect = (TensorSquare.tensor(x, unit) + TensorSquare.tensor(unit, x)
              + TensorSquare.tensor(e, word(2, [1]))
              + TensorSquare.tensor(word(2, [1]), e))
    assert ctx.coproduct(x) == expect

    y = word(3, [0, 0])
    expect = (TensorSquare.tensor(y, unit) + TensorSquare.tensor(unit, y)
              + 3 * TensorSquare.tensor(e, word(2, [0]))
              + 3 * TensorSquare.tensor(word(2, [0]), e))
    assert ctx.coproduct(y) == expect


def test_coproduct_is_symmetric_for_all_ones_context():
    for q in (2, 3):
        ctx = ones_ctx(q)
        for n in range(5):
            for w in ctx.basis_words(n):
                cop = ctx.coproduct(word(n, w))
                flipped = TensorSquare(
                    {(r, l): c for (l, r), c in cop.terms.items()})
                assert cop == flipped


def test_square_product():
    ctx = ones_ctx()
    e = word(1, [])
    s = TensorSquare.tensor(e, e)
    assert ctx.square_product(s, s) == TensorSquare.tensor(
        word(2, [0]), word(2, [0]))


def test_compatibility_spot():
    for ctx in (ones_ctx(), ind_ctx()):
        x, y = word(2, [1]), word(2, [0])
        assert ctx.coproduct(ctx.product(x, y)) == ctx.square_product(
            ctx.coproduct(x), ctx.coproduct(y))


# -- primitivity --------------------------------------------------------------


def test_is_primitive():
    ctx = ones_ctx()
    assert ctx.is_primitive(word(1, []))
    assert not ctx.is_primitive(ctx.unit())  # unit coproduct is not doubled
    assert not ctx.is_primitive(word(2, [0]))
    for n in range(2, 6):
        assert ctx.is_primitive(word(n, [1] * (n - 1)))


# -- dimensions ---------------------------------------------------------------


def test_component_dimensions():
    for t, d in ((two_dim(3), 2), (cyclic4(), 3)):
        ctx = all_ones_context(t)
        assert len(list(ctx.basis_words(0))) == 1
        for n in range(1, 7):
            assert len(list(ctx.basis_words(n))) == d ** (n - 1)


def test_dimension_matches_generator_count():
    """Degree-n words are counted by compositions weighted with
    iota-free generator counts: sum over mu of prod (d-1)^(mu_i - 1)."""
    for d in (2, 3):
        for n in range(1, 7):
            total = 0
            for mu in compositions(n):
                prod = 1
                for p in mu:
                    prod *= (d - 1) ** (p - 1)
                total += prod
            assert total == d ** (n - 1)


# -- generators ---------------------------------------------------------------


def test_pivot_and_basis_letter_flag():
    assert ones_ctx().pivot == 0
    assert ones_ctx().iota_is_basis_letter
    assert ind_ctx().pivot == 0
    assert not ind_ctx().iota_is_basis_letter


def test_factor_into_generators_examples():
    ctx = ones_ctx()
    assert ctx.factor_into_generators((1, 0, 1, 1)) == ((1,), (1, 1))
    assert ctx.factor_into_generators((1, 1)) == ((1, 1),)
    assert ctx.factor_into_generators(()) == ((),)
    assert ctx.factor_into_generators((0, 0)) == ((), (), ())


def test_factorization_round_trip():
    for ctx in (ones_ctx(), ind_ctx()):
        for n in range(1, 5):
            for w in ctx.basis_words(n):
                segments = ctx.factor_into_generators(w)
                assert all(ctx.pivot not in seg for seg in segments)
                assert ctx.multiply_generators(segments) == (
                    ctx.working_word_element(w))


def test_working_word_element_expands_iota():
    ctx = ind_ctx()
    assert ctx.working_word_element((0,)) == TensorElement(
        2, {(0,): 1, (1,): 1})
    assert ctx.working_word_element((1,)) == word(2, [1])
    assert ones_ctx().working_word_element((0, 1)) == word(3, [0, 1])


def test_strict_factorization_requires_basis_iota():
    ones_ctx().factor_into_generators((0, 1), strict=True)
    with pytest.raises(IotaNotBasisElement):
        ind_ctx().factor_into_generators((0, 1), strict=True)
    # a zero iota has no letter to stand for it
    basis = two_dim(3)
    zero = HopfContext.unchecked(basis, 0 * basis.one, basis.one, basis.one)
    with pytest.raises(IotaNotBasisElement, match="iota is zero"):
        zero.factor_into_generators((0, 1))


# -- word reversal ------------------------------------------------------------


def reverse(x):
    """rho: x with the letters of every word reversed."""
    return TensorElement(x.degree, {w[::-1]: c for w, c in x.terms.items()})


@st.composite
def valid_triples(draw):
    """A context on two_dim(3) or cyclic4: iota reg, one or a vector of
    small ints, and alpha and beta vectors of small ints, each scaled to
    pair to 1 with iota."""
    basis = draw(st.sampled_from((two_dim(3), cyclic4())))
    ints = st.lists(st.integers(-3, 3), min_size=basis.dim,
                    max_size=basis.dim).map(basis.element)
    iota = draw(st.one_of(st.just(basis.reg), st.just(basis.one), ints))
    pair = []
    for e in (draw(ints), draw(ints)):
        assume(iota.inner(e))
        pair.append(e / iota.inner(e))
    return HopfContext(basis, iota, *pair)


@settings(max_examples=40, deadline=None)
@given(valid_triples())
@example(negative_coproduct_contexts()[0])
@example(negative_coproduct_contexts()[1])
def test_word_reversal_is_a_hopf_anti_automorphism(ctx):
    """On every basis word up to degree 5 (4 on cyclic4): Δ∘ρ = (ρ⊗ρ)∘τ∘Δ,
    S∘ρ = ρ∘S by the closed route, and ρ(x·y) = ρ(y)·ρ(x).  One kernel
    against itself under a symmetry, so a defect that every route shares
    shows here."""
    top = 5 if ctx.basis.dim == 2 else 4
    words = [TensorElement(n, {w: 1}) for n in range(top + 1)
             for w in ctx.basis_words(n)]
    for x in words:
        swapped = TensorSquare({((rd, rw[::-1]), (ld, lw[::-1])): c
                                for ((ld, lw), (rd, rw)), c
                                in ctx.coproduct(x).terms.items()})
        assert ctx.coproduct(reverse(x)) == swapped, x
        assert antipode_closed(ctx, reverse(x)) == reverse(
            antipode_closed(ctx, x)), x
    for x, y in itertools.product(words, repeat=2):
        if x.degree + y.degree <= top:
            assert reverse(ctx.product(x, y)) == ctx.product(
                reverse(y), reverse(x)), (x, y)
