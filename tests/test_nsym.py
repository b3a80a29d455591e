"""Distinguished families over rank-2 theories: h/ribbon/primitive
elements, their rewriting rules, antipode corollaries, and descent
classes."""

import gc
import weakref

import pytest

from hopftower.antipode import antipode_closed
from hopftower.combinatorics import (boundary_bits, coarsenings, compositions,
                                     conjugate, interior_bits)
from hopftower.elements import TensorElement
from hopftower.functors import ind_along
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.nsym import (InconsistentTag, antipode_corollaries,
                            coproduct_constants, descent_embedding,
                            expand_in_kind, expand_square_in_kind,
                            nsym_element, product_constants,
                            shuffle_dual_complement, tau_iota_element,
                            verify_nsym_rules)
from hopftower.theory import TheoryError, cyclic4, two_dim


def ones_ctx(q=3):
    return all_ones_context(two_dim(q))


def ind_ctx(q=3):
    return induction_context(two_dim(q))


# -- building blocks -----------------------------------------------------------


def test_tau_iota_element_basics():
    t = two_dim(3)
    x = tau_iota_element(t, t.element((0, 1)), t.one, (3,))
    assert x == TensorElement(3, {(1, 1): 1})
    assert tau_iota_element(t, t.one, t.one, ()) == TensorElement(0, {(): 1})
    with pytest.raises(TheoryError):
        tau_iota_element(t, t.one, t.one, (0,))
    with pytest.raises(TheoryError):
        tau_iota_element(t, t.one, t.one, (2, -1))


def test_tau_iota_swap_conjugates():
    t = two_dim(3)
    tau, iota = t.element((0, 1)), t.reg
    for n in range(1, 6):
        for mu in compositions(n):
            assert tau_iota_element(t, tau, iota, mu) == tau_iota_element(
                t, iota, tau, conjugate(mu))


def test_shuffle_dual_complement_of_all_ones():
    assert shuffle_dual_complement(ones_ctx()).coords == (0, 1)
    ctx = HopfContext.unchecked(two_dim(3), two_dim(3).one, two_dim(3).one,
                                0 * two_dim(3).one)
    with pytest.raises(InconsistentTag):
        shuffle_dual_complement(ctx)


# -- the three families --------------------------------------------------------


def test_ribbon_words_in_induction_context():
    ctx = ind_ctx()
    for n in range(1, 6):
        for mu in compositions(n):
            x = nsym_element(ctx, "ribbon", mu)
            assert dict(x.terms) == {boundary_bits(mu): 1}


def test_h_is_induced_from_all_ones():
    ctx = ind_ctx()
    t = ctx.basis
    for n in range(1, 6):
        for mu in compositions(n):
            h = nsym_element(ctx, "h_basis", mu)
            assert h == tau_iota_element(t, t.one, t.reg, mu)
            bits = interior_bits(mu)
            ones = TensorElement(sum(bits) + 1, {(0,) * sum(bits): 1})
            assert h == ind_along(t, bits, ones)


def test_h_is_coarsening_sum_of_ribbons():
    ctx = ind_ctx(5)
    for n in range(1, 6):
        for mu in compositions(n):
            want = TensorElement(n)
            for nu in coarsenings(mu):
                want += nsym_element(ctx, "ribbon", nu)
            assert nsym_element(ctx, "h_basis", mu) == want


def test_primitive_family():
    ctx = ones_ctx()
    for n in range(1, 6):
        p = nsym_element(ctx, "shuffle_dual_primitive", (n,))
        assert p == TensorElement(n, {(1,) * (n - 1): 1})
        assert ctx.is_primitive(p)


def test_family_gates():
    with pytest.raises(InconsistentTag):
        nsym_element(ones_ctx(), "h_basis", (2,))  # alpha == beta
    with pytest.raises(InconsistentTag):
        nsym_element(ones_ctx(), "ribbon", (2,))
    with pytest.raises(InconsistentTag):
        nsym_element(ind_ctx(), "shuffle_dual_primitive", (2,))
    with pytest.raises(InconsistentTag):
        nsym_element(all_ones_context(cyclic4()), "h_basis", (2,))
    with pytest.raises(TheoryError):
        nsym_element(ind_ctx(), "power_sum", (2,))


# -- expansions ----------------------------------------------------------------


def test_expansion_round_trip():
    cases = ((ones_ctx(), ("shuffle_dual_primitive",)),
             (ind_ctx(), ("h_basis", "ribbon")))
    for ctx, kinds in cases:
        for kind in kinds:
            for n in range(1, 6):
                for mu in compositions(n):
                    x = nsym_element(ctx, kind, mu)
                    assert expand_in_kind(ctx, kind, x) == {mu: 1}


def test_expansion_is_linear():
    ctx = ind_ctx()
    x = 2 * nsym_element(ctx, "ribbon", (2, 1)) - 5 * nsym_element(
        ctx, "ribbon", (1, 1, 1))
    assert expand_in_kind(ctx, "ribbon", x) == {(2, 1): 2, (1, 1, 1): -5}
    assert expand_in_kind(ctx, "ribbon", TensorElement(0, {(): 3})) == {(): 3}
    assert expand_in_kind(ctx, "ribbon", TensorElement(3)) == {}


def test_expansion_cache_goes_with_its_context():
    ctx = ind_ctx()
    x = nsym_element(ctx, "ribbon", (2, 1))
    assert expand_in_kind(ctx, "ribbon", x) == {(2, 1): 1}
    assert ("ribbon", 3) in ctx._expansion_cache
    assert expand_in_kind(ind_ctx(), "ribbon", x) == {(2, 1): 1}
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def test_square_expansion_deconcatenates_h():
    ctx = ind_ctx()
    sq = ctx.coproduct(nsym_element(ctx, "h_basis", (3,)))
    assert expand_square_in_kind(ctx, "h_basis", sq) == {
        ((), (3,)): 1, ((1,), (2,)): 1, ((2,), (1,)): 1, ((3,), ()): 1}


def test_structure_constants_do_not_depend_on_q():
    for kind in ("h_basis", "ribbon"):
        prod2 = product_constants(ind_ctx(2), kind, 3)
        prod5 = product_constants(ind_ctx(5), kind, 3)
        assert prod2 == prod5
        cop2 = coproduct_constants(ind_ctx(2), kind, 3)
        cop5 = coproduct_constants(ind_ctx(5), kind, 3)
        assert cop2 == cop5
    # concatenation shows up literally in the h constants
    h_prod = product_constants(ind_ctx(5), "h_basis", 3)
    assert h_prod[((1,), (2,))] == (((1, 2), 1),)


def test_ribbon_product_spot():
    ctx = ind_ctx()
    lhs = ctx.product(nsym_element(ctx, "ribbon", (2,)),
                      nsym_element(ctx, "ribbon", (1,)))
    assert lhs == (nsym_element(ctx, "ribbon", (2, 1))
                   + nsym_element(ctx, "ribbon", (3,)))


def test_verify_nsym_rules_passes():
    for q in (2, 3):
        rep = verify_nsym_rules(ind_ctx(q), 4)
        assert rep["first_failure"] is None
        assert rep["checked"] == rep["passed"] > 0


# -- antipode corollaries ------------------------------------------------------


def test_h_antipode_spot():
    ctx = ind_ctx()
    h1 = nsym_element(ctx, "h_basis", (1,))
    h2 = nsym_element(ctx, "h_basis", (2,))
    assert antipode_closed(ctx, h2) == -h2 + ctx.product(h1, h1)


def test_block_reversal_spot():
    ctx = ones_ctx()
    x = TensorElement(3, {(1, 0): 1})   # blocks (2, 1)
    y = TensorElement(3, {(0, 1): 1})   # blocks (1, 2)
    assert antipode_closed(ctx, x) == y


def test_corollary_reports():
    rep = antipode_corollaries(ones_ctx(), 4)
    assert rep["cases"] == ["primitive_negation", "block_reversal"]
    assert rep["first_failure"] is None
    assert rep["checked"] == rep["passed"] > 0

    rep = antipode_corollaries(ind_ctx(), 4)
    assert rep["cases"] == ["generator_shift", "h_alternating_sum"]
    assert rep["first_failure"] is None
    assert rep["checked"] == rep["passed"] > 0

    with pytest.raises(InconsistentTag):
        antipode_corollaries(all_ones_context(cyclic4()), 3)


# -- descent classes -----------------------------------------------------------


def test_descent_embedding_extremes():
    full = descent_embedding((4,))
    assert full.perms == ((1, 2, 3, 4),)
    fine = descent_embedding((1, 1, 1, 1))
    assert fine.perms == ((4, 3, 2, 1),)


def test_descent_embedding_worked_example():
    img = descent_embedding((2, 1))
    assert set(img.perms) == {(1, 3, 2), (3, 1, 2)}
    assert (1, 3, 2) in img
    assert (2, 3, 1) not in img
    assert len(img) == 2
    assert list(img) == list(img.perms)
    assert img == descent_embedding((2, 1))
    assert img != descent_embedding((1, 2))
    assert "size=2" in repr(img)


def test_descent_classes_partition_the_symmetric_group():
    import math
    for n in range(1, 6):
        seen = set()
        total = 0
        for mu in compositions(n):
            img = descent_embedding(mu)
            total += len(img)
            assert not (set(img.perms) & seen)
            seen.update(img.perms)
        assert total == math.factorial(n)


def test_descent_embedding_bound():
    with pytest.raises(ValueError):
        descent_embedding((4, 4))
    with pytest.raises(ValueError):
        descent_embedding((2, 2), bound=3)
    with pytest.raises(TheoryError):
        descent_embedding(())
