"""The four antipode routes: closed form, full set-composition sum,
toggle-free sum, and the convolution-equation solver."""

from fractions import Fraction

from hopftower.antipode import (_closed_plans, _setcomp_table,
                                antipode_all_setcomps, antipode_closed,
                                antipode_oracle, antipode_toggle_free)
from hopftower.combinatorics import set_compositions, toggle_free
from hopftower.elements import TensorElement
from hopftower.hopf import (HopfContext, _split_plans, all_ones_context,
                            induction_context)
from hopftower.theory import two_dim
from test_kernels import (assert_same, reference_antipode_closed,
                          reference_coproduct)

ROUTES = (antipode_closed, antipode_all_setcomps, antipode_toggle_free,
          antipode_oracle)


def contexts(q=3):
    return all_ones_context(two_dim(q)), induction_context(two_dim(q))


def word(degree, letters, coeff=1):
    return TensorElement(degree, {tuple(letters): coeff})


def test_degree_zero_fixed():
    for ctx in contexts():
        u = ctx.unit(5)
        for route in ROUTES:
            assert route(ctx, u) == u


def test_degree_one_negates():
    for ctx in contexts():
        e = word(1, [])
        for route in ROUTES:
            assert route(ctx, e) == -e


def test_degree_two_worked_examples():
    ones, ind = contexts()
    # S(x) = -x + (<x,alpha> + <x,beta>) * iota-word in degree 2
    assert antipode_closed(ones, word(2, [0])) == word(2, [0])
    assert antipode_closed(ones, word(2, [1])) == -word(2, [1])
    # induction context swaps the two letters
    assert antipode_closed(ind, word(2, [0])) == word(2, [1])
    assert antipode_closed(ind, word(2, [1])) == word(2, [0])


def test_routes_agree():
    for ctx in contexts():
        for n in range(3, 5):
            for w in ctx.basis_words(n):
                x = word(n, w)
                results = [route(ctx, x) for route in ROUTES]
                assert results[0] == results[1] == results[2] == results[3]


def test_convolution_identity():
    """m(S x id)(coproduct) kills every positive-degree element."""
    for ctx in contexts():
        x = word(3, [1, 0], 4)
        acc = TensorElement(3)
        for ((ld, lw), (rd, rw)), c in ctx.coproduct(x).terms.items():
            acc += c * ctx.product(
                antipode_closed(ctx, TensorElement(ld, {lw: 1})),
                TensorElement(rd, {rw: 1}))
        assert acc == TensorElement(3)


def test_linearity():
    ctx = induction_context(two_dim(5))
    x, y = word(3, [0, 1]), word(3, [1, 1])
    for route in ROUTES:
        assert route(ctx, 2 * x + 3 * y) == 2 * route(ctx, x) + 3 * route(
            ctx, y)


def test_oracle_memoizes_subwords():
    ctx = all_ones_context(two_dim(3))
    assert ctx._antipode_cache == {}
    antipode_oracle(ctx, word(3, [0, 1]))
    assert (3, (0, 1)) in ctx._antipode_cache
    assert (1, ()) in ctx._antipode_cache  # recursion reached degree 1


def test_involution_when_coproduct_symmetric():
    """With alpha == beta the antipode squares to the identity."""
    ctx = all_ones_context(two_dim(3))
    for n in range(5):
        for w in ctx.basis_words(n):
            x = word(n, w)
            assert antipode_closed(ctx, antipode_closed(ctx, x)) == x


def test_oracle_results_are_not_shared():
    """The oracle memoizes per word; what it returns is the caller's to
    mutate, and a later call is unaffected."""
    for ctx in contexts():
        for x in (word(3, [0, 1]), ctx.unit(2), word(2, [1], 3)):
            want = antipode_closed(ctx, x)
            first = antipode_oracle(ctx, x)
            first += first
            first.add_term(next(iter(ctx.basis_words(x.degree))), 7)
            assert antipode_oracle(ctx, x) == want


def test_full_sum_cancels_to_the_toggle_free_table():
    """Grouped by what they do to the positions, the signs of all set
    compositions cancel down to the toggle-free ones (Benedetti-Sagan):
    3^(n-1) entries, each of sign +1 or -1."""
    for n in range(1, 8):
        full = dict(_setcomp_table(set_compositions, n))
        assert full == dict(_setcomp_table(toggle_free, n))
        assert len(full) == 3 ** (n - 1)
        assert set(full.values()) <= {1, -1}


def test_plans_are_shared_across_contexts():
    """The per-degree plans hold nothing of a context: calls alternating
    between two contexts with different denominators D, at each degree,
    all match the Fraction references."""
    caches = (_split_plans, _closed_plans, _setcomp_table)
    for cache in caches:
        assert cache.cache_info().maxsize is not None
        cache.cache_clear()
    basis = two_dim(3)
    contexts = (induction_context(basis),
                HopfContext.unchecked(basis, basis.reg / 3, basis.one,
                                      Fraction(2, 7) * basis.reg))
    assert (contexts[0]._den, contexts[1]._den) == (1, 21)
    for n in range(6):
        for w in contexts[0].basis_words(n):
            for ctx in contexts:
                x = word(n, w, Fraction(-3, 5))
                assert_same(ctx.coproduct(x), reference_coproduct(ctx, x))
                want = reference_antipode_closed(ctx, x)
                assert_same(antipode_closed(ctx, x), want)
                assert antipode_all_setcomps(ctx, x) == want
    for cache in caches:
        assert cache.cache_info().hits > 0
