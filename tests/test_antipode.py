"""The four antipode routes: closed form, full set-composition sum,
toggle-free sum, and the convolution-equation solver."""

from fractions import Fraction

from hopftower.antipode import (_KEPT, _MARKER, _oracle_solve,
                                _setcomp_table, antipode_all_setcomps,
                                antipode_closed, antipode_oracle,
                                antipode_toggle_free)
from hopftower.characters import constant_character
from hopftower.combinatorics import (bc_bits, llc_bits, set_compositions,
                                     straighten, toggle_free)
from hopftower.elements import TensorElement, basis_words
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.nsym import tau_iota_element
from hopftower.theory import two_dim
from test_kernels import (assert_same, reference_antipode_closed,
                          reference_coproduct, word_memo)

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


def test_degree_zero_needs_no_case_of_its_own():
    """The general paths give the degree-0 results the deleted branches
    gave: the set-composition sums fix x, a character is its coefficient
    times x's, the empty composition is the unit, and the only word is
    the empty one."""
    for ctx in contexts():
        x = TensorElement(0, {(): Fraction(-3, 4)})
        for route in (antipode_all_setcomps, antipode_toggle_free):
            assert_same(route(ctx, x), x)
            assert route(ctx, TensorElement(0)) == TensorElement(0)
        chi = constant_character(ctx, ctx.alpha, 2)
        assert chi(x) == Fraction(-3, 4) and type(chi(x)) is Fraction
        assert chi(TensorElement(0)) == 0
        unit = tau_iota_element(ctx.basis, ctx.alpha, ctx.iota, ())
        assert_same(unit, ctx.unit())
        assert list(basis_words(ctx.basis.dim, 0)) == [()]


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
    assert ctx._word_forms == {}
    antipode_oracle(ctx, word(3, [0, 1]))
    solved = word_memo(ctx, _oracle_solve)
    assert (3, (0, 1)) in solved
    assert (1, ()) in solved  # recursion reached degree 1


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


def reference_setcomp_table(route, n):
    """``_setcomp_table``'s plans as {(crossings, slots): sign}, built from
    the public statistics straighten, llc_bits and bc_bits of each set
    composition."""
    table = {}
    for A in (toggle_free if route == "toggle_free" else set_compositions)(n):
        w, llc, bc = straighten(A), llc_bits(A), bc_bits(A)
        crossings, slots = [], [_MARKER] * (n - 1)
        for j in range(n - 1):
            if bc[j]:
                slots[w[j] - 1] = j
            else:
                crossings.append((j, llc[j]))
        key = (tuple(crossings), tuple(slots))
        table[key] = table.get(key, 0) + (-1 if len(A) % 2 else 1)
    return {key: sign for key, sign in table.items() if sign}


def test_full_sum_cancels_to_the_toggle_free_table():
    """Grouped by what they do to the positions, the signs of all set
    compositions cancel down to the toggle-free ones (Benedetti-Sagan):
    3^(n-1) entries, each of sign +1 or -1.  A plan's getter, on the word
    of letters 0..n-2 and the marker, returns its slot template.  Each
    table, walked once per set composition, holds the plans that the
    three public statistics give."""
    for n in range(1, 8):
        probe = tuple(range(n - 1)) + (_MARKER,)

        def table(route):
            got = {(crossings, get(probe)): sign for sign, crossings, get
                   in _setcomp_table(route, n)}
            assert got == reference_setcomp_table(route, n), (route, n)
            return got

        full = table("all_setcomps")
        assert full == table("toggle_free")
        assert len(full) == 3 ** (n - 1)
        assert set(full.values()) <= {1, -1}


def test_plans_are_shared_across_contexts():
    """The set-composition tables hold nothing of a context, and the
    coproduct and closed antipode keep no state between calls: calls
    alternating between two contexts with different denominators D, at
    each degree, all match the Fraction references."""
    assert _setcomp_table.cache_info().maxsize is not None
    _setcomp_table.cache_clear()
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
    assert _setcomp_table.cache_info().hits > 0


def test_set_composition_tables_are_kept_up_to_degree_seven():
    """Both routes' tables are kept up to degree 7, the largest the CLI's
    set-composition bound admits; a degree-8 table is built per call and
    leaves the cache as it was."""
    assert _KEPT == 7
    assert _setcomp_table.cache_info().maxsize == 2 * (_KEPT + 1)
    ctx = induction_context(two_dim(2))
    seven, eight = word(7, [0, 1] * 3), word(8, [1, 0] * 3 + [1])
    assert antipode_toggle_free(ctx, seven) == antipode_closed(ctx, seven)
    before = _setcomp_table.cache_info()
    assert antipode_toggle_free(ctx, seven) == antipode_closed(ctx, seven)
    assert _setcomp_table.cache_info().hits == before.hits + 1
    before = _setcomp_table.cache_info()
    assert antipode_toggle_free(ctx, eight) == antipode_closed(ctx, eight)
    after = _setcomp_table.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)
