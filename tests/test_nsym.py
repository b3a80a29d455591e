"""Distinguished families over rank-2 theories: h/ribbon/primitive
elements, their rewriting rules, antipode corollaries, and descent
classes."""

import gc
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

import hopftower.antipode as antipode
import hopftower.nsym as nsym
import hopftower.verify as verify
from hopftower.antipode import antipode_closed
from hopftower.combinatorics import (boundary_bits, coarsenings, compositions,
                                     composition_from_boundary_bits, concat,
                                     conjugate, descent_embedding,
                                     interior_bits, refinements, smash)
from hopftower.elements import (TensorElement, TensorSquare, _accumulate,
                                _fractions, _over_lcm, basis_words,
                                expand_letters)
from hopftower.functors import ind_along
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.nsym import (KINDS, InconsistentTag, _coordinates, _in_kind,
                            _letters, _spans, _square_in_kind,
                            antipode_corollaries, coproduct_constants,
                            expand_in_kind, nsym_element,
                            product_constants, shuffle_dual_complement,
                            tau_iota_element, verify_nsym_rules)
from hopftower.theory import (DualBasisUndefined, TheoryError, cyclic4,
                              dual_pair, solve_linear_system, two_dim)
from test_kernels import reference_square_product, unchecked_d21
from test_verify import assert_same_value, failures_and_report


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
    with pytest.raises(InconsistentTag, match="rank-2 basis"):
        shuffle_dual_complement(induction_context(cyclic4()))


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
    # alpha == beta, and iota is orthogonal to beta, so it is a multiple of
    # beta's complement letter
    t = two_dim(3)
    ctx = HopfContext.unchecked(t, t.reg - t.one, t.one, t.one)
    with pytest.raises(InconsistentTag, match="must span"):
        nsym_element(ctx, "shuffle_dual_primitive", (2,))


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
    assert expand_in_kind(ind_ctx(), "ribbon", x) == {(2, 1): 1}
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def expand_square_in_kind(ctx, kind, sq):
    """Coefficients of a tensor-square element in family ⊗ family."""
    top = max((max(ld, rd) for (ld, _), (rd, _) in sq.terms), default=0)
    return _square_in_kind(_coordinates(ctx, kind, top), _over_lcm(sq.terms))


def test_square_expansion_deconcatenates_h():
    ctx = ind_ctx()
    sq = ctx.coproduct(nsym_element(ctx, "h_basis", (3,)))
    assert expand_square_in_kind(ctx, "h_basis", sq) == {
        ((), (3,)): 1, ((1,), (2,)): 1, ((2,), (1,)): 1, ((3,), ()): 1}


# The dense route the letter-wise expansion replaced: solve the square
# system whose columns are the 2^(n-1) family elements, and expand a tensor
# square by grouping its terms on the right word.

def reference_expand_in_kind(ctx, kind, x):
    n = x.degree
    if n == 0:
        c = x.coefficient(())
        return {(): c} if c else {}
    comps = tuple(compositions(n))
    fam = [nsym_element(ctx, kind, mu) for mu in comps]
    words = list(basis_words(ctx.basis.dim, n))
    rows = [[f.coefficient(w) for f in fam] for w in words]
    coeffs = solve_linear_system(rows, [x.coefficient(w) for w in words])
    return {mu: c for mu, c in zip(comps, coeffs) if c}


def reference_expand_square_in_kind(ctx, kind, sq):
    grouped = {}
    for ((ld, lw), (rd, rw)), c in sq.terms.items():
        grouped.setdefault((ld, rd), {}).setdefault(
            rw, TensorElement(ld)).add_term(lw, c)
    out = {}
    for (ld, rd), by_right in grouped.items():
        partial = {}
        for rw, left_elem in by_right.items():
            for mu, c in reference_expand_in_kind(ctx, kind, left_elem).items():
                partial.setdefault(mu, TensorElement(rd)).add_term(rw, c)
        for mu, right_elem in partial.items():
            for nu, c in reference_expand_in_kind(ctx, kind, right_elem).items():
                out[(mu, nu)] = out.get((mu, nu), 0) + c
    return {k: v for k, v in out.items() if v}


# The letter-by-letter walk the position-by-position int expansion
# replaced: each word through expand_letters over its letters' Fraction
# (inside, boundary) coordinates, accumulated on boundary-bit words.

def reference_in_kind(ctx, kind, x):
    n = x.degree
    if n == 0:
        c = x.terms.get((), 0)
        return {(): c} if c else {}
    letters = _letters(ctx, kind)
    coords = () if n == 1 else tuple(zip(*(
        ctx.basis.pairings(d) for d in dual_pair(*letters))))
    acc = {}
    for word, c in x.terms.items():
        for bits, v in expand_letters([coords[i] for i in word], c).items():
            _accumulate(acc, bits, v)
    return {composition_from_boundary_bits(bits): c
            for bits, c in acc.items()}


def expansion_contexts():
    for q in (2, 3, 5):
        yield ind_ctx(q)
        yield ones_ctx(q)
    t = two_dim(3)
    # alpha != beta, and alpha is not the all-ones character
    yield HopfContext(t, t.reg, t.element((Fraction(1, 3), Fraction(1, 3))),
                      t.element((2, Fraction(-1, 2))))
    # alpha == beta, and iota is not the all-ones character
    ab = t.element((Fraction(1, 2), Fraction(1, 4)))
    yield HopfContext(t, t.reg, ab, ab)


def dense(rng, ctx, degree):
    return TensorElement(degree, {
        w: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for w in basis_words(ctx.basis.dim, degree)})


def outcome(fn, *args):
    """fn's result, or the class and message it raised."""
    try:
        return fn(*args)
    except TheoryError as exc:
        return type(exc), str(exc)


def test_expansion_matches_the_dense_solve():
    """Against the dense solve and the letter walk."""
    rng = random.Random(5)
    expanded = 0
    for ctx in expansion_contexts():
        for kind in KINDS:
            for n in range(8):
                x = dense(rng, ctx, n)
                got = outcome(expand_in_kind, ctx, kind, x)
                assert got == outcome(reference_expand_in_kind, ctx, kind, x)
                assert got == outcome(reference_in_kind, ctx, kind, x)
                expanded += isinstance(got, dict) and n == 7
    assert expanded == 12   # the (context, kind) pairs whose family exists


def test_square_expansion_matches_the_grouped_route():
    rng = random.Random(6)
    expanded = 0
    for ctx in expansion_contexts():
        for kind in KINDS:
            for n in range(6):
                sq = ctx.coproduct(dense(rng, ctx, n))
                try:
                    got = expand_square_in_kind(ctx, kind, sq)
                except InconsistentTag:
                    with pytest.raises(InconsistentTag):
                        reference_expand_square_in_kind(ctx, kind, sq)
                    continue
                assert got == reference_expand_square_in_kind(ctx, kind, sq)
                expanded += n == 5
    assert expanded == 12


def test_expansion_cancels_after_expanding():
    """Every word of 2 h(2,1) - 3 h(1,2) reaches other compositions too;
    their coefficients cancel only once all words are summed."""
    ctx = ind_ctx()
    coords = _coordinates(ctx, "h_basis", 3)
    x = (2 * nsym_element(ctx, "h_basis", (2, 1))
         - 3 * nsym_element(ctx, "h_basis", (1, 2)))
    want = {(2, 1): 2, (1, 2): -3}
    assert expand_in_kind(ctx, "h_basis", x) == want
    assert reference_in_kind(ctx, "h_basis", x) == want
    reached = set()
    for word, c in x.terms.items():
        reached.update(_fractions(*_in_kind(coords, 3, _over_lcm({word: c}))))
    assert reached - set(want)


def test_expansion_edge_cases():
    c = Fraction(5, 7)
    unit_square = TensorSquare({((0, ()), (0, ())): c})
    # degree 0 never consults the family
    for ctx, kind in ((all_ones_context(cyclic4()), "h_basis"),
                      (ind_ctx(), "power_sum")):
        assert expand_in_kind(ctx, kind, TensorElement(0, {(): c})) == {(): c}
        assert expand_in_kind(ctx, kind, TensorElement(0)) == {}
        assert expand_square_in_kind(ctx, kind, unit_square) == {((), ()): c}
        with pytest.raises(TheoryError):
            expand_in_kind(ctx, kind, TensorElement(1, {(): c}))
    # the inside letter alpha* and the boundary letter iota = 3 alpha* are
    # parallel: degree 1 has no letters to expand, degree 2 on is singular
    t = two_dim(3)
    alpha, beta = t.one, t.element((0, 1))
    astar, _ = dual_pair(alpha, beta)
    ctx = HopfContext.unchecked(t, 3 * astar, alpha, beta)
    x = TensorElement(1, {(): c})
    assert expand_in_kind(ctx, "h_basis", x) == {(1,): c}
    assert expand_square_in_kind(ctx, "h_basis", ctx.coproduct(x)) == {
        ((), (1,)): c, ((1,), ()): c}
    for n in (2, 3):
        with pytest.raises(DualBasisUndefined, match="singular linear system"):
            expand_in_kind(ctx, "h_basis", TensorElement(n, {(0,) * (n - 1): c}))


def test_structure_constants_below_their_least_degree_are_empty():
    """A product needs two factors of degree >= 1, a coproduct an element
    of degree >= 1: below that the constants are {}, and at it they are
    not."""
    for ctx, kinds in ((ind_ctx(), ("h_basis", "ribbon")),
                       (ones_ctx(), ("shuffle_dual_primitive",))):
        for kind in kinds:
            assert product_constants(ctx, kind, 1) == {}
            assert coproduct_constants(ctx, kind, 0) == {}
            assert product_constants(ctx, kind, 2)
            assert coproduct_constants(ctx, kind, 1)


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


# -- failure parity with the Fraction suites -----------------------------------

# The suites as they were before they moved onto int forms: every side a
# public Fraction element, from the public product, coproduct and closed
# antipode, and the compatibility right-hand side from
# ``reference_square_product``.  Each check goes through ``verify._run`` as
# looked up at the call.


def reference_verify_nsym_rules(ctx, max_degree):
    run, rep = verify._run, verify._report()
    h_letters, r_letters = _letters(ctx, "h_basis"), _letters(ctx, "ribbon")
    h, r = {}, {}
    for n in range(max_degree + 1):
        for mu in compositions(n):
            h[mu] = tau_iota_element(ctx.basis, *h_letters, mu)
            r[mu] = tau_iota_element(ctx.basis, *r_letters, mu)
    for total in range(2, max_degree + 1):
        for a in range(1, total):
            for mu in compositions(a):
                for nu in compositions(total - a):
                    run(rep, ("h_concat", mu, nu),
                        ctx.product(h[mu], h[nu]), h[concat(mu, nu)])
                    run(rep, ("ribbon_product", mu, nu),
                        ctx.product(r[mu], r[nu]),
                        r[concat(mu, nu)] + r[smash(mu, nu)])
    for n in range(1, max_degree + 1):
        want = TensorSquare()
        for j in range(n + 1):
            want += TensorSquare.tensor(h[(j,) if j else ()],
                                        h[(n - j,) if n - j else ()])
        run(rep, ("h_deconcat", n), ctx.coproduct(h[(n,)]), want)
    for n in range(1, max_degree + 1):
        for mu in compositions(n):
            want = TensorElement(n)
            for nu in coarsenings(mu):
                want += r[nu]
            run(rep, ("h_coarsening", mu), h[mu], want)
    for total in range(2, min(max_degree, 4) + 1):
        for a in range(1, total):
            for mu in compositions(a):
                for nu in compositions(total - a):
                    run(rep, ("h_compat", mu, nu),
                        ctx.coproduct(ctx.product(h[mu], h[nu])),
                        reference_square_product(ctx, ctx.coproduct(h[mu]),
                                                 ctx.coproduct(h[nu])))
    if ctx.iota == ctx.basis.reg and h_letters[0] == ctx.basis.one:
        for n in range(1, max_degree + 1):
            for mu in compositions(n):
                bits = interior_bits(mu)
                ones = TensorElement(sum(bits) + 1,
                                     {(ctx.basis.one_index,) * sum(bits): 1})
                run(rep, ("h_induced", mu), h[mu],
                    ind_along(ctx.basis, bits, ones))
    return rep


def reference_antipode_corollaries(ctx, max_n):
    run, rep = verify._run, verify._report(cases=[])
    basis = ctx.basis
    family = partial(tau_iota_element, basis)
    if ctx.alpha == ctx.beta:
        tau = shuffle_dual_complement(ctx)
        if _spans(tau, ctx):
            rep["cases"].append("primitive_negation")
            for n in range(1, max_n + 1):
                x = family(tau, ctx.iota, (n,))
                run(rep, ("primitive_negation", n),
                    antipode_closed(ctx, x), -x)
        if ctx.iota == basis.one and ctx.alpha == basis.one:
            rep["cases"].append("block_reversal")
            for n in range(1, max_n + 1):
                for mu in compositions(n):
                    sign = -1 if len(mu) % 2 else 1
                    run(rep, ("block_reversal", mu),
                        antipode_closed(ctx, family(tau, ctx.iota, mu)),
                        sign * family(tau, ctx.iota, tuple(reversed(mu))))
    else:
        astar, _ = _letters(ctx, "h_basis")
        rep["cases"].append("generator_shift")
        for n in range(1, max_n + 1):
            run(rep, ("generator_shift", n),
                antipode_closed(ctx, family(astar, ctx.iota, (n,))),
                -family(astar - ctx.iota, ctx.iota, (n,)))
        if ctx.iota == basis.reg and astar == basis.one:
            rep["cases"].append("h_alternating_sum")
            for n in range(1, max_n + 1):
                for mu in compositions(n):
                    want = TensorElement(n)
                    for nu in refinements(tuple(reversed(mu))):
                        want.add_scaled(family(astar, ctx.iota, nu).terms,
                                        -1 if len(nu) % 2 else 1)
                    run(rep, ("h_alternating_sum", mu),
                        antipode_closed(ctx, family(astar, ctx.iota, mu)),
                        want)
    return rep


def assert_suite_matches_reference(monkeypatch, suite, reference, ctx,
                                   max_degree):
    """The suite's report and every failing check, each as the report
    would hold it had it failed first, are the reference's: values and
    coefficient types.  Returns the report."""
    with monkeypatch.context() as patch:
        # nsym binds verify's _run at import; route it through the
        # recording one that failures_and_report installs
        patch.setattr(nsym, "_run", lambda *args: verify._run(*args))
        got = failures_and_report(monkeypatch, suite, ctx, max_degree)
    want = failures_and_report(monkeypatch, reference, ctx, max_degree)
    assert got[1]["checked"] == want[1]["checked"]
    assert got[1]["passed"] == want[1]["passed"]
    assert got[1].get("cases") == want[1].get("cases")
    assert len(got[0]) == len(want[0])
    for failure, expected in zip(got[0] + [got[1]["first_failure"]],
                                 want[0] + [want[1]["first_failure"]]):
        assert (failure is None) == (expected is None)
        if expected is not None:
            assert failure["inputs"] == expected["inputs"]
            assert_same_value(failure["lhs"], expected["lhs"])
            assert_same_value(failure["rhs"], expected["rhs"])
    return got[1]


def _flip(terms, pick):
    """``terms`` with the sign of each picked term flipped."""
    return {k: -v if pick(k) else v for k, v in terms.items()}


def test_nsym_suites_match_fraction_reference(monkeypatch):
    """Green and red contexts alike: the unchecked D = 21 triple fails
    most nsym rules."""
    for ctx, green in ((ind_ctx(2), True), (ind_ctx(3), True),
                       (ones_ctx(3), True), (unchecked_d21()[0], False)):
        if ctx.alpha != ctx.beta:
            rep = assert_suite_matches_reference(
                monkeypatch, verify_nsym_rules, reference_verify_nsym_rules,
                ctx, 5)
            assert (rep["first_failure"] is None) == green
        assert_suite_matches_reference(
            monkeypatch, antipode_corollaries, reference_antipode_corollaries,
            ctx, 5)


def test_product_and_coproduct_mutants_match_fraction_reference(monkeypatch):
    """A sign flip in ``_product_num`` (degree-3 products ending in letter
    0) or in ``_coproduct_num`` (degree 3, left degree 1) reaches the
    reference through the public kernels and turns nsym rules red: every
    failure, the first included, is what the reference reports."""
    product, coproduct = HopfContext._product_num, HopfContext._coproduct_num

    def flipped_product(self, dx, x, dy, y):
        den, acc = product(self, dx, x, dy, y)
        return den, _flip(acc, lambda w: dx + dy == 3 and w[-1] == 0)

    def flipped_coproduct(self, n, x):
        den, acc = coproduct(self, n, x)
        return den, _flip(acc, lambda k: n == 3 and k[0][0] == 1)

    for name, mutant, first in (("_product_num", flipped_product, "h_concat"),
                                ("_coproduct_num", flipped_coproduct,
                                 "h_deconcat")):
        for ctx in (ind_ctx(3), unchecked_d21()[0]):
            with monkeypatch.context() as patch:
                patch.setattr(HopfContext, name, mutant)
                rep = assert_suite_matches_reference(
                    monkeypatch, verify_nsym_rules,
                    reference_verify_nsym_rules, ctx, 5)
                if ctx == ind_ctx(3):
                    assert rep["first_failure"]["inputs"][0] == first
                    assert 0 < rep["passed"] < rep["checked"]


def test_closed_antipode_mutant_matches_fraction_reference(monkeypatch):
    """A sign flip in ``_closed_num`` (degree 3 and up, words starting
    with letter 1) reaches the reference through ``antipode_closed`` and
    turns every corollary case red: every failure, the first included, is
    what the reference reports."""
    real = antipode._closed_num

    def flipped(ctx, n, x):
        den, acc = real(ctx, n, x)
        return den, _flip(acc, lambda w: n >= 3 and w[0] == 1)

    t = two_dim(3)
    half = t.element((Fraction(1, 2), Fraction(1, 4)))
    cases = set()
    for ctx in (ind_ctx(3), ones_ctx(2), HopfContext(t, t.reg, half, half)):
        with monkeypatch.context() as patch:
            patch.setattr(antipode, "_closed_num", flipped)
            patch.setattr(nsym, "_closed_num", flipped)
            rep = assert_suite_matches_reference(
                monkeypatch, antipode_corollaries,
                reference_antipode_corollaries, ctx, 5)
        assert 0 < rep["passed"] < rep["checked"]
        cases.update(rep["cases"])
    assert cases == {"primitive_negation", "block_reversal",
                     "generator_shift", "h_alternating_sum"}


# -- descent classes -----------------------------------------------------------


def test_descent_embedding_extremes():
    assert descent_embedding((4,)) == ((1, 2, 3, 4),)
    assert descent_embedding((1, 1, 1, 1)) == ((4, 3, 2, 1),)


def test_descent_embedding_worked_example():
    img = descent_embedding((2, 1))
    assert img == ((1, 3, 2), (3, 1, 2))
    assert img == descent_embedding(p for p in (2, 1))
    assert descent_embedding((1, 2)) == ((2, 1, 3), (2, 3, 1))
    # lexicographic one-line order
    assert descent_embedding((2, 2)) == ((1, 3, 2, 4), (1, 3, 4, 2),
                                         (3, 1, 2, 4), (3, 1, 4, 2),
                                         (3, 4, 1, 2))


def test_descent_classes_partition_the_symmetric_group():
    import math
    for n in range(1, 6):
        seen = set()
        total = 0
        for mu in compositions(n):
            img = descent_embedding(mu)
            total += len(img)
            assert list(img) == sorted(img)
            assert not (set(img) & seen)
            seen.update(img)
        assert total == math.factorial(n)


def test_descent_embedding_bound():
    with pytest.raises(ValueError):
        descent_embedding((4, 4))
    # 7 letters, the largest admitted: 5,040 permutations scanned
    assert descent_embedding((7,)) == (tuple(range(1, 8)),)
    with pytest.raises(TheoryError):
        descent_embedding(())
