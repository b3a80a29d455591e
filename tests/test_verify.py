"""The verification suites themselves: green on valid contexts, and
honest reporting on broken ones."""

import random
from fractions import Fraction

import pytest

import hopftower.verify as verify
from hopftower import antipode
from hopftower.antipode import (_closed_num, antipode_all_setcomps,
                                antipode_closed, antipode_oracle,
                                antipode_toggle_free)
from hopftower.combinatorics import toggle_free
from hopftower.elements import TensorElement
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.theory import cyclic4, two_dim
from hopftower.verify import (find_compat_counterexample,
                              verify_all, verify_antipode_equivalence,
                              verify_axioms, verify_characters)
from test_characters import kronecker
from test_kernels import reference_square_product, unchecked_d21


def contexts(q=3):
    return all_ones_context(two_dim(q)), induction_context(two_dim(q))


def word_elements(ctx, degree):
    """Each basis word of the degree with its public one-word element."""
    for w in ctx.basis_words(degree):
        yield w, TensorElement(degree, {w: 1})


def test_axioms_pass_on_valid_contexts():
    for ctx in contexts():
        rep = verify_axioms(ctx, 3)
        assert rep["first_failure"] is None
        assert rep["checked"] == rep["passed"] > 0


def test_axioms_spot_checks_add_cases():
    ctx = all_ones_context(two_dim(2))
    base = verify_axioms(ctx, 3)
    seeded = verify_axioms(ctx, 3, seed=11, spot_checks=4)
    assert seeded["checked"] == base["checked"] + 8
    assert seeded["passed"] == seeded["checked"]
    # same seed, same outcome
    again = verify_axioms(ctx, 3, seed=11, spot_checks=4)
    assert again == seeded


def test_axioms_report_failures_on_invalid_triple():
    t = two_dim(3)
    bad = HopfContext.unchecked(t, t.reg, t.reg, t.one)
    rep = verify_axioms(bad, 3)
    assert rep["passed"] < rep["checked"]
    failure = rep["first_failure"]
    assert set(failure) == {"inputs", "lhs", "rhs"}
    assert failure["lhs"] != failure["rhs"]


def test_compat_counterexample_search():
    for ctx in contexts():
        assert find_compat_counterexample(ctx, 3) is None
    t = two_dim(3)
    bad = HopfContext.unchecked(t, t.reg, t.reg, t.one)
    found = find_compat_counterexample(bad, 3)
    assert found is not None
    assert found["lhs"] != found["rhs"]
    (da, _), (db, _) = found["inputs"]["x"], found["inputs"]["y"]
    assert da + db == 2  # fails already at the smallest possible total


def test_antipode_equivalence_report():
    for ctx in contexts():
        rep = verify_antipode_equivalence(ctx, 3)
        assert rep["first_failure"] is None
        # 3 comparison routes on each of the 8 words of degree <= 3
        assert rep["checked"] == rep["passed"] == 24
        assert rep["toggle_free_counts"] == {1: 1, 2: 3, 3: 9}


def test_antipode_equivalence_past_rank_three():
    """Green at degree 4 on the induction contexts of Kronecker tables of
    ranks 4 and 6, where D is 5 and 7."""
    for basis in (kronecker(two_dim(2), two_dim(3)),
                  kronecker(cyclic4(), two_dim(2))):
        ctx = induction_context(basis)
        assert ctx._den == basis.order - 1
        rep = verify_antipode_equivalence(ctx, 4)
        assert rep["first_failure"] is None
        words = sum(basis.dim ** (n - 1) for n in range(1, 5)) + 1
        assert rep["checked"] == rep["passed"] == 3 * words


def test_characters_report():
    for ctx in contexts():
        rep = verify_characters(ctx, 3)
        assert rep["first_failure"] is None
        assert rep["checked"] == rep["passed"] == 17


def test_verify_all_key_sets():
    rep = verify_all(all_ones_context(two_dim(3)), 3)
    assert set(rep) == {"axioms", "antipode", "characters",
                        "antipode_corollaries"}
    rep = verify_all(induction_context(two_dim(3)), 3)
    assert set(rep) == {"axioms", "antipode", "characters", "nsym",
                        "antipode_corollaries"}
    rep = verify_all(all_ones_context(cyclic4()), 3)
    assert set(rep) == {"axioms", "antipode", "characters"}
    for sub in rep.values():
        assert sub["first_failure"] is None


def test_characters_report_below_degree_two():
    """The negative control still has a split to fail at degree 0 and 1."""
    for ctx in contexts():
        for n in (0, 1):
            rep = verify_characters(ctx, n)
            assert rep["first_failure"] is None
            assert rep["checked"] == rep["passed"] == 17


def test_characters_report_on_non_multiplicative_characters():
    """A character that fails its multiplicative check gets no group
    laws, which would raise NotAMorphism, and associativity needs all
    three: the suite returns its report instead of raising."""
    t = two_dim(3)
    ctx = HopfContext.unchecked(t, t.reg / 3, t.one, Fraction(2, 7) * t.reg)
    rep = verify_characters(ctx, 3)
    assert (rep["checked"], rep["passed"]) == (4, 1)
    assert rep["first_failure"]["inputs"] == ("multiplicative", 0)
    assert verify_all(ctx, 3)["characters"] == rep


def test_axioms_compute_each_antipode_once(monkeypatch):
    """S of each basis word is taken once per context, through the int
    form ``_closed_num`` into the context's memo under that kernel,
    however many convolution identities of verify_axioms and references
    of verify_antipode_equivalence use it."""
    seen = []
    real = antipode._closed_num

    def counted(ctx, n, x):
        seen.append((n, tuple(x[1].items())))
        return real(ctx, n, x)
    monkeypatch.setattr(antipode, "_closed_num", counted)
    ctx = induction_context(two_dim(3))  # built after the patch
    for suite in (verify_axioms, verify_antipode_equivalence):
        assert suite(ctx, 4)["first_failure"] is None
    assert len(seen) == len(set(seen)) == sum(
        k is counted for k, _, _ in ctx._word_forms)
    assert set(seen) == {(n, ((w, 1),)) for n in range(5)
                         for w in ctx.basis_words(n)}


def test_basis_word_forms_are_over_one_denominator_per_degree():
    """Δ and closed S of every basis word of degree n are over
    D^(2·max(n-1, 0)), the rule by which verify_axioms pads each factor
    of Δ(w) by Δ(w)'s own denominator; on contexts where D is 3, 7 and
    21."""
    c4 = cyclic4()
    for ctx, top in (
            (induction_context(c4), 5),
            (induction_context(kronecker(c4, two_dim(2))), 4),
            (HopfContext.unchecked(c4, c4.reg, Fraction(5, 7) * c4.one,
                                   (c4.reg - c4.one) / 3), 5)):
        assert ctx._den > 1
        for n in range(top + 1):
            den = ctx._den ** (2 * max(n - 1, 0))
            for w in ctx.basis_words(n):
                for kernel in (HopfContext._coproduct_num, _closed_num):
                    assert ctx._word_form(kernel, n, w)[0] == den, (n, w)


def reference_verify_axioms(ctx, max_degree, seed=None, spot_checks=0):
    """``verify_axioms`` on ``Fraction`` sums: Δ and S of each basis word
    memoized as elements, both convolutions built with ``product``, and
    the compatibility right-hand side from ``reference_square_product``.
    Each check goes through ``verify._run`` as looked up at the call."""
    run = verify._run
    rep = verify._report()
    unit = ctx.unit()
    memo = {}

    def delta(degree, word):
        if ("delta", degree, word) not in memo:
            memo["delta", degree, word] = ctx.coproduct(
                TensorElement(degree, {word: 1}))
        return memo["delta", degree, word]

    def antipode(degree, word):
        if ("S", degree, word) not in memo:
            memo["S", degree, word] = antipode_closed(
                ctx, TensorElement(degree, {word: 1}))
        return memo["S", degree, word]

    for n in range(max_degree + 1):
        for w, x in word_elements(ctx, n):
            run(rep, ("left_unit", n, w), ctx.product(unit, x), x)
            run(rep, ("right_unit", n, w), ctx.product(x, unit), x)

            cop = delta(n, w)
            left_strip = TensorElement(n)
            right_strip = TensorElement(n)
            for ((ld, lw), (rd, rw)), c in cop.terms.items():
                if ld == 0:
                    left_strip.add_term(rw, c)
                if rd == 0:
                    right_strip.add_term(lw, c)
            run(rep, ("left_counit", n, w), left_strip, x)
            run(rep, ("right_counit", n, w), right_strip, x)

            triple_a = {}
            triple_b = {}
            for ((ld, lw), (rd, rw)), c in cop.terms.items():
                for ((l2, w2), (r2, w3)), c2 in delta(ld, lw).terms.items():
                    key = ((l2, w2), (r2, w3), (rd, rw))
                    triple_a[key] = triple_a.get(key, 0) + c * c2
                for ((l2, w2), (r2, w3)), c2 in delta(rd, rw).terms.items():
                    key = ((ld, lw), (l2, w2), (r2, w3))
                    triple_b[key] = triple_b.get(key, 0) + c * c2
            run(rep, ("coassociativity", n, w),
                {k: v for k, v in triple_a.items() if v},
                {k: v for k, v in triple_b.items() if v})

            if n >= 1:
                left_conv = TensorElement(n)
                right_conv = TensorElement(n)
                for ((ld, lw), (rd, rw)), c in cop.terms.items():
                    left_conv.add_scaled(ctx.product(
                        antipode(ld, lw), TensorElement(rd, {rw: 1})).terms, c)
                    right_conv.add_scaled(ctx.product(
                        TensorElement(ld, {lw: 1}), antipode(rd, rw)).terms, c)
                zero = TensorElement(n)
                run(rep, ("antipode_left", n, w), left_conv, zero)
                run(rep, ("antipode_right", n, w), right_conv, zero)

    for total in range(2, max_degree + 1):
        for a in range(1, total):
            for wx, x in word_elements(ctx, a):
                for wy, y in word_elements(ctx, total - a):
                    run(rep, ("compatibility", (a, wx), (total - a, wy)),
                        ctx.coproduct(ctx.product(x, y)),
                        reference_square_product(ctx, delta(a, wx),
                                                 delta(total - a, wy)))

    for total in range(3, max_degree + 1):
        for a in range(1, total - 1):
            for b in range(1, total - a):
                c = total - a - b
                for wx, x in word_elements(ctx, a):
                    for wy, y in word_elements(ctx, b):
                        xy = ctx.product(x, y)
                        for wz, z in word_elements(ctx, c):
                            run(rep, ("associativity",
                                      (a, wx), (b, wy), (c, wz)),
                                ctx.product(xy, z),
                                ctx.product(x, ctx.product(y, z)))

    if spot_checks:
        rng = random.Random(seed)
        for k in range(spot_checks):
            a = rng.randint(1, max(1, max_degree - 1))
            b = rng.randint(1, max(1, max_degree - a))
            x1 = verify._random_element(rng, ctx, a)
            x2 = verify._random_element(rng, ctx, a)
            y = verify._random_element(rng, ctx, b)
            run(rep, ("bilinearity_left", k),
                ctx.product(x1 + x2, y),
                ctx.product(x1, y) + ctx.product(x2, y))
            run(rep, ("bilinearity_right", k),
                ctx.product(y, x1 + x2),
                ctx.product(y, x1) + ctx.product(y, x2))
    return rep


def assert_same_value(got, want):
    """Equal, of one type, and for sparse values or dicts the same
    coefficient type at each key."""
    assert got == want
    assert type(got) is type(want)
    got, want = getattr(got, "terms", got), getattr(want, "terms", want)
    if isinstance(want, dict):
        assert {k: type(c) for k, c in got.items()} == {
            k: type(c) for k, c in want.items()}


def failures_and_report(monkeypatch, suite, ctx, max_degree, **kwargs):
    """``suite``'s report, and every failing check as the report would
    hold it had that check failed first."""
    real = verify._run
    failures = []

    def recording(report, name, lhs, rhs, *how):
        alone = verify._report()
        real(alone, name, lhs, rhs, *how)
        if alone["first_failure"]:
            failures.append(alone["first_failure"])
        real(report, name, lhs, rhs, *how)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_run", recording)
        report = suite(ctx, max_degree, **kwargs)
    return failures, report


def assert_axioms_match_reference(monkeypatch, ctx, max_degree, **kwargs):
    got = failures_and_report(monkeypatch, verify_axioms, ctx, max_degree,
                              **kwargs)
    want = failures_and_report(monkeypatch, reference_verify_axioms, ctx,
                               max_degree, **kwargs)
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for failure, expected in zip(got[0] + [got[1]["first_failure"]],
                                 want[0] + [want[1]["first_failure"]]):
        assert (failure is None) == (expected is None)
        if expected is not None:
            assert failure["inputs"] == expected["inputs"]
            assert_same_value(failure["lhs"], expected["lhs"])
            assert_same_value(failure["rhs"], expected["rhs"])
    return got[1]


def test_axioms_match_fraction_reference(monkeypatch):
    for q in (2, 3, 5):
        for ctx in contexts(q):
            rep = assert_axioms_match_reference(monkeypatch, ctx, 4)
            assert rep["first_failure"] is None
    for ctx in (all_ones_context(cyclic4()), induction_context(cyclic4())):
        assert_axioms_match_reference(monkeypatch, ctx, 3, seed=3,
                                      spot_checks=2)


def test_axioms_failures_match_fraction_reference(monkeypatch):
    """On unchecked triples every failing check, coassociativity and both
    convolutions included, reports what the Fraction sums report."""
    t = two_dim(3)
    for ctx in (*unchecked_d21(),
                HopfContext.unchecked(t, t.reg, t.reg, t.one)):
        failures, rep = failures_and_report(monkeypatch, verify_axioms, ctx, 4)
        kinds = {failure["inputs"][0] for failure in failures}
        assert {"coassociativity", "antipode_left",
                "antipode_right"} <= kinds
        assert rep == assert_axioms_match_reference(monkeypatch, ctx, 4)


def _flip_odd_left(terms):
    """``terms`` with the sign of each term of odd left degree flipped."""
    return {k: -v if k[0][0] % 2 else v for k, v in terms.items()}


def test_compatibility_mutant_matches_fraction_reference(monkeypatch):
    """A sign flip in ``_square_product_num`` turns compatibility checks
    red, and every failure, the first included, is what the Fraction
    reference reports with the same flip in its square product."""
    real = HopfContext._square_product_num

    def flipped(self, s, t):
        den, acc = real(self, s, t)
        return den, _flip_odd_left(acc)

    def flipped_reference(ctx, s, t, plain=reference_square_product):
        out = plain(ctx, s, t)
        out.terms = _flip_odd_left(out.terms)
        return out

    for ctx in (induction_context(two_dim(3)), induction_context(cyclic4())):
        assert verify_axioms(ctx, 3)["first_failure"] is None
        with monkeypatch.context() as patch:
            patch.setattr(HopfContext, "_square_product_num", flipped)
            patch.setitem(globals(), "reference_square_product",
                          flipped_reference)
            rep = assert_axioms_match_reference(monkeypatch, ctx, 3)
            assert rep["first_failure"]["inputs"][0] == "compatibility"
            assert 0 < rep["passed"] < rep["checked"]
            found = find_compat_counterexample(ctx, 3)
            assert found["lhs"] == rep["first_failure"]["lhs"]
            assert found["rhs"] == rep["first_failure"]["rhs"]


def test_coproduct_mutant_matches_fraction_reference(monkeypatch):
    """Doubling the terms of left degree 0 in ``_coproduct_num`` reaches
    the reference through the public coproduct, and turns the left
    counit, coassociativity and compatibility checks red: every failure
    is what the Fraction reference reports."""
    real = HopfContext._coproduct_num

    def doubled(self, n, x):
        den, acc = real(self, n, x)
        return den, {k: 2 * v if k[0][0] == 0 else v for k, v in acc.items()}

    for ctx in (induction_context(two_dim(3)), *unchecked_d21()[:1]):
        with monkeypatch.context() as patch:
            patch.setattr(HopfContext, "_coproduct_num", doubled)
            failures, _ = failures_and_report(monkeypatch, verify_axioms,
                                              ctx, 3)
            assert {"left_counit", "coassociativity", "compatibility"} <= {
                failure["inputs"][0] for failure in failures}
            # the context predates the patch: Δ is memoized under the
            # kernel looked up when the suite runs
            kernels = {k for k, _, _ in ctx._word_forms}
            assert doubled in kernels and real not in kernels
            rep = assert_axioms_match_reference(monkeypatch, ctx, 3)
            assert rep["first_failure"]["inputs"][0] == "left_counit"


def test_product_mutant_matches_fraction_reference(monkeypatch):
    """Doubling the products of total degree 2 in ``_product_num`` reaches
    the reference through the public product, and turns the unit,
    compatibility and associativity checks red (x·y·z where exactly one
    of x·y and y·z has degree 2): every failure, the first included, is
    what the Fraction reference reports.  A scale that depends on the
    total degree alone leaves both convolution sums and the bilinearity
    spot checks green."""
    real = HopfContext._product_num

    def doubled(self, dx, x, dy, y):
        den, acc = real(self, dx, x, dy, y)
        return den, ({w: 2 * v for w, v in acc.items()} if dx + dy == 2
                     else acc)

    def kinds(ctx):
        failures, _ = failures_and_report(monkeypatch, verify_axioms, ctx, 4,
                                          seed=5, spot_checks=3)
        return {failure["inputs"][0] for failure in failures}

    for ctx in (induction_context(two_dim(3)), *unchecked_d21()[:1]):
        before = kinds(ctx)
        with monkeypatch.context() as patch:
            patch.setattr(HopfContext, "_product_num", doubled)
            after = kinds(ctx)
            moved = {"left_unit", "right_unit", "compatibility",
                     "associativity"}
            assert moved <= after and after - before <= moved
            rep = assert_axioms_match_reference(monkeypatch, ctx, 4, seed=5,
                                                spot_checks=3)
            assert rep["first_failure"]["inputs"][0] == "left_unit"


def test_axioms_spot_checks_need_a_seed():
    ctx = all_ones_context(two_dim(2))
    with pytest.raises(ValueError, match="seed"):
        verify_axioms(ctx, 3, spot_checks=1)
    assert verify_axioms(ctx, 3, seed=None, spot_checks=0) == verify_axioms(
        ctx, 3)


def test_verify_all_passes_spot_checks_to_axioms():
    ctx = all_ones_context(two_dim(2))
    seeded = verify_all(ctx, 3, seed=11, spot_checks=4)
    assert seeded["axioms"] == verify_axioms(ctx, 3, seed=11, spot_checks=4)
    plain = verify_all(ctx, 3)
    assert plain["axioms"]["checked"] + 8 == seeded["axioms"]["checked"]
    assert {k: v for k, v in plain.items() if k != "axioms"} == {
        k: v for k, v in seeded.items() if k != "axioms"}


# the routes as verify_antipode_equivalence compared them on Fraction
# elements, each looked up when called
PUBLIC_ROUTES = (
    ("all_setcomps", lambda ctx, x: antipode_all_setcomps(ctx, x)),
    ("toggle_free", lambda ctx, x: antipode_toggle_free(ctx, x)),
    ("oracle", lambda ctx, x: antipode_oracle(ctx, x)),
)


def reference_verify_antipode_equivalence(ctx, max_degree):
    """``verify_antipode_equivalence`` through the public ``Fraction``
    routes: each basis word's antipode by every route against
    ``antipode_closed``'s, compared by ``==`` through ``verify._run`` as
    looked up at the call."""
    run, rep = verify._run, verify._report()
    for n in range(max_degree + 1):
        for w, x in word_elements(ctx, n):
            reference = antipode_closed(ctx, x)
            for name, route in PUBLIC_ROUTES:
                run(rep, ("closed_vs_" + name, n, w), route(ctx, x),
                    reference)
    rep["toggle_free_counts"] = {
        n: sum(1 for _ in toggle_free(n)) for n in range(1, max_degree + 1)}
    return rep


def _flip_from_one(n, terms):
    """``terms`` with the sign of each word starting with letter 1 flipped
    from degree 3 on."""
    return {w: -v if n >= 3 and w[0] == 1 else v for w, v in terms.items()}


def route_mutants():
    """(kernel name, the kernel sign-flipped by ``_flip_from_one``, the
    first route it turns red) for the set-composition and oracle
    kernels."""
    setcomp, oracle = antipode._setcomp_num, antipode._oracle_num

    def flipped_setcomp(ctx, n, x, comps_of):
        den, acc = setcomp(ctx, n, x, comps_of)
        return den, _flip_from_one(n, acc)

    def flipped_oracle(ctx, n, x):
        den, acc = oracle(ctx, n, x)
        return den, _flip_from_one(n, acc)

    return (("_setcomp_num", flipped_setcomp, "all_setcomps"),
            ("_oracle_num", flipped_oracle, "oracle"))


def assert_equivalence_matches_reference(monkeypatch, ctx, max_degree):
    got = failures_and_report(monkeypatch, verify_antipode_equivalence, ctx,
                              max_degree)
    want = failures_and_report(monkeypatch,
                               reference_verify_antipode_equivalence, ctx,
                               max_degree)
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for failure, expected in zip(got[0] + [got[1]["first_failure"]],
                                 want[0] + [want[1]["first_failure"]]):
        assert (failure is None) == (expected is None)
        if expected is not None:
            assert failure["inputs"] == expected["inputs"]
            assert_same_value(failure["lhs"], expected["lhs"])
            assert_same_value(failure["rhs"], expected["rhs"])
    return got[1]


def test_antipode_equivalence_matches_fraction_reference(monkeypatch):
    """On int kernels the suite reports what the public-route loop
    reports, on valid contexts and on unchecked triples."""
    for ctx in (*contexts(), induction_context(cyclic4()), *unchecked_d21()):
        assert_equivalence_matches_reference(monkeypatch, ctx, 4)


def test_route_mutants_match_fraction_reference(monkeypatch):
    """A sign flip in ``_setcomp_num`` or ``_oracle_num`` reaches the
    reference through the public routes and turns the suite red: every
    failure, the first included, is what the public-route loop reports."""
    for name, mutant, variant in route_mutants():
        for ctx in (induction_context(two_dim(3)),
                    induction_context(cyclic4())):
            with monkeypatch.context() as patch:
                patch.setattr(antipode, name, mutant)
                rep = assert_equivalence_matches_reference(monkeypatch, ctx,
                                                           4)
            assert rep["first_failure"]["inputs"][0] == "closed_vs_" + variant
            assert 0 < rep["passed"] < rep["checked"]
