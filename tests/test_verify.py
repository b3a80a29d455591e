"""The verification suites themselves: green on valid contexts, and
honest reporting on broken ones."""

from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.theory import cyclic4, two_dim
from hopftower.verify import (find_compat_counterexample,
                              verify_all, verify_antipode_equivalence,
                              verify_axioms, verify_characters)


def contexts(q=3):
    return all_ones_context(two_dim(q)), induction_context(two_dim(q))


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


def test_axioms_compute_each_antipode_once(monkeypatch):
    """verify_axioms takes S of each basis word once, however many
    convolution identities use it."""
    import hopftower.verify as verify
    seen = []
    real = verify.antipode_closed

    def counted(ctx, x):
        seen.append((x.degree, tuple(x.terms.items())))
        return real(ctx, x)
    monkeypatch.setattr(verify, "antipode_closed", counted)
    rep = verify_axioms(induction_context(two_dim(3)), 4)
    assert rep["first_failure"] is None
    assert seen and len(seen) == len(set(seen))
