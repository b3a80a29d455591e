"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with its runtime and (non-binding) budget.

Run plainly with ``pytest tests/test_acceptance.py``; the summary lines
are emitted to the terminal even without ``-s``.
"""

import math
import time
from itertools import product as iproduct

from hopftower.characters import (check_morphism, constant_character,
                                  inverse, is_odd)
from hopftower.combinatorics import (boundary_bits, bc_bits, compositions,
                                     composition_from_boundary_bits, concat,
                                     conjugate, descent_embedding,
                                     interior_bits, lc_bits, llc_bits,
                                     set_compositions, setcomp_refinements,
                                     smash, toggle_free)
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.nsym import (antipode_corollaries, coproduct_constants,
                            product_constants, tau_iota_element,
                            verify_nsym_rules)
from hopftower.theory import cyclic4, from_table, two_dim
from hopftower.verify import (find_compat_counterexample,
                              verify_antipode_equivalence, verify_axioms,
                              verify_characters)
from test_combinatorics import composition_from_interior_bits


def both_contexts(basis):
    return all_ones_context(basis), induction_context(basis)


def _finish(capsys, num, name, budget, started, failures):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} ({name}): {verdict} in {elapsed:.2f}s "
              f"(budget {budget}s)")
    assert not failures, failures


def _expect_green(failures, label, report):
    if report["first_failure"] is not None:
        failures.append((label, report["first_failure"]))
    elif not report["checked"] == report["passed"] > 0:
        failures.append((label, report["checked"], report["passed"]))


def test_criterion_1_hopf_axioms(capsys):
    started = time.perf_counter()
    failures = []
    for q in (2, 3, 5):
        for ctx in both_contexts(two_dim(q)):
            _expect_green(failures, (q, ctx.iota.coords),
                          verify_axioms(ctx, 6))
    _finish(capsys, 1, "hopf axioms", 60, started, failures)


def test_criterion_2_compatibility_is_sharp(capsys):
    started = time.perf_counter()
    failures = []
    t = two_dim(3)
    bad = HopfContext.unchecked(t, t.reg, t.reg, t.one)
    found = find_compat_counterexample(bad, 3)
    if found is None:
        failures.append("no counterexample up to total degree 3")
    elif found["lhs"] == found["rhs"]:
        failures.append("reported counterexample does not differ")
    _finish(capsys, 2, "compatibility is sharp", 1, started, failures)


def test_criterion_3_antipode_routes(capsys):
    started = time.perf_counter()
    failures = []
    for ctx in both_contexts(two_dim(3)):
        rep = verify_antipode_equivalence(ctx, 5)
        _expect_green(failures, ctx.iota.coords, rep)
        for n, count in rep["toggle_free_counts"].items():
            if count != 3 ** (n - 1):
                failures.append(("count", n, count))
    for n in range(6, 8):
        count = sum(1 for _ in toggle_free(n))
        if count != 3 ** (n - 1):
            failures.append(("count", n, count))
    _finish(capsys, 3, "antipode routes", 120, started, failures)


def test_criterion_4_rank_two_families(capsys):
    started = time.perf_counter()
    failures = []
    constants = {}
    for q in (2, 5):
        ctx = induction_context(two_dim(q))
        _expect_green(failures, q, verify_nsym_rules(ctx, 6))
        for kind in ("h_basis", "ribbon"):
            constants[(q, kind, "prod")] = product_constants(ctx, kind, 6)
            constants[(q, kind, "cop")] = coproduct_constants(ctx, kind, 6)
    for kind in ("h_basis", "ribbon"):
        for which in ("prod", "cop"):
            if constants[(2, kind, which)] != constants[(5, kind, which)]:
                failures.append(("q-dependent", kind, which))
    _finish(capsys, 4, "rank-two families", 30, started, failures)


def test_criterion_5_antipode_corollaries(capsys):
    started = time.perf_counter()
    failures = []
    ones, ind = both_contexts(two_dim(3))
    rep = antipode_corollaries(ones, 5)
    _expect_green(failures, "alpha=beta", rep)
    if "block_reversal" not in rep["cases"]:
        failures.append(("missing case", rep["cases"]))
    rep = antipode_corollaries(ind, 5)
    _expect_green(failures, "alpha!=beta", rep)
    if "h_alternating_sum" not in rep["cases"]:
        failures.append(("missing case", rep["cases"]))
    _finish(capsys, 5, "antipode corollaries", 10, started, failures)


def test_criterion_6_character_group(capsys):
    started = time.perf_counter()
    failures = []
    for ctx in both_contexts(two_dim(3)):
        for psi in (ctx.alpha, ctx.beta):
            if check_morphism(constant_character(ctx, psi, 4)) is not None:
                failures.append(("not multiplicative", psi.coords))
        # every convolution inside re-derives the coproduct composite and
        # raises on mismatch, so a green report certifies both routes
        _expect_green(failures, ctx.iota.coords, verify_characters(ctx, 4))
    chi = constant_character(all_ones_context(two_dim(3)),
                             two_dim(3).one, 5)
    if not is_odd(chi):
        failures.append("constant character is not odd")
    inv = inverse(chi)
    for n in range(1, 6):
        sign = -1 if n % 2 else 1
        if inv.components[n] != sign * chi.components[n]:
            failures.append(("inverse sign", n))
    _finish(capsys, 6, "character group", 30, started, failures)


def test_criterion_7_free_generators_and_primitives(capsys):
    started = time.perf_counter()
    failures = []
    for ctx in both_contexts(two_dim(3)):
        for n in range(7):
            for w in ctx.basis_words(n):
                segments = ctx.factor_into_generators(w)
                if ctx.multiply_generators(segments) != (
                        ctx.working_word_element(w)):
                    failures.append(("round trip", ctx.iota.coords, n, w))
    ones = all_ones_context(two_dim(3))
    tau = ones.basis.reg - ones.basis.one
    for n in range(1, 6):
        x = tau_iota_element(ones.basis, tau, ones.basis.one, (n,))
        if not ones.is_primitive(x):
            failures.append(("not primitive", n))
    _finish(capsys, 7, "free generators and primitives", 10, started,
            failures)


def test_criterion_8_combinatorial_identities(capsys):
    started = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for mu in compositions(n):
            if composition_from_boundary_bits(boundary_bits(mu)) != mu:
                failures.append(("boundary round trip", mu))
            if composition_from_interior_bits(interior_bits(mu)) != mu:
                failures.append(("interior round trip", mu))
            if boundary_bits(conjugate(mu)) != interior_bits(mu):
                failures.append(("conjugate complement", mu))
    for bits in iproduct((0, 1), repeat=6):
        if boundary_bits(composition_from_boundary_bits(bits)) != bits:
            failures.append(("bits round trip", bits))
    for mu in compositions(3):
        for nu in compositions(4):
            if boundary_bits(concat(mu, nu)) != (
                    boundary_bits(mu) + (1,) + boundary_bits(nu)):
                failures.append(("concat bits", mu, nu))
            if boundary_bits(smash(mu, nu)) != (
                    boundary_bits(mu) + (0,) + boundary_bits(nu)):
                failures.append(("smash bits", mu, nu))
    for n in range(1, 6):
        for B in set_compositions(n):
            stats_b = (lc_bits(B), llc_bits(B), bc_bits(B))
            for A in setcomp_refinements(B):
                stats_a = (lc_bits(A), llc_bits(A), bc_bits(A))
                for sa, sb in zip(stats_a, stats_b):
                    if not all(a <= b for a, b in zip(sa, sb)):
                        failures.append(("monotonicity", A, B))
    for n in range(1, 7):
        total = sum(len(descent_embedding(mu)) for mu in compositions(n))
        if total != math.factorial(n):
            failures.append(("descent partition", n, total))
    _finish(capsys, 8, "combinatorial identities", 10, started, failures)


def test_criterion_9_rank_three_table(capsys):
    started = time.perf_counter()
    failures = []
    basis = from_table(((1, 1, 1), (1, 1, -1), (2, -2, 0)),
                       (1, 1, 2), 0, labels=("one", "sgn", "s"))
    if basis != cyclic4():
        failures.append("table does not rebuild the built-in basis")
    for ctx in both_contexts(basis):
        _expect_green(failures, ("axioms", ctx.iota.coords),
                      verify_axioms(ctx, 4))
        rep = verify_antipode_equivalence(ctx, 4)
        rep.pop("toggle_free_counts")
        _expect_green(failures, ("antipode", ctx.iota.coords), rep)
    ctx = all_ones_context(basis)
    for n in range(1, 7):
        if len(list(ctx.basis_words(n))) != 3 ** (n - 1):
            failures.append(("dimension", n))
    _finish(capsys, 9, "rank-three table", 60, started, failures)
