"""Exhaustive small-degree verification suites.

Every suite walks basis words (and pairs/triples of them) up to a degree
bound, compares two independently computed sides of an identity, and
returns a report dict with the number of comparisons made, the number
that agreed, and a description of the first failure (or None).  Nothing
is sampled unless a seed is passed explicitly; the default runs are
exhaustive and deterministic, and spot checks without a seed are refused.

``verify_axioms`` checks on int forms (see ``elements``): Δ and S of
each basis word from the context's memo (``HopfContext._word_form`` of
``_coproduct_num`` and of ``antipode._closed_num``), and every
exhaustive check sums and multiplies on them through the int kernels:
the counit, coassociativity and antipode sums in one pass over each
Δ(w), and compatibility's Δ(x·y) from the Δ(w) of the words w of x·y.
``verify_antipode_equivalence`` compares the routes' kernels
(``antipode.ROUTES``) with the memo's closed S.  ``_run`` compares two
int forms itself, and builds the ``Fraction`` values the public kernels
would give only for the first failure, in the kernels' own key order: a
report's values compare by ``==`` and serialize sorted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .antipode import ROUTES
# after the line above: before antipode is loaded, this would go through
# the package's __getattr__, which imports every module
from . import antipode
from .elements import TensorElement, _element, _fractions, _same, _square
from .hopf import _splice


def _report(**extra):
    """An empty suite report; ``extra`` adds suite-specific keys."""
    return {"checked": 0, "passed": 0, "first_failure": None, **extra}


def _run(report, name, lhs, rhs, wrap=None):
    """One comparison: of two values by ``==``, or, given ``wrap``, of two
    int forms by ``_same``.  On the first failure ``wrap`` turns each int
    form into the report's value: ``_terms``, ``_square`` or a degree's
    ``_element``."""
    report["checked"] += 1
    if _same(lhs, rhs) if wrap else lhs == rhs:
        report["passed"] += 1
    elif report["first_failure"] is None:
        if wrap:
            lhs, rhs = wrap(lhs), wrap(rhs)
        report["first_failure"] = {"inputs": name, "lhs": lhs, "rhs": rhs}


def _terms(form):
    """The int form's nonzero ``Fraction`` terms as a plain dict."""
    return _fractions(*form)


def _basis_forms(ctx, degree):
    for w in ctx.basis_words(degree):
        yield w, (1, {w: 1})


def _pairs(top, items):
    """Every (a, u, b, v) with u in items(a), v in items(b), a, b >= 1 and
    a + b <= top, by a + b, then a, then u, then v."""
    for total in range(2, top + 1):
        for a in range(1, total):
            for u in items(a):
                for v in items(total - a):
                    yield a, u, total - a, v


def _compat_checks(ctx, max_degree):
    """Product/coproduct compatibility on every pair of basis words, by
    total degree: yields ((a, wx), (b, wy), lhs, rhs): Δ(x·y) as Σ c·Δ(w)
    over the terms c·w of x·y, each Δ(w) over D^(2(a+b-1)), and the square
    product of Δx and Δy."""
    delta = partial(ctx._word_form, type(ctx)._coproduct_num)
    product = ctx._product_num
    for a, wx, b, wy in _pairs(max_degree, ctx.basis_words):
        den, xy = product(a, (1, {wx: 1}), b, (1, {wy: 1}))
        lhs = {}
        for w, c in xy.items():
            for k, v in delta(a + b, w)[1].items():
                lhs[k] = lhs.get(k, 0) + c * v
        yield ((a, wx), (b, wy), (den * ctx._den ** (2 * (a + b - 1)), lhs),
               ctx._square_product_num(delta(a, wx), delta(b, wy)))


def verify_axioms(ctx, max_degree, seed=None, spot_checks=0):
    """Unit, counit, associativity, coassociativity, product/coproduct
    compatibility, and both antipode convolution identities, exhaustively
    on basis words up to total degree max_degree."""
    if spot_checks and seed is None:
        raise ValueError("spot checks sample: pass a seed")
    rep = _report()
    unit, product = (1, {(): 1}), ctx._product_num
    iota, iota_den = ctx._iota_num, ctx._den
    delta_num = partial(ctx._word_form, type(ctx)._coproduct_num)
    antipode_num = partial(ctx._word_form, antipode._closed_num)
    for n in range(max_degree + 1):
        element = partial(_element, n)
        for w, x in _basis_forms(ctx, n):
            _run(rep, ("left_unit", n, w), product(0, unit, n, x), x, element)
            _run(rep, ("right_unit", n, w), product(n, x, 0, unit), x, element)

            # one pass over Δ(w): the counit strips, c·c2 on each side of
            # coassociativity, c·S(left)·right and c·left·S(right).  Δ and S
            # of a degree-k word are over D^(2·max(k-1, 0)), so Δ(w)'s den
            # pads each factor: sides over den², convolutions over den²·D
            den, cop_num = delta_num(n, w)
            left_strip, right_strip, triple_a, triple_b = {}, {}, {}, {}
            left_conv, right_conv = {}, {}
            for (left, right), c in cop_num.items():
                (ld, lw), (rd, rw) = left, right
                if ld == 0:
                    left_strip[rw] = c
                if rd == 0:
                    right_strip[lw] = c
                sub_den, sub = delta_num(*left)
                c_pad = c * (den // sub_den)
                for (l2, r2), c2 in sub.items():
                    key = (l2, r2, right)
                    triple_a[key] = triple_a.get(key, 0) + c_pad * c2
                sub_den, sub = delta_num(*right)
                c_pad = c * (den // sub_den)
                for (l2, r2), c2 in sub.items():
                    key = (left, l2, r2)
                    triple_b[key] = triple_b.get(key, 0) + c_pad * c2
                s_den, s = antipode_num(ld, lw)
                c_pad = c * (den // s_den)
                for u, v in s.items():
                    for k, cw in _splice(ld, u, rd, rw, iota, iota_den):
                        left_conv[k] = left_conv.get(k, 0) + c_pad * v * cw
                s_den, s = antipode_num(rd, rw)
                c_pad = c * (den // s_den)
                for u, v in s.items():
                    for k, cw in _splice(ld, lw, rd, u, iota, iota_den):
                        right_conv[k] = right_conv.get(k, 0) + c_pad * v * cw
            _run(rep, ("left_counit", n, w), (den, left_strip), x, element)
            _run(rep, ("right_counit", n, w), (den, right_strip), x, element)
            _run(rep, ("coassociativity", n, w), (den * den, triple_a),
                 (den * den, triple_b), _terms)
            if n >= 1:
                for name, conv in (("antipode_left", left_conv),
                                   ("antipode_right", right_conv)):
                    _run(rep, (name, n, w), (den * den * iota_den, conv),
                         (1, {}), element)

    for x, y, lhs, rhs in _compat_checks(ctx, max_degree):
        _run(rep, ("compatibility", x, y), lhs, rhs, _square)

    for total in range(3, max_degree + 1):
        element = partial(_element, total)
        for a in range(1, total - 1):
            for b in range(1, total - a):
                c = total - a - b
                for wx, x in _basis_forms(ctx, a):
                    for wy, y in _basis_forms(ctx, b):
                        xy = product(a, x, b, y)
                        for wz, z in _basis_forms(ctx, c):
                            _run(rep, ("associativity",
                                       (a, wx), (b, wy), (c, wz)),
                                 product(a + b, xy, c, z),
                                 product(a, x, b + c, product(b, y, c, z)),
                                 element)

    if spot_checks:
        rng = random.Random(seed)
        dim = ctx.basis.dim
        for k in range(spot_checks):
            a = rng.randint(1, max(1, max_degree - 1))
            b = rng.randint(1, max(1, max_degree - a))
            x1 = _random_element(rng, ctx, a)
            x2 = _random_element(rng, ctx, a)
            y = _random_element(rng, ctx, b)
            _run(rep, ("bilinearity_left", k),
                 ctx.product(x1 + x2, y),
                 ctx.product(x1, y) + ctx.product(x2, y))
            _run(rep, ("bilinearity_right", k),
                 ctx.product(y, x1 + x2),
                 ctx.product(y, x1) + ctx.product(y, x2))
    return rep


def _random_element(rng, ctx, degree):
    out = TensorElement(degree)
    words = list(ctx.basis_words(degree))
    for _ in range(rng.randint(1, 3)):
        w = words[rng.randrange(len(words))]
        out.add_term(w, Fraction(rng.randint(-4, 4)))
    return out


def find_compat_counterexample(ctx, max_degree):
    """First basis-word pair (by total degree, then enumeration order)
    where the coproduct of the product differs from the product of the
    coproducts.  Returns None when compatibility holds throughout."""
    rep = _report()
    for x, y, lhs, rhs in _compat_checks(ctx, max_degree):
        _run(rep, {"x": x, "y": y}, lhs, rhs, _square)
        if rep["first_failure"]:
            return rep["first_failure"]
    return None


def verify_antipode_equivalence(ctx, max_degree):
    """All four antipode computations agree on every basis word up to
    max_degree: the closed composition formula, the full ordered-set-
    partition sum, its toggle-free reduction, and the convolution-
    equation solution, as int kernels."""
    from .combinatorics import toggle_free
    rep = _report()
    for n in range(max_degree + 1):
        element = partial(_element, n)
        for w, x in _basis_forms(ctx, n):
            reference = ctx._word_form(antipode._closed_num, n, w)
            for name, route in ROUTES:
                _run(rep, ("closed_vs_" + name, n, w), route(ctx, n, x),
                     reference, element)
    rep["toggle_free_counts"] = {
        n: sum(1 for _ in toggle_free(n)) for n in range(1, max_degree + 1)}
    return rep


def verify_characters(ctx, max_degree):
    """Group laws for linear characters built from the context's own
    pairing elements: multiplicativity, convolution identity and
    associativity, two-sided inverses, and a non-multiplicative negative
    control.  Each character's multiplicativity is checked once; its
    group laws run only when it holds, associativity only when all three
    hold, since convolve and inverse raise on a non-morphism."""
    from .characters import (constant_character, convolve, counit_character,
                             inverse)
    rep = _report()
    eps = counit_character(ctx, max_degree)
    half = (ctx.alpha + ctx.beta) / 2
    psis = [constant_character(ctx, ctx.alpha, max_degree),
            constant_character(ctx, ctx.beta, max_degree),
            constant_character(ctx, half, max_degree)]

    for i, psi in enumerate(psis):
        _run(rep, ("multiplicative", i), psi._failure, None)
        if psi._failure is not None:
            continue
        _run(rep, ("convolve_identity_left", i), convolve(eps, psi), psi)
        _run(rep, ("convolve_identity_right", i), convolve(psi, eps), psi)
        inv = inverse(psi)
        _run(rep, ("inverse_left", i), convolve(inv, psi), eps)
        _run(rep, ("inverse_right", i), convolve(psi, inv), eps)

    if all(psi._failure is None for psi in psis):
        _run(rep, ("convolve_associative",),
             convolve(convolve(psis[0], psis[1]), psis[2]),
             convolve(psis[0], convolve(psis[1], psis[2])))

    # built to degree 2 at least: below that there is no split to fail
    doubled = constant_character(ctx, 2 * ctx.basis.one, max(max_degree, 2))
    bad = doubled._failure
    _run(rep, ("negative_control",),
         None if bad is None else bad[:2], (2, 1))
    return rep


def verify_all(ctx, max_degree, seed=None, spot_checks=0):
    """Run every suite that applies to the context; ``seed`` and
    ``spot_checks`` go to :func:`verify_axioms`."""
    out = {
        "axioms": verify_axioms(ctx, max_degree, seed, spot_checks),
        "antipode": verify_antipode_equivalence(ctx, max_degree),
        "characters": verify_characters(ctx, min(max_degree, 4)),
    }
    if ctx.basis.dim == 2:
        from .nsym import antipode_corollaries, verify_nsym_rules
        if ctx.alpha != ctx.beta:
            out["nsym"] = verify_nsym_rules(ctx, max_degree)
        out["antipode_corollaries"] = antipode_corollaries(
            ctx, min(max_degree, 5))
    return out
