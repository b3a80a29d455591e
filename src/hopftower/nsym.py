"""Distinguished bases over rank-2 theories and their rewriting rules.

For a two-character basis the degree-n component has dimension 2^(n-1),
matching the compositions of n, and three families of elements behave
like the complete, ribbon, and primitive-generator bases of
noncommutative symmetric functions: products concatenate or smash
compositions, the coproduct of a single-block element deconcatenates,
and the antipode alternates over refinements of the reversed
composition.  ``verify_nsym_rules`` checks all of those identities by
direct expansion; ``product_constants`` / ``coproduct_constants``
re-expand products and coproducts in a chosen family so structure
constants can be compared across different theories.

A family puts one letter inside the blocks and one at the boundaries,
so its degree-n members are the (n-1)-th tensor power of one 2x2 change
of basis, and ``expand_in_kind`` inverts it one tensor position at a
time.  All of it runs on int forms (see ``elements``), with ``Fraction``s
built only for a result: a constant, a public element or a failure report.
"""

from __future__ import annotations

from functools import cache, partial
from math import lcm

from .combinatorics import (boundary_bits, coarsenings,
                            composition_from_boundary_bits, compositions,
                            concat, interior_bits, refinements, smash)
from .elements import (TensorElement, _element, _expand_num, _expand_positions,
                       _fractions, _letter, _over_lcm, _square, _sum_forms)
from .functors import ind_along
from .theory import DualBasisUndefined, TheoryError, dual_pair
from .antipode import _closed_num
from .verify import _pairs, _report, _run

KINDS = ("h_basis", "ribbon", "shuffle_dual_primitive")


class InconsistentTag(TheoryError):
    """The requested family does not exist over this context (wrong rank,
    or the pairing elements do not satisfy the family's hypotheses)."""


def tau_iota_element(basis, tau, iota, mu):
    """The word with iota at the block boundaries of mu and tau inside
    the blocks, expanded over the basis.  Empty mu gives the unit.

    Swapping the two letters conjugates the composition:
    tau_iota_element(b, t, i, mu) == tau_iota_element(b, i, t, conjugate(mu)).
    """
    mu = tuple(mu)
    return _element(sum(mu), _family_num(tau, iota, mu))


def _family_num(tau, iota, mu):
    """``tau_iota_element``'s int form."""
    inside, boundary = _letter(tau.coords), _letter(iota.coords)
    return _expand_num([boundary if b else inside for b in boundary_bits(mu)])


def shuffle_dual_complement(ctx):
    """The class function orthogonal to beta (rank 2 only), scaled so its
    first nonzero coordinate is 1."""
    basis = ctx.basis
    if basis.dim != 2:
        raise InconsistentTag("complement letter needs a rank-2 basis")
    b0, b1 = ctx.beta.coords
    g0, g1 = basis.gram
    coords = (b1 * g1, -b0 * g0)
    if not any(coords):
        raise InconsistentTag("beta must be nonzero")
    lead = next(c for c in coords if c)
    return basis.element(tuple(c / lead for c in coords))


def _spans(tau, ctx):
    """True when tau and iota span the rank-2 space (nonzero determinant)."""
    (t0, t1), (i0, i1) = tau.coords, ctx.iota_coords
    return t0 * i1 - t1 * i0 != 0


def _letters(ctx, kind):
    """The family's (inside, boundary) letters, after its gates."""
    if ctx.basis.dim != 2:
        raise InconsistentTag("families are defined over rank-2 bases only")
    if kind in ("h_basis", "ribbon"):
        try:
            astar, bstar = dual_pair(ctx.alpha, ctx.beta)
        except DualBasisUndefined as exc:
            raise InconsistentTag(
                f"{kind} needs alpha, beta independent: {exc}") from exc
        return astar, (ctx.iota if kind == "h_basis" else bstar)
    if kind == "shuffle_dual_primitive":
        if ctx.alpha != ctx.beta:
            raise InconsistentTag(
                "shuffle_dual_primitive needs alpha == beta")
        tau = shuffle_dual_complement(ctx)
        if not _spans(tau, ctx):
            raise InconsistentTag("complement letter and iota must span")
        return tau, ctx.iota
    raise TheoryError(f"unknown family {kind!r}; choose one of {KINDS}")


def nsym_element(ctx, kind, mu):
    """One member of a distinguished family over a rank-2 context.

    ``h_basis``    — dual of alpha inside blocks, iota at boundaries;
                     multiplies by concatenation.
    ``ribbon``     — dual of alpha inside blocks, dual of beta at
                     boundaries; multiplies by concatenation + smash.
    ``shuffle_dual_primitive`` — requires alpha == beta; the complement
                     of beta inside blocks, iota at boundaries; a single
                     block gives a primitive element.
    """
    return tau_iota_element(ctx.basis, *_letters(ctx, kind), mu)


# -- expansion in a family ---------------------------------------------------

def _coordinates(ctx, kind, degree, letters=None):
    """Each basis letter's (inside, boundary) coordinates, its pairings
    with the dual pair of the family's letters (derived here unless
    given), as ``(L, letter -> (bit, int) pairs)``: the nonzero ones, bit 1
    for the boundary letter, as numerators over their lcm L.  Degree 0
    needs no family, and degree-1 words have no letters, so they need
    only the gates."""
    if degree == 0:
        return 1, {}
    inside, boundary = letters or _letters(ctx, kind)
    if degree == 1:
        return 1, {}
    duals = dual_pair(inside, boundary)
    den, *coords = _over_lcm(*zip(*(ctx.basis.pairings(d) for d in duals)))
    return den, {letter: tuple((bit, v) for bit, v in enumerate(pair) if v)
                 for letter, pair in enumerate(coords)}


def _in_kind(coords, degree, x):
    """The int form x of one degree in the family, one tensor position at
    a time: an int form on compositions."""
    common, nums = x
    if degree == 0:
        return common, {(): nums.get((), 0)}
    den, subs = coords
    bits = _expand_positions(nums, subs)
    return common * den ** (degree - 1), {
        composition_from_boundary_bits(b): v for b, v in bits.items()}


def expand_in_kind(ctx, kind, x):
    """Coefficients of x in the degree-matching family, as a dict from
    compositions to nonzero rationals."""
    return _fractions(*_in_kind(_coordinates(ctx, kind, x.degree), x.degree,
                                ctx._int_form(x)))


def _square_in_kind(coords, sq):
    """The int form sq of a tensor square in family ⊗ family: each
    (degree, word) expanded once, then one ``Fraction`` per (μ, ν)."""
    common, terms = sq
    expand = cache(lambda d, w: _in_kind(coords, d, (1, {w: 1})))
    steps = [(c, expand(*left), expand(*right))
             for (left, right), c in terms.items() if c]
    den, out = lcm(*(ld * rd for _, (ld, _), (rd, _) in steps)), {}
    for c, (ld, lefts), (rd, rights) in steps:
        c *= den // (ld * rd)
        for mu, lc in lefts.items():
            lc *= c
            for nu, rc in rights.items():
                out[key] = out.get(key := (mu, nu), 0) + lc * rc
    return _fractions(common * den, out)


def product_constants(ctx, kind, max_degree):
    """Structure constants of every family product up to total degree,
    keyed by the pair of compositions, each value a sorted tuple of
    (composition, coefficient)."""
    out = {}
    if max_degree < 2:
        return out
    letters = _letters(ctx, kind)
    coords = _coordinates(ctx, kind, 2, letters)
    family = cache(partial(_family_num, *letters))
    for a, mu, b, nu in _pairs(max_degree, compositions):
        prod = ctx._product_num(a, family(mu), b, family(nu))
        out[(mu, nu)] = tuple(sorted(
            _fractions(*_in_kind(coords, a + b, prod)).items()))
    return out


def coproduct_constants(ctx, kind, max_degree):
    """Coproduct structure constants of the family up to max_degree,
    keyed by composition, each value a sorted tuple of
    ((composition, composition), coefficient)."""
    out = {}
    if max_degree < 1:
        return out
    letters = _letters(ctx, kind)
    coords = _coordinates(ctx, kind, min(max_degree, 2), letters)
    for n in range(1, max_degree + 1):
        for mu in compositions(n):
            sq = ctx._coproduct_num(n, _family_num(*letters, mu))
            out[mu] = tuple(sorted(_square_in_kind(coords, sq).items()))
    return out


# -- rule verification --------------------------------------------------------

def verify_nsym_rules(ctx, max_degree):
    """Expand and compare the concatenation, ribbon, deconcatenation,
    coarsening, and compatibility rules up to max_degree.

    Returns {"checked", "passed", "first_failure"}.
    """
    report = _report()
    h_letters, r_letters = _letters(ctx, "h_basis"), _letters(ctx, "ribbon")
    comps = [mu for n in range(max_degree + 1) for mu in compositions(n)]
    h, r = ({mu: _family_num(*letters, mu) for mu in comps}
            for letters in (h_letters, r_letters))

    # products: concatenation for h, concatenation + smash for ribbons
    for a, mu, b, nu in _pairs(max_degree, compositions):
        element = partial(_element, a + b)
        _run(report, ("h_concat", mu, nu),
             ctx._product_num(a, h[mu], b, h[nu]), h[concat(mu, nu)], element)
        _run(report, ("ribbon_product", mu, nu),
             ctx._product_num(a, r[mu], b, r[nu]),
             _sum_forms(((1, r[concat(mu, nu)]), (1, r[smash(mu, nu)]))),
             element)

    # coproduct of a single block deconcatenates
    def tensor(j, k):
        (dl, left), (dr, right) = h[(j,) if j else ()], h[(k,) if k else ()]
        return dl * dr, {((j, lw), (k, rw)): lc * rc for lw, lc in left.items()
                         for rw, rc in right.items()}

    for n in range(1, max_degree + 1):
        _run(report, ("h_deconcat", n), ctx._coproduct_num(n, h[(n,)]),
             _sum_forms((1, tensor(j, n - j)) for j in range(n + 1)),
             _square)

    # h is the coarsening sum of ribbons
    for mu in comps[1:]:
        _run(report, ("h_coarsening", mu), h[mu],
             _sum_forms((1, r[nu]) for nu in coarsenings(mu)),
             partial(_element, sum(mu)))

    # compatibility of the coproduct with h products (bounded), on the
    # int forms of the factors and of their coproducts
    delta = cache(lambda mu: ctx._coproduct_num(sum(mu), h[mu]))
    for a, mu, b, nu in _pairs(min(max_degree, 4), compositions):
        _run(report, ("h_compat", mu, nu),
             ctx._coproduct_num(a + b, ctx._product_num(a, h[mu], b, h[nu])),
             ctx._square_product_num(delta(mu), delta(nu)), _square)

    # independent route to h when iota is the regular character and the
    # dual of alpha is the all-ones character
    if ctx.iota == ctx.basis.reg and h_letters[0] == ctx.basis.one:
        for mu in comps[1:]:
            bits = interior_bits(mu)
            ones = TensorElement(sum(bits) + 1,
                                 {(ctx.basis.one_index,) * sum(bits): 1})
            _run(report, ("h_induced", mu), h[mu],
                 _over_lcm(ind_along(ctx.basis, bits, ones).terms),
                 partial(_element, sum(mu)))
    return report


def antipode_corollaries(ctx, max_n):
    """Check every closed antipode evaluation whose hypotheses the
    context satisfies, up to degree max_n.

    Returns {"checked", "passed", "first_failure", "cases"}.
    """
    basis = ctx.basis
    if basis.dim != 2:
        raise InconsistentTag("corollaries are stated over rank-2 bases")
    report = _report(cases=[])

    def check(name, mu, want):
        # S of the family member at mu, from _closed_num, against want
        n = sum(mu)
        _run(report, name, _closed_num(ctx, n, family(mu)), want,
             partial(_element, n))

    if ctx.alpha == ctx.beta:
        tau = shuffle_dual_complement(ctx)
        family = cache(partial(_family_num, tau, ctx.iota))
        if _spans(tau, ctx):
            report["cases"].append("primitive_negation")
            for n in range(1, max_n + 1):
                check(("primitive_negation", n), (n,),
                      _sum_forms([(-1, family((n,)))]))
        if ctx.iota == basis.one and ctx.alpha == basis.one:
            report["cases"].append("block_reversal")
            for n in range(1, max_n + 1):
                for mu in compositions(n):
                    sign = -1 if len(mu) % 2 else 1
                    check(("block_reversal", mu), mu,
                          _sum_forms([(sign, family(mu[::-1]))]))
    else:
        astar, _ = _letters(ctx, "h_basis")
        family = cache(partial(_family_num, astar, ctx.iota))
        report["cases"].append("generator_shift")
        shifted = astar - ctx.iota
        for n in range(1, max_n + 1):
            check(("generator_shift", n), (n,),
                  _sum_forms([(-1, _family_num(shifted, ctx.iota, (n,)))]))
        if ctx.iota == basis.reg and astar == basis.one:
            report["cases"].append("h_alternating_sum")
            for n in range(1, max_n + 1):
                for mu in compositions(n):
                    check(("h_alternating_sum", mu), mu, _sum_forms(
                        (-1 if len(nu) % 2 else 1, family(nu))
                        for nu in refinements(mu[::-1])))
    return report
