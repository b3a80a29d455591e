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
of basis, and ``expand_in_kind`` inverts it letter by letter.
"""

from __future__ import annotations

from .combinatorics import (boundary_bits, coarsenings,
                            composition_from_boundary_bits, compositions,
                            concat, descents, interior_bits, inverse,
                            partial_sums, permutations, refinements, smash)
from .elements import TensorElement, TensorSquare, _accumulate, expand_letters
from .functors import ind_along
from .theory import DualBasisUndefined, TheoryError, dual_pair
from .antipode import antipode_closed
from .verify import _report, _run

KINDS = ("h_basis", "ribbon", "shuffle_dual_primitive")


class InconsistentTag(TheoryError):
    """The requested family does not exist over this context (wrong rank,
    or the pairing elements do not satisfy the family's hypotheses)."""


def _check_composition(mu):
    mu = tuple(mu)
    if any(not isinstance(p, int) or p < 1 for p in mu):
        raise TheoryError("composition parts must be positive integers")
    return mu


def tau_iota_element(basis, tau, iota, mu):
    """The word with iota at the block boundaries of mu and tau inside
    the blocks, expanded over the basis.  Empty mu gives the unit.

    Swapping the two letters conjugates the composition:
    tau_iota_element(b, t, i, mu) == tau_iota_element(b, i, t, conjugate(mu)).
    """
    mu = _check_composition(mu)
    n = sum(mu)
    if n == 0:
        return TensorElement(0, {(): 1})
    bits = boundary_bits(mu)
    entries = [iota.coords if b else tau.coords for b in bits]
    return TensorElement(n, expand_letters(entries, 1))


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

def _coordinates(ctx, kind, degree):
    """Each basis letter's (inside, boundary) coordinates, its pairings
    with the dual pair of the family's letters.  Degree 0 needs no family,
    and degree-1 words have no letters, so they need only the gates."""
    if degree == 0:
        return ()
    inside, boundary = _letters(ctx, kind)
    if degree == 1:
        return ()
    duals = dual_pair(inside, boundary)
    return tuple(zip(*(ctx.basis.pairings(d) for d in duals)))


def _in_kind(coords, degree, terms):
    """Expand a degree's word -> rational dict letter by letter; the sorted
    boundary-bit words it gives are the compositions in their order."""
    if degree == 0:
        c = terms.get((), 0)
        return {(): c} if c else {}
    acc = {}
    for word, c in terms.items():
        for bits, v in expand_letters([coords[i] for i in word], c).items():
            _accumulate(acc, bits, v)
    return {composition_from_boundary_bits(bits): acc[bits]
            for bits in sorted(acc)}


def expand_in_kind(ctx, kind, x):
    """Coefficients of x in the degree-matching family, as a dict from
    compositions to nonzero rationals."""
    return _in_kind(_coordinates(ctx, kind, x.degree), x.degree, x.terms)


def expand_square_in_kind(ctx, kind, sq):
    """Coefficients of a tensor-square element in family ⊗ family."""
    top = max((max(ld, rd) for (ld, _), (rd, _) in sq.terms), default=0)
    coords = _coordinates(ctx, kind, top)
    out = {}
    for ((ld, lw), (rd, rw)), c in sq.terms.items():
        rights = _in_kind(coords, rd, {rw: 1}).items()
        for mu, lc in _in_kind(coords, ld, {lw: c}).items():
            for nu, rc in rights:
                _accumulate(out, (mu, nu), lc * rc)
    return out


def product_constants(ctx, kind, max_degree):
    """Structure constants of every family product up to total degree,
    keyed by the pair of compositions, each value a sorted tuple of
    (composition, coefficient)."""
    out = {}
    for total in range(2, max_degree + 1):
        for a in range(1, total):
            for mu in compositions(a):
                xa = nsym_element(ctx, kind, mu)
                for nu in compositions(total - a):
                    prod = ctx.product(xa, nsym_element(ctx, kind, nu))
                    out[(mu, nu)] = tuple(
                        sorted(expand_in_kind(ctx, kind, prod).items()))
    return out


def coproduct_constants(ctx, kind, max_degree):
    """Coproduct structure constants of the family up to max_degree,
    keyed by composition, each value a sorted tuple of
    ((composition, composition), coefficient)."""
    out = {}
    for n in range(1, max_degree + 1):
        for mu in compositions(n):
            sq = ctx.coproduct(nsym_element(ctx, kind, mu))
            out[mu] = tuple(
                sorted(expand_square_in_kind(ctx, kind, sq).items()))
    return out


# -- rule verification --------------------------------------------------------

def verify_nsym_rules(ctx, max_degree):
    """Expand and compare the concatenation, ribbon, deconcatenation,
    coarsening, and compatibility rules up to max_degree.

    Returns {"checked", "passed", "first_failure"}.
    """
    report = _report()

    h = {}
    r = {}
    for n in range(1, max_degree + 1):
        for mu in compositions(n):
            h[mu] = nsym_element(ctx, "h_basis", mu)
            r[mu] = nsym_element(ctx, "ribbon", mu)
    h[()] = TensorElement(0, {(): 1})

    # products: concatenation for h, concatenation + smash for ribbons
    for total in range(2, max_degree + 1):
        for a in range(1, total):
            for mu in compositions(a):
                for nu in compositions(total - a):
                    _run(report, ("h_concat", mu, nu),
                         ctx.product(h[mu], h[nu]), h[concat(mu, nu)])
                    _run(report, ("ribbon_product", mu, nu),
                         ctx.product(r[mu], r[nu]),
                         r[concat(mu, nu)] + r[smash(mu, nu)])

    # coproduct of a single block deconcatenates
    for n in range(1, max_degree + 1):
        want = TensorSquare()
        for j in range(n + 1):
            want += TensorSquare.tensor(h[(j,) if j else ()],
                                        h[(n - j,) if n - j else ()])
        _run(report, ("h_deconcat", n), ctx.coproduct(h[(n,)]), want)

    # h is the coarsening sum of ribbons
    for n in range(1, max_degree + 1):
        for mu in compositions(n):
            want = TensorElement(n)
            for nu in coarsenings(mu):
                want += r[nu]
            _run(report, ("h_coarsening", mu), h[mu], want)

    # compatibility of the coproduct with h products (bounded)
    for total in range(2, min(max_degree, 4) + 1):
        for a in range(1, total):
            for mu in compositions(a):
                ca = ctx.coproduct(h[mu])
                for nu in compositions(total - a):
                    _run(report, ("h_compat", mu, nu),
                         ctx.coproduct(ctx.product(h[mu], h[nu])),
                         ctx.square_product(ca, ctx.coproduct(h[nu])))

    # independent route to h when iota is the regular character and the
    # dual of alpha is the all-ones character
    astar, _ = dual_pair(ctx.alpha, ctx.beta)
    if ctx.iota == ctx.basis.reg and astar == ctx.basis.one:
        for n in range(1, max_degree + 1):
            for mu in compositions(n):
                bits = interior_bits(mu)
                ones = TensorElement(
                    sum(bits) + 1,
                    {(ctx.basis.one_index,) * sum(bits): 1})
                _run(report, ("h_induced", mu),
                     h[mu], ind_along(ctx.basis, bits, ones))
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

    if ctx.alpha == ctx.beta:
        tau = shuffle_dual_complement(ctx)
        if _spans(tau, ctx):
            report["cases"].append("primitive_negation")
            for n in range(1, max_n + 1):
                x = tau_iota_element(basis, tau, ctx.iota, (n,))
                _run(report, ("primitive_negation", n),
                     antipode_closed(ctx, x), -x)
        if ctx.iota == basis.one and ctx.alpha == basis.one:
            report["cases"].append("block_reversal")
            for n in range(1, max_n + 1):
                for mu in compositions(n):
                    x = tau_iota_element(basis, tau, ctx.iota, mu)
                    sign = -1 if len(mu) % 2 else 1
                    y = tau_iota_element(basis, tau, ctx.iota,
                                         tuple(reversed(mu)))
                    _run(report, ("block_reversal", mu),
                         antipode_closed(ctx, x), sign * y)
    else:
        try:
            astar, _ = dual_pair(ctx.alpha, ctx.beta)
        except DualBasisUndefined as exc:
            raise InconsistentTag(str(exc)) from exc
        report["cases"].append("generator_shift")
        shifted = astar - ctx.iota
        for n in range(1, max_n + 1):
            x = tau_iota_element(basis, astar, ctx.iota, (n,))
            y = tau_iota_element(basis, shifted, ctx.iota, (n,))
            _run(report, ("generator_shift", n),
                 antipode_closed(ctx, x), -y)
        if ctx.iota == basis.reg and astar == basis.one:
            report["cases"].append("h_alternating_sum")
            for n in range(1, max_n + 1):
                for mu in compositions(n):
                    x = nsym_element(ctx, "h_basis", mu)
                    want = TensorElement(n)
                    for nu in refinements(tuple(reversed(mu))):
                        sign = -1 if len(nu) % 2 else 1
                        want.add_scaled(
                            nsym_element(ctx, "h_basis", nu).terms, sign)
                    _run(report, ("h_alternating_sum", mu),
                         antipode_closed(ctx, x), want)
    return report


# -- descent classes -----------------------------------------------------------

class FundamentalImage:
    """The permutations whose inverse has a prescribed descent set."""

    __slots__ = ("mu", "perms")

    def __init__(self, mu, perms):
        self.mu = tuple(mu)
        self.perms = tuple(perms)

    def __len__(self):
        return len(self.perms)

    def __iter__(self):
        return iter(self.perms)

    def __contains__(self, w):
        return tuple(w) in self.perms

    def __eq__(self, other):
        return (isinstance(other, FundamentalImage)
                and self.mu == other.mu and self.perms == other.perms)

    def __repr__(self):
        return f"FundamentalImage(mu={self.mu}, size={len(self.perms)})"


def descent_embedding(mu, bound=7):
    """All permutations of sum(mu) letters whose inverse descent set is
    the partial-sum set of mu.  The classes over all compositions of n
    partition the symmetric group."""
    mu = _check_composition(mu)
    if not mu:
        raise TheoryError("composition must be nonempty")
    n = sum(mu)
    if n > bound:
        raise ValueError(
            f"degree {n} exceeds the bound {bound} for descent classes")
    target = set(partial_sums(mu))
    perms = tuple(w for w in permutations(n)
                  if descents(inverse(w)) == target)
    return FundamentalImage(mu, perms)
