"""Four independent routes to the antipode.

``antipode_closed`` sums over integer compositions of the degree: the
blocks, reversed, contribute difference letters (letter minus its
alpha-pairing times iota) joined by iota separators, weighted by beta
pairings of the boundary letters and signed by block count.

``antipode_all_setcomps`` evaluates the defining sum over every ordered
set partition of the tensor positions through its per-degree table: set
compositions that do the same to the positions are grouped and their
signs added, and the net signs left are those of the 3^(n-1) toggle-free
set compositions, the sum ``antipode_toggle_free`` evaluates.

``antipode_oracle`` uses none of the formulas: it solves the convolution
equation m(S ⊗ id)Δ = unit∘counit degree by degree, from the public
coproduct and the iota splice of the product.

``antipode_closed`` and ``antipode_oracle`` compute with int numerators
over powers of the context's denominator D and build one ``Fraction`` per
output term; the set-composition routes multiply ``Fraction`` factors.
Every per-degree plan is context-free and kept in a bounded cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .combinatorics import (bc_bits, compositions, llc_bits, partial_sums,
                            set_compositions, straighten, toggle_free)
from .elements import TensorElement, _accumulate, expand_letters
from .hopf import _expand_int


def antipode_closed(ctx, x):
    """Closed-form antipode, linear in x."""
    # degree 0 needs no case of its own: the empty composition gives
    # S(unit) = unit
    n = x.degree
    out = TensorElement(n)
    if not x.terms:
        return out
    iota, beta, diff = ctx._iota_num, ctx._beta_num, ctx._diff_num
    common = lcm(*(c.denominator for c in x.terms.values()))
    acc = {}
    for word, coeff in x.terms.items():
        num = coeff.numerator * (common // coeff.denominator)
        for sign, cuts, template in _closed_plans(n):
            scalar = sign * num
            for j in cuts:
                scalar *= beta[word[j]]
                if not scalar:
                    break
            if not scalar:
                continue
            for w, c in _expand_int(
                    [iota if j is None else diff[word[j]] for j in template],
                    scalar).items():
                _accumulate(acc, w, c)
    # over the context's denominator D each summand carries D^2(n-1):
    # D per beta pairing and per iota separator (one each per cut), D^2
    # per difference letter
    den = common * ctx._den ** (2 * max(n - 1, 0))
    out.terms = {w: Fraction(v, den) for w, v in acc.items()}
    return out


@lru_cache(maxsize=16)
def _closed_plans(n):
    """Per composition of n: (sign, the boundary letter after each block
    but the last, the blocks' letters in reversed block order with None
    for an iota separator)."""
    plans = []
    for mu in compositions(n):
        cuts = partial_sums(mu)
        bounds = (0,) + cuts + (n,)
        template = []
        for b in range(len(mu), 0, -1):  # reversed block order
            template.extend(range(bounds[b - 1], bounds[b] - 1))
            if b != 1:
                template.append(None)
        plans.append((-1 if len(mu) % 2 else 1,
                      tuple(cut - 1 for cut in cuts), tuple(template)))
    return tuple(plans)


@lru_cache(maxsize=16)
def _setcomp_table(comps_of, n):
    """The sum over comps_of(n) as ((pairs, slots), net sign) items: under
    A, letter j (between positions j+1, j+2) fills its slot of
    straighten(A) if both share a block, else pairs as (j, 1 for alpha or
    0 for beta); empty slots hold iota.  Equal keys add their signs."""
    table = {}
    for A in comps_of(n):
        w, llc, bc = straighten(A), llc_bits(A), bc_bits(A)
        pairs, slots = [], [None] * (n - 1)
        for j in range(n - 1):
            if bc[j]:
                slots[w[j] - 1] = j
            else:
                pairs.append((j, llc[j]))
        _accumulate(table, (tuple(pairs), tuple(slots)),
                    -1 if len(A) % 2 else 1)
    return tuple(table.items())


def _setcomp_sum(ctx, x, comps_of):
    out = TensorElement(x.degree)
    if x.degree == 0:
        out += x
        return out
    table = _setcomp_table(comps_of, x.degree)
    pairing, iota = (ctx.pair_beta, ctx.pair_alpha), ctx.iota_coords
    for word, coeff in x.terms.items():
        for (pairs, slots), sign in table:
            scalar = sign * coeff
            for j, flag in pairs:
                scalar *= pairing[flag][word[j]]
                if not scalar:
                    break
            if scalar:
                out.add_scaled(expand_letters(
                    [iota if j is None else word[j] for j in slots], scalar))
    return out


def antipode_all_setcomps(ctx, x):
    """Antipode as the full sum over ordered set partitions of the
    positions."""
    return _setcomp_sum(ctx, x, set_compositions)


def antipode_toggle_free(ctx, x):
    """Antipode as the reduced sum over toggle-free set compositions."""
    return _setcomp_sum(ctx, x, toggle_free)


def antipode_oracle(ctx, x):
    """Antipode from the convolution equation: on a degree-n word,
    S(x) = -x - sum of S(left)·right over the strictly intermediate
    coproduct terms.  Memoized per context and basis word."""
    n = x.degree
    out = TensorElement(n)
    if n == 0:
        out += x
        return out
    if not x.terms:
        return out
    common = lcm(*(c.denominator for c in x.terms.values()))
    parts = [(coeff.numerator * (common // coeff.denominator),
              *_oracle_word(ctx, n, word)) for word, coeff in x.terms.items()]
    den = ctx._den
    top = max(e for _, e, _ in parts)
    acc = {}
    for num, e, s in parts:
        scalar = num * den ** (top - e)
        for w, v in s.items():
            _accumulate(acc, w, scalar * v)
    den = common * den ** top
    out.terms = {w: Fraction(v, den) for w, v in acc.items()}
    return out


def _oracle_word(ctx, degree, word):
    """S of one basis word of positive degree as ``(e, numerators)``: the
    coefficient of each word is its int numerator over D^e, D the
    context's denominator ``ctx._den``.  Built from ``ctx.coproduct`` and
    the iota splice alone, and cached in ``ctx._antipode_cache``."""
    cache = ctx._antipode_cache
    key = (degree, word)
    if key in cache:
        return cache[key]
    den = ctx._den
    top = 2 * (degree - 1)
    scale = den ** top  # Δ of a basis word is over D^top
    steps = []
    for ((ld, lw), (rd, rw)), c in ctx.coproduct(
            TensorElement(degree, {word: 1})).terms.items():
        if ld == 0 or ld == degree:
            continue
        q, r = divmod(scale, c.denominator)
        if r:
            raise ArithmeticError(f"coproduct coefficient {c} of {word} "
                                  f"is not over D^{top}")
        steps.append((c.numerator * q, rw, *_oracle_word(ctx, ld, lw)))
    # c·S(left)·right is over D^(top + e + 1): Δ, S(left) and one iota
    exp = max((top + 1 + e for _, _, e, _ in steps), default=0)
    acc = {word: -den ** exp}
    iota = ctx._iota_num
    for c, rw, e, s_left in steps:
        scalar = -c * den ** (exp - top - 1 - e)
        for u, s in s_left.items():
            s *= scalar
            for i, ci in iota:
                _accumulate(acc, u + (i,) + rw, s * ci)
    # lower the exponent only as far as every numerator divides
    g, e = gcd(*acc.values()), exp
    while e and not g % den:
        g //= den
        e -= 1
    if e < exp:
        f = den ** (exp - e)
        acc = {w: v // f for w, v in acc.items()}
    cache[key] = e, acc
    return cache[key]


# The routes checked against antipode_closed.  Each looks its function up
# when called, so a wrapper bound later to the module attribute sees it.
ROUTES = (
    ("all_setcomps", lambda ctx, x: antipode_all_setcomps(ctx, x)),
    ("toggle_free", lambda ctx, x: antipode_toggle_free(ctx, x)),
    ("oracle", lambda ctx, x: antipode_oracle(ctx, x)),
)
