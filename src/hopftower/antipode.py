"""Four independent routes to the antipode.

``antipode_closed`` sums over integer compositions of the degree: the
blocks, reversed, contribute difference letters (letter minus its
alpha-pairing times iota) joined by iota separators, weighted by beta
pairings of the boundary letters and signed by block count, summed
letter by letter, right to left, on words packed into ints: each letter
is kept in its block or cut after.

``antipode_all_setcomps`` evaluates the defining sum over every ordered
set partition of the tensor positions through its per-degree table: set
compositions that do the same to the positions are grouped and their
signs added, and the net signs left are those of the 3^(n-1) toggle-free
set compositions, the sum ``antipode_toggle_free`` evaluates.

``antipode_oracle`` uses none of the formulas: it solves the convolution
equation m(S ⊗ id)Δ = unit∘counit, from the coproduct's int form
``_coproduct_num`` and the iota splice of the product.  Δ is linear, so
it takes one coproduct of the whole input and sums S(left)·right over its
merged intermediate terms; S of each left word is filled the same way,
under the oracle's own kernel in the context's memo of basis-word forms
(``HopfContext._word_form``), apart from the closed route's entries.

Each route is an int kernel on int forms (see ``elements``), which its
public function wraps, keeping the kernel's key order: ``_closed_num`` over
powers of the context's denominator D, ``_setcomp_num`` over powers
of its own d, the lcm of the denominators of the public pairings and
iota, and ``_oracle_num`` over Δ's denominator, reduced to the lcm of its
coefficients' denominators.  ``ROUTES`` lists the other three kernels,
which ``verify`` and ``compute antipode --cross-check`` compare with
``_closed_num``.  The closed and set-composition routes leave iota
markers in their words and expand them at the end, each its own way: the
closed route by integer subtraction on its packed words, the
set-composition routes through ``elements._expand_positions``.  The
set-composition routes read nothing else of the context, and the oracle
nothing of it but the coproduct, D, the iota numerators and its own memo
entries, so neither shares the closed route's integer tables or code.
The set-composition routes sum context-free per-degree tables of plans
in one loop, keeping the tables up to degree ``_KEPT``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter

from .elements import _element, _expand_positions, _over_lcm


def antipode_closed(ctx, x):
    """Closed-form antipode, linear in x, from ``_closed_num``."""
    return _element(x.degree, _closed_num(ctx, x.degree, ctx._int_form(x)))


def _closed_num(ctx, n, x):
    """The closed-form antipode of the int form x of degree n, nonzero
    terms in no particular word order.

    One pass over the letters, right to left, on int numerators over
    D^(2(n-1)): a kept letter puts its difference letter's pairs (over
    D^2) in front of the open block; a cut at it takes minus its beta
    pairing (D) and appends the block, then an iota marker, to the
    finished blocks.  Words are packed ints, little-endian at b = bit
    length of dim bits a letter under a top 1 bit, the code dim standing
    for the marker.  States, keyed (open block, finished blocks), merge
    across the words of x, grouped by their unread letters, an int whose
    low b bits are the next letter.  Sign: -1 per block (none at degree
    0).  The markers are expanded over iota's pairs (D) at the end, one
    position a pass, equal words merging between passes: a marker goes
    to letter i by subtracting dim - i from its digit.  The words left
    are unpacked to tuples.
    """
    common, nums = x
    if not nums:  # at once: no letter passes and no D^(2(n-1))
        return common, {}
    beta, diff, dim = ctx._beta_num, ctx._diff_num, ctx.basis.dim
    b = dim.bit_length()
    mask, marker = (1 << b) - 1, (1 << b | dim) - 1
    groups = {}
    for w, v in nums.items():
        rest = 0
        for a in w:
            rest = rest << b | a
        groups[rest] = {(1, 1): -v if n else v}
    for _ in range(n - 1):
        old, groups = groups, {}
        while old:
            rest, states = old.popitem()
            a, rest = rest & mask, rest >> b
            group, pairs, cut = groups.setdefault(rest, {}), diff[a], beta[a]
            for (block, done), v in states.items():
                for i, c in pairs:
                    key = (block << b | i, done)
                    group[key] = group.get(key, 0) + v * c
                if cut:
                    block += marker << block.bit_length() - 1
                    key = (1, done + (block - 1 << done.bit_length() - 1))
                    group[key] = group.get(key, 0) - v * cut
    # finished blocks end in a marker and the open block has none, so no
    # two states give one word
    terms = {}
    for (block, done), v in groups.popitem()[1].items():
        terms[done + (block - 1 << done.bit_length() - 1)] = v
    iota, shifts = ctx._iota_num, range(0, (n - 1) * b, b)
    for shift in shifts:  # a marker's expansions hold no marker there
        for w in list(terms):
            if w >> shift & mask == dim and (v := terms.pop(w)):
                for i, c in iota:
                    key = w - (dim - i << shift)
                    terms[key] = terms.get(key, 0) + v * c
    out = {}
    for w, v in terms.items():
        if v:
            word = []
            for shift in shifts:
                word.append(w >> shift & mask)
            out[tuple(word)] = v
    return common * ctx._den ** (2 * max(n - 1, 0)), out


_MARKER = -1  # an iota marker in an unexpanded word; letters are >= 0
_KEPT = 7  # tables kept up to here: the CLI's bound admits Fubini(7)


def _getter(indices):
    """The function picking the entries at ``indices`` out of a tuple."""
    return (itemgetter(*indices) if len(indices) > 1
            else lambda w: tuple(w[j] for j in indices))


@lru_cache(maxsize=2 * (_KEPT + 1))  # both routes, degrees 0 to _KEPT
def _setcomp_table(route, n):
    """The sum over ``route``'s set compositions A of n, all or the
    toggle-free ones, as plans (sign, crossings, get): with A's blocks laid
    out consecutively in block order, letter j (between positions j+1, j+2)
    fills the slot where j+1 lands if both share a block, else crosses as
    (j, 1 for alpha if j+1's block is the earlier, else 0 for beta); empty
    slots hold the iota marker, and ``get`` picks the slots of a word with
    the marker appended.  Equal plans add signs."""
    from .combinatorics import set_compositions, toggle_free
    table = {}
    for A in (toggle_free if route == "toggle_free" else set_compositions)(n):
        place = {}  # element -> (its block's index, its laid-out slot)
        for k, blk in enumerate(A):
            for x in blk:
                place[x] = k, len(place)
        crossings, slots = [], [_MARKER] * (n - 1)
        for j in range(n - 1):
            (k, slot), (k_next, _) = place[j + 1], place[j + 2]
            if k == k_next:
                slots[slot] = j
            else:
                crossings.append((j, int(k < k_next)))
        key = (tuple(crossings), tuple(slots))
        table[key] = table.get(key, 0) + (-1 if len(A) % 2 else 1)
    return tuple((sign, crossings, _getter(slots))
                 for (crossings, slots), sign in table.items() if sign)


def _setcomp_num(ctx, n, x, route):
    """``route``'s sum (see ``_setcomp_table``) of the int form x of
    degree n, on int numerators over the route's own denominator d, the
    lcm of the public pairings' and iota's; words in no particular order.
    Reads none of the context's integer tables."""
    # degree 0 needs no case of its own: the table is the identity
    common, nums = x
    if not nums:  # at once: the Fubini(n) set compositions are not walked
        return common, {}
    d, beta, alpha, iota = _over_lcm(ctx.pair_beta, ctx.pair_alpha,
                                     ctx.iota_coords)
    iota = {_MARKER: [(i, c) for i, c in enumerate(iota) if c]}
    pairings = (beta, alpha)
    table = (_setcomp_table if n <= _KEPT
             else _setcomp_table.__wrapped__)(route, n)
    # a plan with k crossings leaves k markers, each crossing over d^2 (a
    # pairing and an iota): pad it from d^(2k) to d^(2(n-1))
    top = max(n - 1, 0)
    plans = [(sign * d ** (2 * (top - len(crossings))), crossings, get)
             for sign, crossings, get in table]
    acc = {}
    for word, num in nums.items():
        marked = word + (_MARKER,)
        for scale, crossings, get in plans:
            scalar = num * scale
            for j, flag in crossings:
                scalar *= pairings[flag][word[j]]
                if not scalar:
                    break
            if scalar:
                acc[key] = acc.get(key := get(marked), 0) + scalar
    return common * d ** (2 * top), _expand_positions(acc, iota)


def antipode_all_setcomps(ctx, x):
    """Antipode as the full sum over ordered set partitions of the
    positions."""
    return _element(x.degree, _setcomp_num(ctx, x.degree, ctx._int_form(x),
                                           "all_setcomps"))


def antipode_toggle_free(ctx, x):
    """Antipode as the reduced sum over toggle-free set compositions."""
    return _element(x.degree, _setcomp_num(ctx, x.degree, ctx._int_form(x),
                                           "toggle_free"))


def antipode_oracle(ctx, x):
    """Antipode from the convolution equation, from ``_oracle_num``."""
    return _element(x.degree, _oracle_num(ctx, x.degree, ctx._int_form(x)))


def _oracle_num(ctx, n, x):
    """S of the int form x of degree n (x itself at degree 0) from the
    convolution equation, which holds for x as Δ is linear: S(x) = -x -
    sum of S(left)·right over the strictly intermediate terms of one
    ``ctx._coproduct_num(x)``.  S of each left word, and of a one-word
    input, is ``_oracle_solve``'s entry in the context's memo
    (``HopfContext._word_form``), which only the context's lifetime and
    the degrees asked for bound."""
    common, nums = x
    if n == 0 or not nums:
        return x
    if len(nums) == 1:  # a word that a later input may have on the left
        ((word, c),) = nums.items()
        den, s = ctx._word_form(_oracle_solve, n, word)
        return ((den, s) if common == c == 1
                else (den * common, {w: c * v for w, v in s.items()}))
    return _oracle_solve(ctx, n, x)


def _oracle_solve(ctx, n, x):
    """S of the int form x, with terms, of positive degree n as ``(L,
    numerators)``, zeros left in: each word's coefficient is its int
    numerator over L, the lcm of the coefficients' reduced denominators.
    Built from the coproduct's int form and the iota splice alone."""
    common, nums = x
    # Δ's terms over its one denominator
    delta_den, delta = ctx._coproduct_num(n, x)
    steps = [(c, rw, *ctx._word_form(_oracle_solve, ld, lw))
             for ((ld, lw), (_, rw)), c in delta.items() if c and 0 < ld < n]
    # c·S(left)·right is over Δ's denominator, S(left)'s and one iota's D
    den = delta_den * ctx._den
    top = lcm(common, *(s_den * den for _, _, s_den, _ in steps))
    acc = {w: -v * (top // common) for w, v in nums.items()}
    iota = ctx._iota_num
    for c, rw, s_den, s_left in steps:
        scalar = -c * (top // (s_den * den))
        for u, s in s_left.items():
            s *= scalar
            for i, ci in iota:
                key = u + (i,) + rw
                acc[key] = acc.get(key, 0) + s * ci
    g = gcd(top, *acc.values())
    return top // g, {w: v // g for w, v in acc.items()}


# The int kernels of the routes checked against _closed_num, called as
# route(ctx, n, x).  Each looks its kernel up when called, so a function
# bound later to the module attribute is the one checked.
ROUTES = (
    ("all_setcomps", lambda ctx, n, x: _setcomp_num(ctx, n, x,
                                                    "all_setcomps")),
    ("toggle_free", lambda ctx, n, x: _setcomp_num(ctx, n, x, "toggle_free")),
    ("oracle", lambda ctx, n, x: _oracle_num(ctx, n, x)),
)
