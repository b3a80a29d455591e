"""The integer-numerator kernels of ``HopfContext.product``,
``HopfContext.coproduct``, ``HopfContext.square_product``,
``expand_letters``, ``antipode_closed`` and ``antipode_oracle`` against
the plain ``Fraction`` loops they replaced.

The reference functions below multiply ``Fraction`` factors one at a time
and expand through ``reference_expand_letters``; the kernels must give
the same term dicts with every coefficient a ``Fraction``, in any key
order: only the output edge sorts, which a property holds to byte-equal
JSON on shuffled terms.  The public product, coproduct, square product
and closed antipode must each be one ``Fraction`` per nonzero term of
their int forms.  The two set-composition routes, on int numerators over
their own denominator, must match the reference closed antipode on dense
elements and a plain walk over every set composition.  A hypothesis
property draws elements and contexts for the coproduct and the closed
antipode, another feeds every int kernel forms that also hold words of
value 0, and the CLI's output on two dense elements is pinned by digest.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import partial
from math import comb, gcd
from types import CodeType, FunctionType

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import antipode, characters, hopf, nsym, verify
from hopftower.antipode import (_MARKER, ROUTES, _closed_num, _oracle_solve,
                                _setcomp_num, _setcomp_table,
                                antipode_all_setcomps,
                                antipode_closed, antipode_oracle,
                                antipode_toggle_free)
from hopftower.cli import main
from hopftower.combinatorics import (bc_bits, compositions, llc_bits,
                                     partial_sums, set_compositions)
from hopftower.elements import (TensorElement, TensorSquare,
                                _expand_positions, _fractions, _over_lcm,
                                _same, expand_letters)
from hopftower.hopf import HopfContext, all_ones_context, induction_context
from hopftower.serialize import element_to_dict, square_to_dict
from hopftower.theory import cyclic4, from_table, two_dim
from test_characters import kronecker
from test_combinatorics import straighten


def reference_expand_letters(entries, coeff=1):
    """``expand_letters`` on ``Fraction`` products, one per word and
    coordinate; zero words drop."""
    partial = {(): Fraction(coeff)}
    for entry in entries:
        if isinstance(entry, int):
            partial = {w + (entry,): c for w, c in partial.items()}
            continue
        partial = {w + (i,): c * ci for i, ci in enumerate(entry) if ci
                   for w, c in partial.items() if c}
        if not partial:
            break
    return {w: c for w, c in partial.items() if c}


def reference_coproduct(ctx, x):
    n = x.degree
    out = TensorSquare()
    if n == 0:
        for w, c in x.terms.items():
            out.add_term(((0, ()), (0, ())), c)
        return out
    full = (1 << n) - 1
    for word, coeff in x.terms.items():
        for mask in range(full + 1):
            in_left = [(mask >> j) & 1 for j in range(n)]  # position j+1
            left_n = sum(in_left)
            right_n = n - left_n
            max_left = max((j + 1 for j in range(n) if in_left[j]), default=0)
            max_right = max((j + 1 for j in range(n) if not in_left[j]),
                            default=0)
            left_entries, right_entries = [], []
            scalar = coeff
            for j in range(1, n):
                here, nxt = in_left[j - 1], in_left[j]
                letter = word[j - 1]
                if here == nxt:
                    (left_entries if here else right_entries).append(letter)
                    continue
                scalar = scalar * (ctx.pair_alpha[letter] if here
                                   else ctx.pair_beta[letter])
                if not scalar:
                    break
                side_max = max_left if here else max_right
                if j != side_max:
                    (left_entries if here else right_entries).append(
                        ctx.iota_coords)
            if not scalar:
                continue
            for lw, lc in reference_expand_letters(left_entries,
                                                   scalar).items():
                for rw, rc in reference_expand_letters(right_entries,
                                                       1).items():
                    out.add_term(((left_n, lw), (right_n, rw)), lc * rc)
    return out


def _reference_splice(ctx, du, u, dv, v):
    if not du:
        return ((v, 1),)
    if not dv:
        return ((u, 1),)
    return [(u + (i,) + v, c) for i, c in enumerate(ctx.iota_coords) if c]


def reference_product(ctx, x, y):
    out = TensorElement(x.degree + y.degree)
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            c = cu * cv
            for w, cw in _reference_splice(ctx, x.degree, u, y.degree, v):
                out.terms[w] = c * cw
    return out


def reference_square_product(ctx, s, t):
    out = TensorSquare()
    for ((lda, lwa), (rda, rwa)), ca in s.terms.items():
        for ((ldb, lwb), (rdb, rwb)), cb in t.terms.items():
            c = ca * cb
            rights = _reference_splice(ctx, rda, rwa, rdb, rwb)
            for lw, lc in _reference_splice(ctx, lda, lwa, ldb, lwb):
                for rw, rc in rights:
                    out.add_term(((lda + ldb, lw), (rda + rdb, rw)),
                                 c * lc * rc)
    return out


def _diff_coords(ctx, letter):
    # letter minus <letter, alpha> * iota, as coordinates
    pa = ctx.pair_alpha[letter]
    return tuple((1 if i == letter else 0) - pa * ci
                 for i, ci in enumerate(ctx.iota_coords))


def reference_antipode_closed(ctx, x):
    out = TensorElement(x.degree)
    n = x.degree
    for word, coeff in x.terms.items():
        for mu in compositions(n):
            ell = len(mu)
            sign = -1 if ell % 2 else 1
            scalar = Fraction(coeff)
            cuts = partial_sums(mu)
            for cut in cuts:
                scalar *= ctx.pair_beta[word[cut - 1]]
                if not scalar:
                    break
            if not scalar:
                continue
            bounds = (0,) + cuts + (n,)
            entries = []
            for b in range(ell, 0, -1):  # reversed block order
                lo, hi = bounds[b - 1], bounds[b]
                for i in range(lo + 1, hi):
                    entries.append(_diff_coords(ctx, word[i - 1]))
                if b != 1:
                    entries.append(ctx.iota_coords)
            out.add_scaled(reference_expand_letters(entries, sign * scalar))
    return out


def reference_setcomp_sum(ctx, x):
    """The defining sum over every ordered set partition A of the
    positions, one A at a time: sign (-1)^len(A); the letter between
    positions j+1 and j+2 keeps its slot of straighten(A) when the two
    share a block, else it is paired away (against alpha when j+1's block
    comes first, beta otherwise) and iota fills its slot."""
    n = x.degree
    out = TensorElement(n)
    for word, coeff in x.terms.items():
        for A in set_compositions(n):
            w, llc, bc = straighten(A), llc_bits(A), bc_bits(A)
            scalar = Fraction(-coeff if len(A) % 2 else coeff)
            entries = [ctx.iota_coords] * (n - 1)
            for j in range(n - 1):
                if bc[j]:
                    entries[w[j] - 1] = word[j]
                else:
                    scalar *= (ctx.pair_alpha if llc[j]
                               else ctx.pair_beta)[word[j]]
            if scalar:
                out.add_scaled(reference_expand_letters(entries, scalar))
    return out


def reference_antipode_oracle(ctx, x, memo=None):
    """The convolution solver on ``Fraction`` elements; ``memo`` maps
    (degree, word) to S of that basis word."""
    if memo is None:
        memo = {}
    out = TensorElement(x.degree)
    if x.degree == 0:
        out += x
        return out
    for word, coeff in x.terms.items():
        out.add_scaled(_reference_oracle_word(ctx, memo, x.degree, word).terms,
                       coeff)
    return out


def _reference_oracle_word(ctx, memo, degree, word):
    key = (degree, word)
    if key in memo:
        return memo[key]
    base = TensorElement(degree, {word: 1})
    acc = -base
    for ((ld, lw), (rd, rw)), c in ctx.coproduct(base).terms.items():
        if ld == 0 or ld == degree:
            continue
        s_left = _reference_oracle_word(ctx, memo, ld, lw)
        acc.add_scaled(ctx.product(s_left, TensorElement(rd, {rw: 1})).terms,
                       -c)
    memo[key] = acc
    return acc


def word_memo(ctx, kernel):
    """The entries under ``kernel`` of the context's basis-word memo,
    keyed (degree, word)."""
    return {(n, w): form for (k, n, w), form in ctx._word_forms.items()
            if k is kernel}


def assert_same(got, want):
    """Equal, with ``Fraction`` coefficients."""
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


def assert_kernels_match(ctx, x, memo=None):
    assert_same(ctx.coproduct(x), reference_coproduct(ctx, x))
    assert_same(antipode_closed(ctx, x), reference_antipode_closed(ctx, x))
    assert_same(antipode_oracle(ctx, x),
                reference_antipode_oracle(ctx, x, memo))


def assert_basis_words_match(ctx, max_degree):
    memo = {}
    for n in range(max_degree + 1):
        for w in ctx.basis_words(n):
            assert_kernels_match(ctx, TensorElement(n, {w: 1}), memo)


def test_two_dim_basis_words_through_degree_7():
    for q in (2, 3, 5):
        basis = two_dim(q)
        for ctx in (all_ones_context(basis), induction_context(basis)):
            assert_basis_words_match(ctx, 7)


def test_cyclic4_basis_words_through_degree_5():
    basis = cyclic4()
    ind = induction_context(basis)
    assert ind._den == 3
    for ctx in (all_ones_context(basis), ind):
        assert_basis_words_match(ctx, 5)


def fractional_iota_contexts():
    """Unchecked triples and a table built from raw values: iota's
    coordinates are not integers, so D comes from iota as well."""
    basis = two_dim(3)
    one, reg = basis.one, basis.reg
    iota = Fraction(1, 2) * one + Fraction(1, 3) * (reg - one)
    contexts = [
        HopfContext.unchecked(basis, iota, one, (reg - one) / 5),
        HopfContext.unchecked(basis, iota, Fraction(2, 7) * reg, one),
        HopfContext.unchecked(basis, reg / 3, one, Fraction(2, 7) * reg),
    ]
    table = from_table(((1, 1, 1), (1, 1, -1), (2, -2, 0)), (1, 1, 2), 0)
    contexts.append(HopfContext.unchecked(
        table, table.reg / 4, table.one, table.one + table.reg / 6))
    return contexts


def test_fractional_iota_coordinates():
    for ctx in fractional_iota_contexts():
        assert any(c.denominator > 1 for c in ctx.iota_coords)
        assert_basis_words_match(ctx, 4)


def test_oracle_memo_is_over_its_lcm():
    """Each memoized S(word) is its reference value as ``(L, nums)``: int
    numerators over L, reduced so that gcd(L, *nums) = 1.  A dense input
    is solved through its own coproduct, so only its left words, of
    degrees 1 to 4, are memoized."""
    basis = two_dim(3)
    contexts = [induction_context(cyclic4()), all_ones_context(two_dim(5)),
                HopfContext.unchecked(basis, basis.reg / 3, basis.one,
                                      Fraction(2, 7) * basis.reg)]
    for ctx in contexts:
        memo = {}
        antipode_oracle(ctx, TensorElement(5, {
            w: 1 for w in ctx.basis_words(5)}))
        solved = word_memo(ctx, _oracle_solve)
        assert len(solved) == sum(
            ctx.basis.dim ** (n - 1) for n in range(1, 5))
        for (n, w), (den, nums) in solved.items():
            want = _reference_oracle_word(ctx, memo, n, w).terms
            assert {u: Fraction(v, den) for u, v in nums.items()} == want
            assert gcd(den, *nums.values()) == 1
        assert any(den > 1 for den, _ in solved.values()) == (ctx._den > 1)


def test_a_lone_oracle_call_fills_only_its_own_memo_entries():
    """The oracle reads and writes the context's memo under its own
    kernel alone: after one call, on a dense input or on one word, every
    key's kernel is ``_oracle_solve``, and no Δ or closed-S entry is
    there."""
    for basis, context in ((cyclic4(), induction_context),
                           (two_dim(3), all_ones_context)):
        words = list(context(basis).basis_words(4))
        for terms in (words, words[-1:]):
            ctx = context(basis)
            antipode_oracle(ctx, TensorElement(4, dict.fromkeys(terms, 3)))
            assert ctx._word_forms
            assert {k for k, _, _ in ctx._word_forms} == {_oracle_solve}


def test_oracle_takes_one_coproduct_of_a_multiword_input():
    """A multi-word input costs one coproduct of itself, plus one of each
    left word not memoized yet; a one-word input is memoized."""
    rng = random.Random(11)
    for ctx in (induction_context(cyclic4()), all_ones_context(two_dim(3))):
        calls = []
        coproduct_num = ctx._coproduct_num

        def counting(n, x, coproduct_num=coproduct_num, calls=calls):
            calls.append((n, x))
            return coproduct_num(n, x)

        def public(x):
            raise AssertionError("the oracle calls the public coproduct")

        # instance attributes, which the oracle's lookups find first
        ctx._coproduct_num = counting
        ctx.coproduct = public
        # a word of degree 3 memoizes itself and its left words
        antipode_oracle(ctx, TensorElement(3, {(1, 0): 2}))
        assert (3, (1, 0)) in word_memo(ctx, _oracle_solve)
        results = []
        for x in (_dense(rng, ctx, 5), _dense(rng, ctx, 5)):
            calls.clear()
            before = set(word_memo(ctx, _oracle_solve))
            results.append((x, antipode_oracle(ctx, x)))
            new = set(word_memo(ctx, _oracle_solve)) - before
            assert calls[0] == int_form(x)
            assert len(calls) == 1 + len(new)
            assert {(n, *terms) for n, (_, terms) in calls[1:]} == new
            assert all(0 < n < 5 for n, _ in new)
        assert len(calls) == 1  # the first dense input memoized them all
        del ctx._coproduct_num, ctx.coproduct
        for x, got in results:
            assert_same(got, reference_antipode_oracle(ctx, x))


def test_integer_tables_are_built_on_first_use():
    ctx = induction_context(cyclic4())
    tables = ("_den", "_alpha_num", "_beta_num", "_iota_num", "_diff_num")
    assert not set(tables) & set(vars(ctx))
    antipode_oracle(ctx, TensorElement(3, {(0, 1): 1}))
    assert "_diff_num" not in vars(ctx)
    antipode_closed(ctx, TensorElement(3, {(0, 1): 1}))
    assert set(tables) <= set(vars(ctx))


def _dense(rng, ctx, degree):
    return TensorElement(degree, {
        w: Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 5, 7)))
        for w in ctx.basis_words(degree)})


def test_dense_mixed_denominators():
    rng = random.Random(7)
    contexts = [induction_context(two_dim(3)), all_ones_context(two_dim(5)),
                induction_context(cyclic4())]
    for ctx in contexts:
        for degree in range(6):
            x = _dense(rng, ctx, degree)
            assert_kernels_match(ctx, x)
            # the set-composition routes sum onto unexpanded words too,
            # where the words of one input may meet
            want = reference_antipode_closed(ctx, x)
            for route in (antipode_toggle_free, antipode_all_setcomps):
                assert_same(route(ctx, x), want)
    # larger degrees, where many unexpanded words merge before expansion
    for ctx, degree in ((contexts[2], 6), (contexts[0], 8)):
        x = _dense(rng, ctx, degree)
        assert_same(ctx.coproduct(x), reference_coproduct(ctx, x))
        assert_same(antipode_closed(ctx, x),
                    reference_antipode_closed(ctx, x))


def test_cancellation_and_low_degrees():
    for ctx in (all_ones_context(two_dim(2)), induction_context(cyclic4())):
        for degree in range(5):
            # the zero element, and x - x
            assert_kernels_match(ctx, TensorElement(degree))
            x = TensorElement(degree, {w: 1 for w in ctx.basis_words(degree)})
            assert_kernels_match(ctx, x - x)
        assert_kernels_match(ctx, ctx.unit(Fraction(-5, 3)))
        assert_kernels_match(ctx, TensorElement(1, {(): Fraction(2, 9)}))
    # output terms that cancel between the words of one input
    ctx = all_ones_context(two_dim(2))
    x = TensorElement(3, {(0, 1): 1, (1, 0): -1, (1, 1): Fraction(1, 2)})
    assert_kernels_match(ctx, x)
    keys = set()
    for w, c in x.terms.items():
        keys.update(reference_coproduct(ctx, TensorElement(3, {w: c})).terms)
    assert len(ctx.coproduct(x).terms) < len(keys)


def test_zero_element_builds_no_plans():
    # the coproduct and the closed antipode keep no plans: a degree-12 zero
    # is an empty pass, and hopf caches nothing per degree; the
    # set-composition tables walk Fubini(n) set compositions (47,293 at
    # degree 7), so without the early return they are built, and the
    # cache changes
    ctx = induction_context(two_dim(3))
    assert ctx.coproduct(TensorElement(12)).terms == {}
    assert antipode_closed(ctx, TensorElement(12)).terms == {}
    assert "lru_cache" not in vars(hopf)
    assert not [f for f in vars(hopf).values() if hasattr(f, "cache_info")]
    before = _setcomp_table.cache_info()
    for route in (antipode_all_setcomps, antipode_toggle_free):
        assert route(ctx, TensorElement(7)).terms == {}
    assert _setcomp_table.cache_info() == before


def test_setcomp_routes_match_the_plain_walk():
    """Both set-composition routes against ``reference_setcomp_sum`` where
    their own denominator d is not 1, so that a word padded by the wrong
    power of d shows: basis words, and dense elements with mixed
    denominators."""
    rng = random.Random(13)
    contexts = [*unchecked_d21(), *fractional_iota_contexts(),
                induction_context(cyclic4())]
    for ctx in contexts:
        for degree in range(5):
            xs = [TensorElement(degree, {w: Fraction(-2, 3)})
                  for w in ctx.basis_words(degree)]
            xs.append(_dense(rng, ctx, degree))
            for x in xs:
                want = reference_setcomp_sum(ctx, x)
                for route in (antipode_all_setcomps, antipode_toggle_free):
                    assert_same(route(ctx, x), want)


def test_setcomp_routes_read_no_integer_table_of_the_context():
    """The set-composition routes stay a cross-check of the closed route:
    their int kernel and its helpers name none of the context's integer
    tables or the closed route."""
    names = _names_reached(_setcomp_num)
    # co_names holds the attributes read; the helpers are reached
    assert {"pair_alpha", "_setcomp_table"} <= names
    assert not names & {"_den", "_alpha_num", "_beta_num", "_iota_num",
                        "_diff_num", "_closed_plans", "_closed_num",
                        "_word_form", "_word_forms"}
    # and the routes' module holds nothing of hopf's
    assert not [name for name, obj in _setcomp_num.__globals__.items()
                if obj is hopf
                or getattr(obj, "__module__", None) == hopf.__name__]


def test_cross_checked_routes_share_no_expansion():
    """The closed route expands its own iota markers on its packed words:
    it reaches no ``_expand_positions``, which the set-composition routes
    use, and neither the set-composition kernel nor the oracle's reaches
    the closed kernel, its packing (``bit_length``) or its tables."""
    closed = _names_reached(_closed_num)
    assert {"_diff_num", "_beta_num", "_iota_num", "bit_length"} <= closed
    assert "_expand_positions" not in closed
    assert "_expand_positions" in _names_reached(_setcomp_num)
    for function in (_setcomp_num, _oracle_solve):
        assert not _names_reached(function) & {
            "_closed_num", "_diff_num", "_beta_num", "bit_length"}


def _names_reached(function):
    """The names that ``function`` and the helpers of its own module that
    it reaches use, with those of nested code (comprehensions)."""
    scope = function.__globals__
    names, todo, seen = set(), [function.__code__], set()
    while todo:
        code = todo.pop()
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        for name in set(code.co_names) - seen:
            helper = scope.get(name)
            if isinstance(helper, FunctionType) and helper.__globals__ is scope:
                seen.add(name)
                todo.append(helper.__code__)
    return names


def test_definitional_character_side_reads_no_closed_table():
    """``_check_definition`` and ``check_morphism`` stay cross-checks of
    the closed convolution and inverse: they and their helpers name none
    of the closed side's int tables or functions."""
    for function in (characters._check_definition, characters.check_morphism):
        names = _names_reached(function)
        assert {"_value_tables", "components"} & names
        assert not names & {"_num_tables", "_nums", "_interleave",
                            "_convolve_component", "_sum_forms"}


def test_oracle_reads_no_other_route():
    """The oracle stays a cross-check of the formulas: it and its helpers
    name no other route and none of the closed route's plans, tables or
    integer pairings."""
    names = _names_reached(antipode_oracle)
    # the names are collected: the coproduct's int form, and the memo's
    # accessor with the oracle's own kernel; the public coproduct is not
    # called, and the memo is not read around the accessor
    assert {"_coproduct_num", "_iota_num", "_den", "_word_form",
            "_oracle_solve"} <= names
    assert "coproduct" not in names
    assert not names & {"antipode_closed", "_closed_plans", "_setcomp_table",
                        "_setcomp_num", "_closed_num", "_diff_num",
                        "_word_forms", "_alpha_num", "_beta_num",
                        "antipode_all_setcomps", "antipode_toggle_free"}


def unchecked_d21():
    """Triples over two_dim(3) whose denominator D is 21 and whose axioms
    fail."""
    basis = two_dim(3)
    one, reg = basis.one, basis.reg
    return [HopfContext.unchecked(basis, reg / 3, one, Fraction(2, 7) * reg),
            HopfContext.unchecked(basis, reg / 3, Fraction(2, 7) * reg, one),
            HopfContext.unchecked(basis, Fraction(1, 7) * reg + one / 3,
                                  one, reg)]


def _property_contexts():
    """A rank-1 table, the D = 21 triples, the fractional-iota triples,
    cyclic4 and a rank-4 table."""
    rank1 = from_table(((1,),), (1,), 0)
    return [all_ones_context(rank1), *unchecked_d21(),
            *fractional_iota_contexts(), induction_context(cyclic4()),
            induction_context(kronecker(two_dim(2), two_dim(3)))]


# ones and halves of both signs, so that output terms of different input
# words cancel, and denominators 3 and 7 besides
_COEFFS = st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 2),
                           Fraction(2, 3), Fraction(-5, 7), 3))


@st.composite
def kernel_inputs(draw, contexts=_property_contexts()):
    """A context and an element of degree 0 to 6 on it: every word, when
    there are at most 64 and the draw says dense, else up to 8 words."""
    ctx = draw(st.sampled_from(contexts))
    n = draw(st.integers(0, 6))
    words = list(ctx.basis_words(n))
    if len(words) > 64 or not draw(st.booleans()):
        words = draw(st.lists(st.sampled_from(words), max_size=8, unique=True))
    return ctx, TensorElement(n, {w: draw(_COEFFS) for w in words})


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_letter_pass_kernels_match_the_references(case):
    ctx, x = case
    assert_same(ctx.coproduct(x), reference_coproduct(ctx, x))
    assert_same(antipode_closed(ctx, x), reference_antipode_closed(ctx, x))


def _width_contexts():
    """One context per letter width b of the packed coproduct words, each
    with the largest degree drawn: rank 1 (b = 1, every word all zeros),
    two_dim(3) (b = 1, both letters), cyclic4 (b = 2), the rank-4
    two_dim(2) x two_dim(3) (b = 2, all four letters) and the rank-6
    cyclic4 x two_dim(2) (b = 3).  The closed antipode packs its words
    at b = 1, 2, 2, 3 and 3 on these, a letter code left over for the
    iota marker, which at rank 3 fills a whole digit."""
    rank1 = from_table(((1,),), (1,), 0)
    return [(all_ones_context(rank1), 9), (induction_context(two_dim(3)), 7),
            (induction_context(cyclic4()), 6),
            (induction_context(kronecker(two_dim(2), two_dim(3))), 5),
            (induction_context(kronecker(cyclic4(), two_dim(2))), 5)]


@st.composite
def width_inputs(draw, contexts=_width_contexts()):
    """A context and an element on up to 4 words of degree 0 to its
    largest: the all-zero word, the all-top-letter word and any others."""
    ctx, top = draw(st.sampled_from(contexts))
    n = draw(st.integers(0, top))
    length, dim = max(n - 1, 0), ctx.basis.dim
    any_word = st.lists(st.integers(0, dim - 1), min_size=length,
                        max_size=length).map(tuple)
    words = draw(st.lists(st.one_of(st.just((0,) * length),
                                    st.just((dim - 1,) * length), any_word),
                          max_size=4, unique=True))
    return ctx, TensorElement(n, {w: draw(_COEFFS) for w in words})


@settings(max_examples=80, deadline=None)
@given(width_inputs())
def test_kernels_match_the_references_at_every_letter_width(case):
    ctx, x = case
    assert_wraps(reference_coproduct(ctx, x),
                 *ctx._coproduct_num(*int_form(x)))
    assert_wraps(reference_antipode_closed(ctx, x),
                 *_closed_num(ctx, *int_form(x)))
    assert_same(antipode_oracle(ctx, x), reference_antipode_oracle(ctx, x))


def test_rank1_word_of_the_largest_admitted_degree():
    """The rank-1 word of degree 22, the largest the CLI admits: words
    of 21 letters, packed at one bit each.  Over the all-ones rank-1
    context the product adds degrees, so word n is t^n for a primitive
    t: its coproduct is the binomial sum and its antipode (-1)^n t^n."""
    ctx = all_ones_context(from_table(((1,),), (1,), 0))
    n = 22
    x = TensorElement(n, {(0,) * (n - 1): Fraction(-3, 7)})
    assert_wraps(TensorSquare({((k, (0,) * max(k - 1, 0)),
                                (n - k, (0,) * max(n - k - 1, 0))):
                               Fraction(-3, 7) * comb(n, k)
                               for k in range(n + 1)}),
                 *ctx._coproduct_num(*int_form(x)))
    assert_wraps(x, *_closed_num(ctx, *int_form(x)))
    assert_same(antipode_oracle(ctx, x), x)


def _int_form_contexts():
    """The D = 21 triples, the fractional-iota triples and cyclic4."""
    return [*unchecked_d21(), *fractional_iota_contexts(),
            induction_context(cyclic4())]


@st.composite
def mixed_elements(draw, ctx, max_degree=4):
    """An element of degree 0 to ``max_degree`` on up to 6 words (none
    makes zero; degrees 0 and 1 have one word) with mixed denominators."""
    n = draw(st.integers(0, max_degree))
    words = draw(st.lists(st.sampled_from(list(ctx.basis_words(n))),
                          max_size=6, unique=True))
    return TensorElement(n, {w: draw(_COEFFS) for w in words})


@st.composite
def letter_templates(draw, ctx):
    """An ``expand_letters`` template over the context's basis: letters
    and coordinate tuples (iota, the pairings, a difference letter and
    plain ints), and a coefficient that may be 0."""
    dim = ctx.basis.dim
    tuples = [ctx.iota_coords, ctx.alpha.coords, ctx.beta.coords,
              _diff_coords(ctx, 0), tuple(range(-1, dim - 1))]
    entries = draw(st.lists(st.one_of(st.integers(0, dim - 1),
                                      st.sampled_from(tuples)), max_size=5))
    return entries, draw(st.one_of(_COEFFS, st.just(0)))


def assert_wraps(got, den, nums):
    """``got``'s terms are ``Fraction(v, den)`` of the nonzero ``nums``."""
    assert got.terms == {k: Fraction(v, den) for k, v in nums.items() if v}


def int_form(x):
    """An element as the int kernels take it: its degree and int form."""
    return x.degree, _over_lcm(x.terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_public_kernels_wrap_their_int_forms(data):
    """Each public kernel is one ``Fraction`` per nonzero term of its int
    form, and equals its plain ``Fraction`` reference."""
    ctx = data.draw(st.sampled_from(_int_form_contexts()))
    x = data.draw(mixed_elements(ctx))
    y = data.draw(mixed_elements(ctx))

    got = ctx.coproduct(x)
    assert_wraps(got, *ctx._coproduct_num(*int_form(x)))
    assert_same(got, reference_coproduct(ctx, x))

    got = antipode_closed(ctx, x)
    assert_wraps(got, *_closed_num(ctx, *int_form(x)))
    assert_same(got, reference_antipode_closed(ctx, x))

    s, t = ctx.coproduct(x), ctx.coproduct(y)
    got = ctx.square_product(s, t)
    assert_wraps(got, *ctx._square_product_num(_over_lcm(s.terms),
                                               _over_lcm(t.terms)))
    assert_same(got, reference_square_product(ctx, s, t))

    got = ctx.product(x, y)
    assert_wraps(got, *ctx._product_num(*int_form(x), *int_form(y)))
    assert_same(got, reference_product(ctx, x, y))

    entries, coeff = data.draw(letter_templates(ctx))
    got = expand_letters(entries, coeff)
    want = reference_expand_letters(entries, coeff)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())


def with_zeros(draw, ctx, n, form):
    """``form``, of degree n, with up to four basis words of value 0 put
    before its own words."""
    den, nums = form
    words = draw(st.lists(st.sampled_from(list(ctx.basis_words(n))),
                          max_size=4))
    return den, {**dict.fromkeys(words, 0), **nums}


def square_with_zeros(draw, ctx, n, form):
    """The int form of a degree-n tensor square with up to four
    (left, right) keys of value 0 put before its own keys."""
    den, nums = form
    keys = {}
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, n))
        keys[tuple((d, draw(st.sampled_from(list(ctx.basis_words(d)))))
                   for d in (k, n - k))] = 0
    return den, {**keys, **nums}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_int_kernels_ignore_zero_valued_words(data):
    """Kernels leave zeros in the forms they return, and those forms feed
    other kernels: each int kernel gives the same terms after
    ``_fractions`` when its input also holds words of value 0."""
    ctx = data.draw(st.sampled_from(_int_form_contexts()))
    n, x = int_form(data.draw(mixed_elements(ctx)))
    m, y = int_form(data.draw(mixed_elements(ctx)))
    zx, zy = with_zeros(data.draw, ctx, n, x), with_zeros(data.draw, ctx, m, y)

    def same(kernel, plain, zeros):
        assert _fractions(*kernel(*plain)) == _fractions(*kernel(*zeros))

    same(ctx._product_num, (n, x, m, y), (n, zx, m, zy))
    same(ctx._coproduct_num, (n, x), (n, zx))
    same(partial(_closed_num, ctx), (n, x), (n, zx))
    for _, route in ROUTES:
        same(partial(route, ctx), (n, x), (n, zx))
    if n:
        same(partial(_oracle_solve, ctx), (n, x), (n, zx))
    s, t = ctx._coproduct_num(n, x), ctx._coproduct_num(m, y)
    same(ctx._square_product_num, (s, t),
         (square_with_zeros(data.draw, ctx, n, ctx._coproduct_num(n, zx)),
          square_with_zeros(data.draw, ctx, m, t)))


def _module_functions(module):
    """The functions and methods defined in ``module``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for f in vars(obj).values() if isinstance(obj, type) else [obj]:
            f = getattr(f, "func", getattr(f, "fget", f))
            if isinstance(f, FunctionType):
                yield f


def test_kernels_accumulate_inline():
    """``_accumulate``, which drops a key as it cancels, serves the public
    ``Fraction`` types alone: no function of the kernels' modules names
    it, and they add with ``dict.get`` and keep zeros."""
    for module in (hopf, antipode, verify, nsym):
        assert "_accumulate" not in vars(module)
        functions = list(_module_functions(module))
        assert functions
        for function in functions:
            assert "_accumulate" not in _names_reached(function)


def assert_same_as_edges(a, b, want):
    """``_same`` gives ``want`` both ways, as ``==`` on the two edges'
    ``Fraction`` terms does."""
    assert _same(a, b) == _same(b, a) == want
    assert (_fractions(*a) == _fractions(*b)) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_same_agrees_with_fraction_equality(data):
    """The int-form comparison against ``Fraction`` equality of the edge:
    on two drawn elements, on equal values over different denominators
    with a zero numerator left in, and with a key on one side only or
    one sign flipped."""
    ctx = data.draw(st.sampled_from(_int_form_contexts()))
    a = _over_lcm(data.draw(mixed_elements(ctx)).terms)
    b = _over_lcm(data.draw(mixed_elements(ctx)).terms)
    assert_same_as_edges(a, b, _fractions(*a) == _fractions(*b))
    den, nums = a
    k = data.draw(st.integers(2, 9))
    scaled = (den * k, {**{w: v * k for w, v in nums.items()}, (_MARKER,): 0})
    assert_same_as_edges(a, scaled, True)
    assert_same_as_edges(a, (den, {**nums, (_MARKER,): 1}), False)
    if nums:
        w = data.draw(st.sampled_from(sorted(nums)))
        assert_same_as_edges(a, (den, {**nums, w: -nums[w]}), False)


def test_int_forms_on_zero_and_low_degrees():
    """The cases the property may draw seldom, on every context: the zero
    element and one-word inputs of degrees 0 and 1."""
    for ctx in _int_form_contexts():
        for x in (TensorElement(0), TensorElement(1), TensorElement(4),
                  ctx.unit(Fraction(-5, 3)),
                  TensorElement(1, {(): Fraction(2, 7)}),
                  TensorElement(2, {(1,): Fraction(-3, 4)})):
            got = ctx.coproduct(x)
            assert_wraps(got, *ctx._coproduct_num(*int_form(x)))
            assert_same(got, reference_coproduct(ctx, x))
            got = antipode_closed(ctx, x)
            assert_wraps(got, *_closed_num(ctx, *int_form(x)))
            assert_same(got, reference_antipode_closed(ctx, x))
            for y in (ctx.unit(), TensorElement(3), x):
                assert_same(ctx.product(x, y), reference_product(ctx, x, y))
                assert_same(ctx.product(y, x), reference_product(ctx, y, x))
        assert expand_letters([], 0) == reference_expand_letters([], 0)
        assert expand_letters([0, 1], 0) == {}
        assert expand_letters([ctx.iota_coords], 0) == {}


def _seeded_dense_json(seed, labels, degree):
    """Every word of ``degree`` over ``labels``, with seeded rationals."""
    rng = random.Random(seed)
    return json.dumps({"degree": degree, "terms": [
        {"word": list(w),
         "coeff": f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/"
                  f"{rng.randint(1, 6)}"}
        for w in itertools.product(labels, repeat=degree - 1)]})


# SHA-256 of stdout, as the per-degree plan kernels printed it
_PINNED = (
    (["--q", "3", "--iota", "reg", "--beta", "beta_star"], ("one", "regm1"), 8,
     {"coproduct": "c2b9e5cdaab0dca0a39bc94716e1f21b"
                   "382b7ce6b838bae40cb443fc927a0761",
      "antipode": "716a2c0d763a26d378aa64bf5fba2603"
                  "c5f144022088445eff0da0666650227b"}),
    (["--base", "cyclic4", "--iota", "reg", "--beta", "(reg - one)/3"],
     ("one", "sgn", "s"), 5,
     {"coproduct": "81d7e088cbcec67fba5011a67dedb309"
                   "229dc44ca22080e888aa15633b569c2d",
      "antipode": "494f03dbe9a538c0186a43031161b61e"
                  "6907a091e33c69f4576a684bd605b3a3"}),
)


def test_compute_output_is_pinned(capsys):
    """``compute coproduct`` and ``compute antipode`` on a dense two_dim(3)
    degree-8 and a dense cyclic4 degree-5 element print byte for byte
    what they printed before the letter-by-letter kernels."""
    for base, labels, degree, digests in _PINNED:
        x = _seeded_dense_json(degree, labels, degree)
        for action, digest in digests.items():
            assert main(["compute", action, *base, "--x", x]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, action


def assert_square_products_match(ctx, lefts, rights):
    for s in lefts:
        for t in rights:
            assert_same(ctx.square_product(s, t),
                        reference_square_product(ctx, s, t))


def word_coproducts(ctx, degrees):
    return [ctx.coproduct(TensorElement(n, {w: 1}))
            for n in degrees for w in ctx.basis_words(n)]


def test_square_product_on_basis_word_coproducts():
    for q in (2, 3, 5):
        for ctx in (all_ones_context(two_dim(q)),
                    induction_context(two_dim(q))):
            squares = word_coproducts(ctx, range(5))
            assert_square_products_match(ctx, squares, squares)
    # cyclic4 (D = 3): the pairs whose degrees add up to at most 5, as
    # the compatibility check to degree 5 meets them
    ctx = induction_context(cyclic4())
    assert ctx._den == 3
    for m in range(5):
        assert_square_products_match(ctx, word_coproducts(ctx, (m,)),
                                     word_coproducts(ctx, range(6 - m)))


def _dense_square(rng, ctx, max_degree):
    """Random terms over every pair of degrees up to max_degree, the
    degree-0 components included, with mixed denominators."""
    out = TensorSquare()
    for ld in range(max_degree + 1):
        for rd in range(max_degree + 1 - ld):
            for lw in ctx.basis_words(ld):
                for rw in ctx.basis_words(rd):
                    if rng.random() < 0.6:
                        out.add_term(((ld, lw), (rd, rw)), Fraction(
                            rng.randint(-9, 9),
                            rng.choice((1, 2, 3, 4, 5, 7, 9))))
    return out


def test_square_product_dense_degree_zero_and_zero_squares():
    rng = random.Random(11)
    contexts = [induction_context(two_dim(3)), all_ones_context(two_dim(5)),
                induction_context(cyclic4()), *unchecked_d21()]
    assert {ctx._den for ctx in contexts[3:]} == {21}
    for ctx in contexts:
        unit = TensorSquare.tensor(ctx.unit(), ctx.unit())
        squares = [TensorSquare(), unit, Fraction(-2, 3) * unit,
                   *(_dense_square(rng, ctx, 3) for _ in range(3)),
                   *word_coproducts(ctx, range(4))]
        assert_square_products_match(ctx, squares, squares)


def reference_expand_positions(terms, subs, dim):
    """Each unexpanded word through the public ``expand_letters``: an
    entry that is in ``subs`` as its coordinate tuple, any other as a
    letter."""
    out = {}
    for w, c in terms.items():
        entries = [tuple(dict(subs[e]).get(i, 0) for i in range(dim))
                   if e in subs else e for e in w]
        for u, v in expand_letters(entries, c).items():
            out[u] = out.get(u, 0) + v
    return {u: v for u, v in out.items() if v}


def test_expand_positions_matches_expand_letters():
    rng = random.Random(3)
    ctx = induction_context(cyclic4())
    dim = ctx.basis.dim
    marker_only = {_MARKER: ctx._iota_num}
    every_entry = {**dict(enumerate(ctx._diff_num)), _MARKER: ctx._iota_num}
    # the marker and letter 0 both give the words 0 and 1, cancelling
    cancelling = {_MARKER: ((0, 1), (1, -1)), 0: ((0, 2), (1, -2))}
    # no terms, empty words, words with no markers, and unexpanded words
    # whose expansions cancel to zero
    assert _expand_positions({}, every_entry) == {}
    assert _expand_positions({(): 5}, marker_only) == {(): 5}
    assert _expand_positions({(): 0}, every_entry) == {}
    assert _expand_positions({(0, 2): 3, (2, 0): 0}, marker_only) == {
        (0, 2): 3}
    assert _expand_positions({(_MARKER,): 2, (0,): -1}, cancelling) == {}
    assert _expand_positions({(2, _MARKER): 2, (2, 0): -1}, cancelling) == {}
    assert _expand_positions({(0, _MARKER): 1}, cancelling) == {
        (0, 0): 2, (0, 1): -2, (1, 0): -2, (1, 1): 2}
    for subs in (marker_only, every_entry, cancelling):
        for length in range(6):
            for _ in range(20):
                terms = {tuple(rng.randrange(-1, dim) for _ in range(length)):
                         rng.randint(-3, 3) for _ in range(rng.randint(0, 12))}
                got = _expand_positions(terms, subs)
                assert got == reference_expand_positions(terms, subs, dim)
                assert all(type(c) is int and c for c in got.values())


def _order_contexts():
    """two_dim(3) (1 bit a letter), cyclic4 (2 bits) and the rank-6
    cyclic4 x two_dim(2) (3 bits)."""
    return [induction_context(two_dim(3)), induction_context(cyclic4()),
            induction_context(kronecker(cyclic4(), two_dim(2)))]


@st.composite
def order_inputs(draw, contexts=_order_contexts()):
    """A context and an element of degree 0 to 6 on it: empty, one word
    or up to 6 words, in drawn term order."""
    ctx = draw(st.sampled_from(contexts))
    n = draw(st.integers(0, 6))
    length, dim = max(n - 1, 0), ctx.basis.dim
    any_word = st.lists(st.integers(0, dim - 1), min_size=length,
                        max_size=length).map(tuple)
    size = draw(st.sampled_from(((0, 0), (1, 1), (2, 6))))
    words = draw(st.lists(any_word, min_size=min(size[0], dim ** length),
                          max_size=size[1], unique=True))
    return ctx, TensorElement(n, [(w, draw(_COEFFS)) for w in words])


def _shuffled(terms, rng):
    items = list(terms.items())
    rng.shuffle(items)
    return dict(items)


@settings(max_examples=80, deadline=None)
@given(order_inputs(), st.randoms(use_true_random=False))
def test_output_edge_owns_the_term_order(case, rng):
    """The kernels emit keys in any order, and the JSON edge sorts them:
    the coproduct and the closed antipode of an element with its terms
    shuffled, their own terms shuffled too, serialize byte for byte as
    those of the element itself."""
    ctx, x = case
    y = TensorElement(x.degree, _shuffled(x.terms, rng))
    for kernel, to_dict in ((HopfContext.coproduct, square_to_dict),
                            (antipode_closed, element_to_dict)):
        want, got = kernel(ctx, x), kernel(ctx, y)
        got.terms = _shuffled(got.terms, rng)
        assert got == want
        assert (json.dumps(to_dict(got, ctx.basis))
                == json.dumps(to_dict(want, ctx.basis)))


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(-5, 5)),
       st.integers(1, 12))
def test_fractions_build_one_fraction_per_distinct_numerator(nums, den):
    """``_fractions`` is the per-term build in values and types, zeros
    dropped and negative numerators kept, with one ``Fraction`` per
    distinct nonzero numerator."""
    want = {k: Fraction(v, den) for k, v in nums.items() if v}
    got = _fractions(den, nums)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())
    assert len({id(c) for c in got.values()}) == len(
        {v for v in nums.values() if v})
