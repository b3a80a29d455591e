"""The group of linear characters of a tower context.

A linear character is a truncated sequence of functionals, one per
degree, each given by an element of that degree (evaluation is the
graded inner product).  ``check_morphism`` tests multiplicativity
against the product, pairing the letter the product splices iota into
against iota; the group law is convolution, computed two ways
(closed block formula and the definitional composite) which are checked
against each other on every call.  The group operations run
``check_morphism`` once per character: its result, like the value and
int tables, is a cached property of the character.  Both sides sum on
int forms, the closed side on components put over their lcm, each
composition's words expanded by ``elements._expand_num``, the
definitional side on the value tables and on Δ of each basis word from
the context's memo (``HopfContext._word_form`` of ``_coproduct_num``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .combinatorics import compositions
from .elements import (TensorElement, _check_letters, _element, _expand_num,
                       _fractions, _letter, _over_lcm, _same, _sum_forms,
                       expand_letters)
from .theory import BaseElement, TheoryError


class ContextMismatch(TheoryError):
    """Two characters (or a character and an element) live over
    different contexts."""


class NotAMorphism(TheoryError):
    """A character sequence fails multiplicativity, so the group
    operations do not apply to it."""

    exit_code = 1  # the CLI's exit code for a morphism failure


class LinearCharacter:
    """A multiplicative functional, stored by components up to a degree.

    ``components[n]`` is a ``TensorElement`` of degree ``n``;
    ``components[0]`` must be the unit (the functional is 1 on the
    ground field).

    >>> from .theory import two_dim
    >>> from .hopf import all_ones_context
    >>> from .elements import TensorElement
    >>> eps = counit_character(all_ones_context(two_dim(3)), 2)
    >>> eps(TensorElement(2, {(0,): 1}))
    Fraction(0, 1)

    A character is immutable by contract: it is hashed by its components,
    and its derived data are cached properties, each computed on first
    use: ``_failure``, its ``check_morphism`` result, a failure included;
    ``_value_tables``; and ``_num_tables``.
    """

    def __init__(self, ctx, components):
        components = tuple(components)
        if not components:
            raise TheoryError("need at least the degree-0 component")
        for n, comp in enumerate(components):
            if comp.degree != n:
                raise TheoryError(
                    "component %d has degree %d" % (n, comp.degree))
            _check_letters(comp.terms, ctx.basis.dim)
        if components[0] != ctx.unit():
            raise TheoryError("degree-0 component must be the unit")
        self.ctx = ctx
        self.components = components

    @property
    def max_degree(self):
        return len(self.components) - 1

    _failure = cached_property(lambda self: check_morphism(self))

    @cached_property
    def _value_tables(self):
        """Per degree, the values on the basis words as a word -> value
        dict: the component's coefficient times the Gram factors of the
        word's letters; absent words are 0."""
        gram = self.ctx.basis.gram
        return tuple({word: c * math.prod(gram[letter] for letter in word)
                      for word, c in comp.terms.items()}
                     for comp in self.components)

    @cached_property
    def _num_tables(self):
        """``_over_lcm`` of the components' terms, for the closed formulas."""
        return _over_lcm(*(comp.terms for comp in self.components))

    def __call__(self, x):
        """Evaluate on an element, word by word."""
        n = x.degree
        if n > self.max_degree:
            raise TheoryError("character only defined up to degree %d"
                              % self.max_degree)
        _check_letters(x.terms, self.ctx.basis.dim)
        values = self._value_tables[n]
        return sum((c * values.get(word, 0) for word, c in x.terms.items()),
                   Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, LinearCharacter)
                and self.ctx == other.ctx
                and self.components == other.components)

    def __hash__(self):
        return hash((self.ctx, self.components))

    def __repr__(self):
        return "LinearCharacter(max_degree=%d)" % self.max_degree


def counit_character(ctx, max_degree):
    """The identity of the character group: counit in every degree."""
    comps = [ctx.unit()]
    for n in range(1, max_degree + 1):
        comps.append(TensorElement(n))  # zero functional above degree 0
    return LinearCharacter(ctx, comps)


def constant_character(ctx, psi, max_degree):
    """The character whose degree-n component is the pure tensor word
    with every letter psi, a ``BaseElement`` of the context's basis.

    Multiplicative exactly when psi pairs to 1 with iota.
    """
    if not isinstance(psi, BaseElement) or psi.basis != ctx.basis:
        raise TheoryError("psi must be an element of the context's basis")
    comps = [ctx.unit()]
    for n in range(1, max_degree + 1):
        entries = [psi.coords] * (n - 1)
        comps.append(TensorElement(n, expand_letters(entries, 1)))
    return LinearCharacter(ctx, comps)


def check_morphism(chi):
    """Test multiplicativity of ``chi`` on every basis word up to its
    max degree.

    The product splices iota between two words, so chi(x·y) pairs the
    letter at the splice against iota.  For each degree n and each split
    j, the degree-n component with its j-th letter paired against iota
    must equal the tensor of the degree-j and degree-(n-j) components.
    Returns None if all checks pass, else ``(n, j, lhs, rhs)`` for the
    first failing pair of functionals (as coefficient dictionaries).
    """
    pair_iota = chi.ctx.basis.pairings(chi.ctx.iota)
    comps = chi.components
    for n in range(2, chi.max_degree + 1):
        for j in range(1, n):
            lhs = TensorElement(n - 1, (  # letter j paired away
                (w[:j - 1] + w[j:], c * pair_iota[w[j - 1]])
                for w, c in comps[n].terms.items()))
            rhs = TensorElement(n - 1, {
                lw + rw: lc * rc for lw, lc in comps[j].terms.items()
                for rw, rc in comps[n - j].terms.items()})
            if lhs != rhs:
                return (n, j, dict(lhs.terms), dict(rhs.terms))
    return None


def _require_morphisms(*chis):
    ctx = chis[0].ctx
    for chi in chis:
        if chi.ctx != ctx:
            raise ContextMismatch("characters over different contexts")
        bad = chi._failure
        if bad is not None:
            raise NotAMorphism(
                "not multiplicative at degree %d, split %d" % bad[:2])


def _check_definition(psi, gamma, want):
    """Raise unless the definitional composite (psi * gamma)(x), summed
    over the coproduct of x, equals want(x) on every basis word x of
    positive degree up to want's max degree.  The sum runs on int
    numerators over one denominator per degree."""
    left_den, *left = _over_lcm(*psi._value_tables)
    right_den, *right = _over_lcm(*gamma._value_tables)
    delta = type(psi.ctx)._coproduct_num
    for n in range(1, want.max_degree + 1):
        sums = {}
        for word in psi.ctx.basis_words(n):
            den, terms = psi.ctx._word_form(delta, n, word)  # D^(2(n-1))
            sums[word] = sum(c * lv * rv for ((ld, lw), (rd, rw)), c
                             in terms.items() if (lv := left[ld].get(lw))
                             and (rv := right[rd].get(rw)))
        defined = (den * left_den * right_den, sums)
        closed = want._value_tables[n]
        if not _same(_over_lcm(closed), defined):
            shown = _fractions(*defined)
            word = next(w for w in defined[1]
                        if closed.get(w, 0) != shown.get(w, 0))
            raise TheoryError(
                "closed formula disagrees with the definition at "
                "degree %d word %r: %s != %s"
                % (n, word, closed.get(word, 0), shown.get(word, 0)))


def convolve(psi, gamma):
    """Convolution product of two characters, as a character of the
    same max degree (the smaller of the two).

    Computed by the closed alternating-block formula, then re-checked
    on every basis word against the definitional composite through the
    coproduct; a mismatch raises (it would mean an internal error, not
    bad input).
    """
    _require_morphisms(psi, gamma)
    ctx = psi.ctx
    top = min(psi.max_degree, gamma.max_degree)
    alpha, beta = _letter(ctx.alpha.coords), _letter(ctx.beta.coords)
    out = LinearCharacter(ctx, [ctx.unit()] + [
        _convolve_component(psi, gamma, n, alpha, beta)
        for n in range(1, top + 1)])
    _check_definition(psi, gamma, out)
    return out


def _interleave(chi_a, chi_b, mark_a, mark_b, mu):
    """The words of one composition mu as an int form: blocks taken
    alternately from chi_a, chi_b, chi_a, ..., each block after the first
    behind the previous block's marker (a ``_letter`` block), expanded by
    ``_expand_num``."""
    sides = (chi_a._num_tables, mark_a), (chi_b._num_tables, mark_b)
    entries = []
    for b, part in enumerate(mu):
        (den, *blocks), mark = sides[b % 2]
        entries += [(den, blocks[part]), mark]
    return _expand_num(entries[:-1])


def _convolve_component(psi, gamma, n, alpha, beta):
    return _element(n, _sum_forms(
        (1, _interleave(*pair, mu)) for mu in compositions(n)
        for pair in ((psi, gamma, alpha, beta), (gamma, psi, beta, alpha))))


def inverse(psi):
    """Convolution inverse: degree-n component is the signed sum over
    compositions of psi blocks joined by (alpha + beta) markers."""
    _require_morphisms(psi)
    ctx = psi.ctx
    mark = _letter((ctx.alpha + ctx.beta).coords)
    comps = [ctx.unit()]
    for n in range(1, psi.max_degree + 1):
        comps.append(_element(n, _sum_forms(
            (-1 if len(mu) % 2 else 1, _interleave(psi, psi, mark, mark, mu))
            for mu in compositions(n))))
    out = LinearCharacter(ctx, comps)
    _check_definition(psi, out, counit_character(ctx, psi.max_degree))
    return out


def is_odd(psi):
    """True when the inverse negates every odd component and fixes the
    even ones, i.e. the inverse component equals (-1)^n times the
    original in each degree n."""
    inv = inverse(psi)
    for n in range(1, psi.max_degree + 1):
        sign = -1 if n % 2 else 1
        if inv.components[n] != sign * psi.components[n]:
            return False
    return True


def looks_module_supported(chi):
    """Heuristic nonnegativity screen: every word coefficient times the
    Gram weights of its letters is a nonnegative integer.  Necessary
    (not sufficient) for the functional to count module dimensions."""
    return all(v >= 0 and Fraction(v).denominator == 1
               for values in chi._value_tables for v in values.values())
