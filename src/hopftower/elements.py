"""Sparse graded vectors over words of basis letters.

A degree-n vector is a finite rational combination of words of n-1 letters
(indices into a character basis); degree 0 is one-dimensional, spanned by
the empty word.  A :class:`TensorSquare` holds an element of the tensor
square, keyed by pairs of (degree, word).

Coefficients are ``Fraction``s at the public edge only.  Inside, the
kernels (the ``_*_num`` functions of ``hopf``, ``antipode`` and ``nsym``,
and the closed formulas of ``characters``) take and return the *int
form* ``(den, key -> int numerator over den)``.  Seven helpers here are
all that touch it: ``_over_lcm`` builds it, ``_letter`` makes a letter's
coordinates a block (the int form of one-letter words), ``_expand_num``
joins blocks of words of one length, ``_expand_positions`` expands the
entries of its words (the set-composition antipode routes' iota
markers and ``nsym``'s letters), ``_sum_forms`` adds scaled ones,
``_same`` compares two by cross-multiplication, and ``_fractions`` is
the one edge back to nonzero ``Fraction`` terms, one per distinct
numerator, which ``_element`` and ``_square`` put in the public types.
A public kernel checks its letters (``_check_letters``) and converts once
each way; the antipode routes' kernels are compared as int forms.  A
kernel adds with ``d.get(k, 0)`` and keeps zeros, which leave an int
form only at ``_fractions``, the last merge of ``_expand_positions`` and
``_sum_forms``, where ``HopfContext._word_form`` stores a memo entry and
where ``antipode._closed_num`` unpacks its words; ``_accumulate``,
dropping a key as it cancels, serves the public types and ``_sum_forms``.

Key order carries no meaning: every kernel emits its keys in the order
its loops leave them, and only the output edge sorts: ``sorted_terms``
(for ``repr``), ``serialize``'s term lists and ``nsym``'s structure
constants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from math import lcm


def _accumulate(terms, key, coeff):
    """Add ``coeff`` to ``terms[key]``, dropping the key when it cancels;
    a new key takes ``coeff`` itself, unless it is zero."""
    old = terms.get(key)
    if old is None:
        if coeff:
            terms[key] = coeff
    elif new := old + coeff:
        terms[key] = new
    else:
        del terms[key]


def _check_letters(words, dim):
    """Refuse a word with a letter that is not an int in ``range(dim)``."""
    for w in words:
        for a in w:
            if not (isinstance(a, int) and 0 <= a < dim):
                raise ValueError(f"word {w} has a letter outside range({dim})")


def _over_lcm(*tables):
    """Rationals over one denominator: ``(L, *numerators)``, L the lcm of
    the denominators in all ``tables``, each table as int numerators over
    L, a dict (key -> rational) as a dict on its keys, a sequence as a
    tuple.

    >>> _over_lcm({"a": Fraction(1, 2)}, (Fraction(2, 3), 1))
    (6, {'a': 3}, (4, 6))
    """
    den = lcm(*(c.denominator for t in tables
                for c in (t.values() if isinstance(t, dict) else t)))
    return (den, *({k: c.numerator * (den // c.denominator)
                    for k, c in t.items()} if isinstance(t, dict)
                   else tuple(c.numerator * (den // c.denominator) for c in t)
                   for t in tables))


def _fractions(den, nums):
    """The int form ``(den, nums)`` as its nonzero ``Fraction`` terms, in
    ``nums``' own key order: the one edge out of the int form.

    >>> _fractions(4, {"b": 2, "a": 0, "c": -4})
    {'b': Fraction(1, 2), 'c': Fraction(-1, 1)}
    """
    made = {v: Fraction(v, den) for v in set(nums.values()) if v}
    return {k: made[v] for k, v in nums.items() if v}


def _sum_forms(scaled):
    """The sum of (int scalar, int form) pairs over the lcm of their
    denominators, keys in the order ``_accumulate`` leaves them.

    >>> _sum_forms([(1, (2, {"a": 1, "b": 1})), (-1, (4, {"a": 2, "c": 3}))])
    (4, {'b': 2, 'c': -3})
    """
    scaled = list(scaled)
    den, acc = lcm(*(d for _, (d, _) in scaled)), {}
    for s, (d, nums) in scaled:
        s *= den // d
        for k, v in nums.items():
            _accumulate(acc, k, s * v)
    return den, acc


def _same(a, b):
    """Whether the int forms ``a`` and ``b`` hold the same rationals, by
    cross-multiplication; zeros may stay in either."""
    (da, na), (db, nb) = a, b
    return (da == db and na == nb
            or {k: v * db for k, v in na.items() if v}
            == {k: v * da for k, v in nb.items() if v})


class _Sparse:
    """Arithmetic shared by the two sparse types, whose ``terms``
    map keys to nonzero rationals."""

    __slots__ = ()

    def add_scaled(self, terms, scalar=1):
        """Add ``scalar`` times a key -> rational dict in place, taking keys
        and coefficients as given; returns self."""
        if scalar != 1:
            terms = {key: c * scalar for key, c in terms.items()}
        data = self.terms
        for key, c in terms.items():
            _accumulate(data, key, c)
        return self

    def __iadd__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self.add_scaled(other.terms)

    def __add__(self, other):
        if not self._compatible(other):
            return NotImplemented
        out = self._empty()
        out.terms = dict(self.terms)
        return out.add_scaled(other.terms)

    def __isub__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self.add_scaled(other.terms, -1)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        out = self._empty()
        if scalar:
            out.terms = {k: c * scalar for k, c in self.terms.items()}
        return out

    __rmul__ = __mul__

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)


class TensorElement(_Sparse):
    """A homogeneous element: dict from words to nonzero coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        want = max(degree - 1, 0)
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for word, coeff in items:
                word = tuple(word)
                if len(word) != want:
                    raise ValueError(
                        f"degree-{degree} words have {want} letters, got {word!r}")
                _accumulate(data, word, Fraction(coeff))
        self.terms = data

    @classmethod
    def unit(cls, coeff=1):
        return cls(0, {(): coeff})

    @classmethod
    def basis(cls, degree, word):
        return cls(degree, {tuple(word): 1})

    @classmethod
    def zero(cls, degree):
        return cls(degree)

    def coefficient(self, word):
        return self.terms.get(tuple(word), Fraction(0))

    def add_term(self, word, coeff):
        """Add ``coeff`` times one word, in place."""
        _accumulate(self.terms, tuple(word), Fraction(coeff))

    def _empty(self):
        return TensorElement(self.degree)

    def _compatible(self, other):
        if not isinstance(other, TensorElement):
            return False
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        return True

    # an attribute of this class too, which perfbench/tracer.py wraps
    __add__ = _Sparse.__add__

    def __neg__(self):
        out = self._empty()
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __eq__(self, other):
        return (isinstance(other, TensorElement)
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"TensorElement({self.degree}, 0)"
        body = ", ".join(f"{w}: {c}" for w, c in self.sorted_terms())
        return f"TensorElement({self.degree}, {{{body}}})"


class TensorSquare(_Sparse):
    """An element of the tensor square, keyed by ((ldeg, lword), (rdeg, rword))."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                self.add_term(key, coeff)

    def add_term(self, key, coeff):
        (ld, lw), (rd, rw) = key
        key = ((ld, tuple(lw)), (rd, tuple(rw)))
        _accumulate(self.terms, key, Fraction(coeff))

    @classmethod
    def tensor(cls, left, right):
        """The outer product of two homogeneous elements."""
        out = cls()
        for lw, lc in left.terms.items():
            for rw, rc in right.terms.items():
                out.add_term(((left.degree, lw), (right.degree, rw)), lc * rc)
        return out

    def _empty(self):
        return TensorSquare()

    def _compatible(self, other):
        return isinstance(other, TensorSquare)

    def __eq__(self, other):
        return isinstance(other, TensorSquare) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "TensorSquare(0)"
        body = ", ".join(f"{k}: {c}" for k, c in self.sorted_terms())
        return f"TensorSquare({{{body}}})"


def _element(n, form):
    """The int form as the public degree-n element, its nonzero
    ``Fraction`` terms in the form's key order."""
    out = TensorElement(n)
    out.terms = _fractions(*form)
    return out


def _square(form):
    """The int form as the public tensor-square element, as ``_element``."""
    out = TensorSquare()
    out.terms = _fractions(*form)
    return out


def basis_words(dim, degree):
    """Yield the words indexing the degree-n component (the empty word for
    degrees 0 and 1).

    >>> list(basis_words(2, 3))
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    >>> list(basis_words(3, 1))
    [()]
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _cartesian(range(dim), repeat=max(degree - 1, 0))


def expand_letters(entries, coeff=1):
    """Expand a template of letters, each an int (a fixed letter) or a
    coordinate tuple (one branch per nonzero coordinate), into a word ->
    coefficient dict: the nonzero terms of ``_expand_num``.

    >>> sorted(expand_letters([0, (Fraction(1), Fraction(-2))]).items())
    [((0, 0), Fraction(1, 1)), ((0, 1), Fraction(-2, 1))]
    >>> expand_letters([0, 1], 0)
    {}
    """
    return _fractions(*_expand_num(
        [(1, {(e,): 1}) if isinstance(e, int) else _letter(e)
         for e in entries], coeff))


def _letter(coords):
    """A letter's coordinates as a block of one-letter words."""
    return _over_lcm({(i,): c for i, c in enumerate(coords) if c})


def _expand_num(blocks, coeff=1):
    """``expand_letters`` on int forms, each entry a block ``(den, {word:
    numerator})`` of words of one length (``_letter`` makes a letter's),
    over the product of the coefficient's and the blocks' denominators.

    >>> _expand_num([(2, {(0,): 1}), (1, {(1,): 1})], Fraction(2, 3))
    (6, {(0, 1): 2})
    >>> _expand_num([(3, {(0,): 1, (1,): -2}), _letter((0, Fraction(1, 2)))])
    (6, {(0, 1): 1, (1, 1): -2})
    """
    coeff = coeff if isinstance(coeff, int) else Fraction(coeff)
    den, partial = coeff.denominator, {(): coeff.numerator}
    for d, nums in blocks:
        den *= d
        # the words of partial (of a block) share one length, so each pair
        # of words gives its own key and nothing needs accumulating
        partial = {w + bw: c * bc for w, c in partial.items()
                   for bw, bc in nums.items()}
    return den, partial


def _expand_positions(terms, subs):
    """Expand every position of words of one length (word -> int or
    Fraction) in turn: an entry in ``subs`` becomes its (letter,
    coefficient) pairs, others stay, equal words merge and zeros drop.

    >>> _expand_positions({(-1, 0): 2, (1, 1): 0}, {-1: ((0, 3), (1, -1))})
    {(0, 0): 6, (1, 0): -2}
    """
    for p in range(len(next(iter(terms), ()))):
        out = {}
        for w, c in terms.items():
            pairs = subs.get(w[p])
            if pairs is None:
                out[w] = out.get(w, 0) + c
            elif c:
                head, tail = w[:p], w[p + 1:]
                for i, ci in pairs:
                    key = head + (i,) + tail
                    out[key] = out.get(key, 0) + c * ci
        terms = out
    return {w: c for w, c in terms.items() if c}
