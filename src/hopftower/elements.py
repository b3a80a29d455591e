"""Sparse graded vectors over words of basis letters.

A degree-n vector is a finite rational combination of words of n-1 letters
(indices into a character basis); degree 0 is one-dimensional, spanned by
the empty word.  A :class:`TensorSquare` holds an element of the tensor
square, keyed by pairs of (degree, word).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian


def _accumulate(terms, key, coeff):
    """Add ``coeff`` to ``terms[key]``, dropping the key when it cancels."""
    new = terms.get(key, 0) + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


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


def basis_words(dim, degree):
    """Yield the words indexing the degree-n component (the empty word for
    degrees 0 and 1).

    >>> list(basis_words(2, 3))
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    >>> list(basis_words(3, 1))
    [()]
    """
    if degree == 0:
        yield ()
        return
    yield from _cartesian(range(dim), repeat=degree - 1)


def expand_letters(entries, coeff=1):
    """Expand a template of letters into a word -> coefficient dict.

    Each entry is either an int (a fixed letter) or a coordinate tuple
    (a letter expanded over the basis, one branch per nonzero coordinate).

    >>> sorted(expand_letters([0, (Fraction(1), Fraction(-2))]).items())
    [((0, 0), Fraction(1, 1)), ((0, 1), Fraction(-2, 1))]
    """
    partial = {(): Fraction(coeff)}
    for entry in entries:
        if isinstance(entry, int):
            partial = {w + (entry,): c for w, c in partial.items()}
            continue
        # the words of partial share one length, so each (i, w) gives its
        # own key and nothing needs accumulating
        partial = {w + (i,): c * ci for i, ci in enumerate(entry) if ci
                   for w, c in partial.items() if c}
        if not partial:
            break
    return partial
