"""Graded product and coproduct on words over a character basis.

A context fixes an insertion element iota and a pairing pair (alpha, beta)
with <iota, alpha> = <iota, beta> = 1.  The product of two words inserts
iota (expanded over the basis) between them; the coproduct sums over the
2^n splittings of the n tensor positions, sending each inter-position
letter to one side, pairing it away against alpha or beta, or replacing it
by an iota marker, according to where the neighbouring positions land.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .elements import (TensorElement, TensorSquare, _accumulate, basis_words,
                       expand_letters)


class PairingNotOne(ValueError):
    """The insertion element must pair to 1 with both coproduct elements."""

    def __init__(self, which, value):
        self.which = which
        self.value = value
        super().__init__(f"<iota,{which}> = {value}, expected 1")


class IotaNotBasisElement(ValueError):
    """iota is not literally one of the basis characters."""


class HopfContext:
    """A validated (iota, alpha, beta) triple over a character basis."""

    def __init__(self, basis, iota, alpha, beta, check=True):
        for e in (iota, alpha, beta):
            if e.basis != basis:
                raise ValueError("triple elements must live in the given basis")
        self.basis = basis
        self.iota = iota
        self.alpha = alpha
        self.beta = beta
        self.iota_coords = iota.coords
        self.pair_alpha = basis.pairings(alpha)
        self.pair_beta = basis.pairings(beta)
        if check:
            for which, e in (("alpha", alpha), ("beta", beta)):
                value = iota.inner(e)
                if value != 1:
                    raise PairingNotOne(which, value)
        self._antipode_cache = {}

    # The integer kernels work on numerators over D, the common denominator
    # of the pairing and iota tables: the pairings times D, iota times D as
    # its nonzero (letter, int) pairs, and each difference letter
    # D*letter - <letter,alpha>*D*iota as (letter, int) pairs over D^2.
    # Each table is built on first use.

    @cached_property
    def _den(self):
        return lcm(*(c.denominator for c in
                     self.pair_alpha + self.pair_beta + self.iota_coords))

    @cached_property
    def _alpha_num(self):
        return _numerators(self.pair_alpha, self._den)

    @cached_property
    def _beta_num(self):
        return _numerators(self.pair_beta, self._den)

    @cached_property
    def _iota_num(self):
        return tuple((i, c) for i, c in
                     enumerate(_numerators(self.iota_coords, self._den)) if c)

    @cached_property
    def _diff_num(self):
        den2 = self._den ** 2
        iota = _numerators(self.iota_coords, self._den)
        return tuple(
            tuple((i, v) for i, c in enumerate(iota)
                  if (v := (den2 if i == letter else 0) - pa * c))
            for letter, pa in enumerate(self._alpha_num))

    @classmethod
    def unchecked(cls, basis, iota, alpha, beta):
        """Skip triple validation (for probing invalid triples)."""
        return cls(basis, iota, alpha, beta, check=False)

    def _key(self):
        return (self.basis, self.iota.coords, self.alpha.coords, self.beta.coords)

    def __eq__(self, other):
        return isinstance(other, HopfContext) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"HopfContext(iota={self.iota!r}, alpha={self.alpha!r}, "
                f"beta={self.beta!r})")

    # -- unit / counit -------------------------------------------------------

    def unit(self, coeff=1):
        return TensorElement(0, {(): coeff})

    def counit(self, x):
        return x.coefficient(()) if x.degree == 0 else Fraction(0)

    def basis_words(self, degree):
        return basis_words(self.basis.dim, degree)

    # -- product -------------------------------------------------------------

    def _splice(self, du, u, dv, v):
        """Basis words u, v of degrees du, dv multiplied, as (word, coeff)
        pairs: iota spliced in between, or one alone if the other is 1."""
        if not du:
            return ((v, 1),)
        if not dv:
            return ((u, 1),)
        return [(u + (i,) + v, c) for i, c in enumerate(self.iota_coords) if c]

    def product(self, x, y):
        """Insert iota between the words of x and y, bilinearly."""
        dx, dy = x.degree, y.degree
        # every word of x (of y) has the same length, so each splice gives
        # its own word and nothing needs accumulating
        out = {}
        for u, cu in x.terms.items():
            for v, cv in y.terms.items():
                c = cu * cv
                for w, cw in self._splice(dx, u, dy, v):
                    out[w] = c * cw
        result = TensorElement(dx + dy)
        result.terms = out
        return result

    def product_many(self, factors):
        """Product of a sequence of elements; empty product is the unit."""
        acc = self.unit()
        for f in factors:
            acc = self.product(acc, f)
        return acc

    # -- coproduct -----------------------------------------------------------

    def coproduct(self, x):
        """Sum over subsets of the tensor positions 1..n.

        Positions in the subset feed the left factor, the rest the right
        factor, each side keeping its letters in increasing position
        order.  A letter between two positions on the same side survives
        on that side; between sides it is paired away (against alpha when
        the left position comes first, beta otherwise) and replaced by an
        iota marker on its own side unless its position is the last one
        there.
        """
        n = x.degree
        out = TensorSquare()
        if n == 0:
            for w, c in x.terms.items():
                out.add_term(((0, ()), (0, ())), c)
            return out
        if not x.terms:
            return out
        iota, den, plans = self._iota_num, self._den, _split_plans(n)
        tables = (self._beta_num, self._alpha_num)
        scales = [den ** k for k in range(2 * n - 1)]
        common = lcm(*(c.denominator for c in x.terms.values()))
        acc = {}
        for word, coeff in x.terms.items():
            num = coeff.numerator * (common // coeff.denominator)
            for left_n, right_n, crossings, power, left, right in plans:
                scalar = num * scales[power]
                for j, flag in crossings:
                    scalar *= tables[flag][word[j]]
                    if not scalar:
                        break
                if not scalar:
                    continue
                rights = _expand_int(
                    [iota if j is None else word[j] for j in right], 1).items()
                for lw, lc in _expand_int(
                        [iota if j is None else word[j] for j in left],
                        scalar).items():
                    for rw, rc in rights:
                        _accumulate(acc, ((left_n, lw), (right_n, rw)),
                                    lc * rc)
        den = common * den ** (2 * (n - 1))
        out.terms = {key: Fraction(v, den) for key, v in acc.items()}
        return out

    def square_product(self, s, t):
        """Componentwise product of two tensor-square elements."""
        out = TensorSquare()
        for ((lda, lwa), (rda, rwa)), ca in s.terms.items():
            for ((ldb, lwb), (rdb, rwb)), cb in t.terms.items():
                c = ca * cb
                rights = self._splice(rda, rwa, rdb, rwb)
                for lw, lc in self._splice(lda, lwa, ldb, lwb):
                    for rw, rc in rights:
                        _accumulate(out.terms, ((lda + ldb, lw),
                                                (rda + rdb, rw)), c * lc * rc)
        return out

    def is_primitive(self, x):
        """True when the coproduct of x is x ⊗ unit + unit ⊗ x exactly."""
        expect = (TensorSquare.tensor(x, self.unit())
                  + TensorSquare.tensor(self.unit(), x))
        return self.coproduct(x) == expect

    # -- free generators -------------------------------------------------------

    @property
    def pivot(self):
        """Index of the letter standing for iota in the working basis."""
        for i, c in enumerate(self.iota_coords):
            if c:
                return i
        raise IotaNotBasisElement("iota is zero")

    @property
    def iota_is_basis_letter(self):
        p = self.pivot
        return all(c == (1 if i == p else 0)
                   for i, c in enumerate(self.iota_coords))

    def working_word_element(self, word):
        """The element a working-basis word stands for: the pivot letter
        means iota, every other letter means itself."""
        p = self.pivot
        entries = [self.iota_coords if letter == p else letter for letter in word]
        return TensorElement(len(word) + 1, expand_letters(entries, 1))

    def factor_into_generators(self, word, strict=False):
        """Split a working-basis word at its iota letters.

        Returns the tuple of iota-free segment words (possibly empty
        words).  Multiplying the segments back together under this context
        reproduces ``working_word_element(word)`` exactly.  With
        ``strict=True`` the change of basis is refused: iota must be one
        of the basis characters itself.
        """
        p = self.pivot
        if strict and not self.iota_is_basis_letter:
            raise IotaNotBasisElement(
                "iota is not a basis character; the factorization lives in "
                "the working basis")
        segments = []
        current = []
        for letter in word:
            if letter == p:
                segments.append(tuple(current))
                current = []
            else:
                current.append(letter)
        segments.append(tuple(current))
        return tuple(segments)

    def multiply_generators(self, segments):
        """Product of iota-free generator words (empty word = degree 1)."""
        return self.product_many(
            TensorElement(len(seg) + 1, {tuple(seg): 1}) for seg in segments)


@lru_cache(maxsize=16)
def _split_plans(n):
    """Per split: (left degree, right degree, crossings as (letter, 1 for
    alpha or 0 for beta), the power of D padding the term to D^(2(n-1)),
    left and right templates of letters, None for an iota marker)."""
    plans = []
    for mask in range(1 << n):
        side = [(mask >> j) & 1 for j in range(n)]  # 1: position j+1 left
        last = {s: j for j, s in enumerate(side)}
        crossings, left, right = [], [], []
        power = 2 * (n - 1)
        for j in range(n - 1):  # letter j sits between positions j+1, j+2
            here = side[j]
            entries = left if here else right
            if here == side[j + 1]:
                entries.append(j)
                continue
            crossings.append((j, here))
            power -= 1  # one D for the pairing, one more for a marker
            if j != last[here]:
                entries.append(None)
                power -= 1
        left_n = sum(side)
        plans.append((left_n, n - left_n, tuple(crossings), power,
                      tuple(left), tuple(right)))
    return tuple(plans)


def _numerators(values, den):
    """The ints ``values * den``, for a common denominator ``den``."""
    return tuple(c.numerator * (den // c.denominator) for c in values)


def _expand_int(entries, scalar):
    """:func:`expand_letters` over ints: each entry is an int (a fixed
    letter) or a tuple of (letter, nonzero int) pairs; ``scalar`` is a
    nonzero int.  Returns word -> int, in the key order of
    ``expand_letters``."""
    partial = {(): scalar}
    for entry in entries:
        if entry.__class__ is int:
            partial = {w + (entry,): c for w, c in partial.items()}
        else:
            partial = {w + (i,): c * ci for i, ci in entry
                       for w, c in partial.items()}
            if not partial:
                break
    return partial


def all_ones_context(basis):
    """iota = alpha = beta = the all-ones character."""
    one = basis.one
    return HopfContext(basis, one, one, one)


def induction_context(basis):
    """iota = regular character, alpha = all-ones,
    beta = (reg - one) / (order - 1)."""
    one, reg = basis.one, basis.reg
    return HopfContext(basis, reg, one, (reg - one) / (basis.order - 1))
