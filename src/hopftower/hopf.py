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

from .elements import TensorElement, TensorSquare, basis_words, expand_letters


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
        self.pair_iota = basis.pairings(iota)
        self.pair_alpha = basis.pairings(alpha)
        self.pair_beta = basis.pairings(beta)
        if check:
            for which, e in (("alpha", alpha), ("beta", beta)):
                value = iota.inner(e)
                if value != 1:
                    raise PairingNotOne(which, value)
        self._antipode_cache = {}

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

    def product(self, x, y):
        """Insert iota between the words of x and y, bilinearly."""
        if x.degree == 0:
            return x.coefficient(()) * y
        if y.degree == 0:
            return y.coefficient(()) * x
        # every word of x (of y) has the same length, so each (u, i, v)
        # splices to its own word and nothing needs accumulating
        out = {}
        for u, cu in x.terms.items():
            for v, cv in y.terms.items():
                c = cu * cv
                for i, ci in enumerate(self.iota_coords):
                    if ci:
                        out[u + (i,) + v] = c * ci
        result = TensorElement(x.degree + y.degree)
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
        full = (1 << n) - 1
        for word, coeff in x.terms.items():
            for mask in range(full + 1):
                in_left = [(mask >> j) & 1 for j in range(n)]  # position j+1
                left_n = sum(in_left)
                right_n = n - left_n
                max_left = max((j + 1 for j in range(n) if in_left[j]), default=0)
                max_right = max((j + 1 for j in range(n) if not in_left[j]), default=0)
                left_entries, right_entries = [], []
                scalar = coeff
                for j in range(1, n):
                    here, nxt = in_left[j - 1], in_left[j]
                    letter = word[j - 1]
                    if here == nxt:
                        (left_entries if here else right_entries).append(letter)
                        continue
                    scalar = scalar * (self.pair_alpha[letter] if here
                                       else self.pair_beta[letter])
                    if not scalar:
                        break
                    side_max = max_left if here else max_right
                    if j != side_max:
                        (left_entries if here else right_entries).append(
                            self.iota_coords)
                if not scalar:
                    continue
                for lw, lc in expand_letters(left_entries, scalar).items():
                    for rw, rc in expand_letters(right_entries, 1).items():
                        out.add_term(((left_n, lw), (right_n, rw)), lc * rc)
        return out

    def square_product(self, s, t):
        """Componentwise product of two tensor-square elements."""
        out = TensorSquare()
        for ((lda, lwa), (rda, rwa)), ca in s.terms.items():
            la = TensorElement(lda, {lwa: 1})
            ra = TensorElement(rda, {rwa: 1})
            for ((ldb, lwb), (rdb, rwb)), cb in t.terms.items():
                left = self.product(la, TensorElement(ldb, {lwb: 1}))
                right = self.product(ra, TensorElement(rdb, {rwb: 1}))
                c = ca * cb
                for lw, lc in left.terms.items():
                    for rw, rc in right.terms.items():
                        out.add_term(((left.degree, lw), (right.degree, rw)),
                                     c * lc * rc)
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


def all_ones_context(basis):
    """iota = alpha = beta = the all-ones character."""
    one = basis.one
    return HopfContext(basis, one, one, one)


def induction_context(basis):
    """iota = regular character, alpha = all-ones,
    beta = (reg - one) / (order - 1)."""
    one, reg = basis.one, basis.reg
    return HopfContext(basis, reg, one, (reg - one) / (basis.order - 1))
