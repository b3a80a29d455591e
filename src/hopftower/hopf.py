"""Graded product and coproduct on words over a character basis.

A context fixes an insertion element iota and a pairing pair (alpha, beta)
with <iota, alpha> = <iota, beta> = 1.  The product of two words inserts
iota (expanded over the basis) between them; the coproduct sums over the
2^n splittings of the n tensor positions, sending each inter-position
letter to one side, pairing it away against alpha or beta, or replacing it
by an iota marker, according to where the neighbouring positions land.
Each choice is local to one letter, so the sum is taken letter by letter,
merging equal partial states across input words (transfer-matrix method).

``product``, ``coproduct`` and ``square_product`` wrap the int-form
kernels ``_product_num``, ``_coproduct_num`` and ``_square_product_num``
(see ``elements`` for the int form), which callers inside the package
read directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .elements import (TensorElement, TensorSquare, _check_letters, _element,
                       _over_lcm, _square, basis_words, expand_letters)


class PairingNotOne(ValueError):
    """The insertion element must pair to 1 with both coproduct elements."""

    exit_code = 3  # the CLI's exit code for an invalid triple

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
        # Δ, closed S and the oracle's S of basis words, for _word_form,
        # as long-lived as the context.  At the CLI's largest admitted
        # verify --suite all, Δ holds 64 words in 0.15 MiB (two_dim(3),
        # degree 6), 122 in 0.31 MiB (cyclic4, degree 5) or 260 in 0.51 MiB
        # (rank 6, degree 4), and closed S 0.03, 0.62 or 5.8 MiB; at rank
        # 18 verify's antipode suite leaves 11 MiB of closed S and 8.8 of
        # the oracle's.  The oracle's S holds the left words of its inputs'
        # coproducts, below their degrees, and each one-word input: after
        # an admitted --cross-check, at most 44 (rank 6, degree 4).
        self._word_forms = {}

    # The integer kernels work on numerators over D, the common denominator
    # of the pairing and iota tables: the pairings times D, iota times D as
    # its nonzero (letter, int) pairs, and each difference letter
    # D*letter - <letter,alpha>*D*iota as (letter, int) pairs over D^2.
    # Each table is built on first use.

    @cached_property
    def _int_tables(self):
        return _over_lcm(self.pair_alpha, self.pair_beta, self.iota_coords)

    _den = cached_property(lambda self: self._int_tables[0])
    _alpha_num = cached_property(lambda self: self._int_tables[1])
    _beta_num = cached_property(lambda self: self._int_tables[2])

    @cached_property
    def _iota_num(self):
        return tuple((i, c) for i, c in enumerate(self._int_tables[3]) if c)

    @cached_property
    def _diff_num(self):
        den2 = self._den ** 2
        return tuple(
            tuple((i, v) for i, c in enumerate(self._int_tables[3])
                  if (v := (den2 if i == letter else 0) - pa * c))
            for letter, pa in enumerate(self._alpha_num))

    @cached_property
    def _words(self):
        # _coproduct_num's (packed word -> (degree, word), b bits a letter):
        # the words below the degrees asked for, each unpacked once; 3,280
        # after the CLI's largest admitted coproduct (cyclic4, degree 9)
        return {1: (1, ())}, max(1, (self.basis.dim - 1).bit_length())

    @classmethod
    def unchecked(cls, basis, iota, alpha, beta):
        """Skip triple validation (for probing invalid triples)."""
        return cls(basis, iota, alpha, beta, check=False)

    def _key(self):
        return (self.basis, self.iota.coords, self.alpha.coords, self.beta.coords)

    def __eq__(self, other):
        return isinstance(other, HopfContext) and self._key() == other._key()

    # once per context, not per hash of a character over it
    _hash = cached_property(lambda self: hash(self._key()))

    def __hash__(self):
        return self._hash

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

    def _int_form(self, x):
        """The int form of an element or tensor square, letters checked."""
        _check_letters(x.terms if isinstance(x, TensorElement) else
                       (w for key in x.terms for _, w in key), self.basis.dim)
        return _over_lcm(x.terms)

    # -- product -------------------------------------------------------------

    def product(self, x, y):
        """Insert iota between the words of x and y, bilinearly; terms in
        ``_product_num``'s order."""
        return _element(x.degree + y.degree, self._product_num(
            x.degree, self._int_form(x), y.degree, self._int_form(y)))

    def _product_num(self, dx, x, dy, y):
        """The product of the int forms x and y, of degrees dx and dy, over
        their denominators times D; words in the order of the loops."""
        (lx, xs), (ly, ys) = x, y
        iota, d = self._iota_num, self._den
        # every word of x (of y) has the same length, so each splice gives
        # its own word and nothing needs accumulating
        out = {}
        for u, cu in xs.items():
            for v, cv in ys.items():
                c = cu * cv
                for w, cw in _splice(dx, u, dy, v, iota, d):
                    out[w] = c * cw
        return lx * ly * d, out

    def product_many(self, factors):
        """Product of a sequence of elements; empty product is the unit."""
        acc = self.unit()
        for f in factors:
            acc = self.product(acc, f)
        return acc

    # -- coproduct -----------------------------------------------------------

    def coproduct(self, x):
        """Sum over subsets of the tensor positions 1..n; terms in
        ``_coproduct_num``'s order."""
        return _square(self._coproduct_num(x.degree, self._int_form(x)))

    def _coproduct_num(self, n, x):
        """The coproduct of the int form x of degree n, keys in the order
        of the passes and zeros left in.

        Positions in the subset feed the left factor, the rest the right
        factor, each side keeping its letters in increasing position
        order.  A letter between two positions on the same side survives
        on that side; between sides it is paired away (against alpha when
        the left position comes first, beta otherwise) and replaced by an
        iota marker on its own side unless its position is the last one
        there.

        One pass over the letters on int numerators over D^(2(n-1)): a
        kept letter (D^2) joins its side; a split's first crossing, at
        letter j, is read off the input word (its pairing, D, and D^2 per
        letter before it); a later one enters a side already started and
        puts there the marker that side is owed, as its iota pairs.
        Words are packed ints, a 1 bit then b bits a letter, so a letter
        joins a word as ``w << b | a``.  States merge across the words of
        x, grouped by their unread letters, an int whose low b bits are the
        next letter; their words are unpacked at the end through
        ``_words``.
        """
        common, nums = x
        if not nums:  # at once: no letter passes and no D^(2(n-1))
            return common, {}
        alpha, beta, iota = self._alpha_num, self._beta_num, self._iota_num
        d1, d2 = self._den, self._den ** 2
        top = d2 ** max(n - 1, 0)  # D^(2(n-1))
        words, b = self._words
        mask = (1 << b) - 1
        ends = [(w, v * top) for w, v in nums.items()]
        acc = {((0, ()), (n, w)): v for w, v in ends}
        heads = []  # (head read, unread letters, numerator)
        for w, v in nums.items():
            rest = 0
            for a in reversed(w):
                rest = rest << b | a
            heads.append((1, rest, v))
        # by the side of the position last read (left, right): groups of
        # states keyed (that side's word, the other side's word)
        on, scale = ({}, {}), d1
        for _ in range(n - 1):
            old, on = on, ({}, {})
            old_heads, heads = heads, []
            for head, rest, v in old_heads:  # a first crossing, at this letter
                a, rest = rest & mask, rest >> b
                heads.append((head << b | a, rest, v))
                if s := v * alpha[a] * scale:  # on to the right
                    group = on[1].setdefault(rest, {})
                    group[key] = group.get(key := (1, head), 0) + s
                if s := v * beta[a] * scale:  # on to the left
                    group = on[0].setdefault(rest, {})
                    group[key] = group.get(key := (1, head), 0) + s
            scale *= d2
            for side, pair_of in ((0, alpha), (1, beta)):
                here, there = on[side], on[1 - side]
                while old[side]:
                    rest, states = old[side].popitem()
                    a, rest = rest & mask, rest >> b
                    kept, pair = here.setdefault(rest, {}), pair_of[a]
                    crossed = there.setdefault(rest, {}) if pair else None
                    for (own, other), v in states.items():
                        key = (own << b | a, other)
                        kept[key] = kept.get(key, 0) + v * d2
                        if pair:
                            s, other = v * pair, other << b
                            for i, c in iota:
                                key = (other | i, own)
                                crossed[key] = crossed.get(key, 0) + s * c
        # each side's states end in one group, with no letters unread
        states = on[0].pop(0, {})
        for (rw, lw), v in on[1].pop(0, {}).items():
            states[lw, rw] = states.get((lw, rw), 0) + v
        for (lw, rw), v in states.items():
            try:
                acc[words[lw], words[rw]] = v
            except KeyError:  # a word this context has not unpacked yet
                _unpack(words, lw, b)
                _unpack(words, rw, b)
                acc[words[lw], words[rw]] = v
        acc.update((((n, w), (0, ())), v) for w, v in ends)
        return common * top, acc

    def _word_form(self, kernel, n, word):
        """``kernel(self, n, (1, {word: 1}))`` of the basis word of degree
        n, zeros dropped, keys as it emits them; once per context and
        kernel, keyed (kernel, degree, word).  The memo dies with the
        context, which a ``functools`` cache (keyed by ``self``) would keep
        alive.  Callers look the kernel up when they call: a test patches
        ``_coproduct_num`` or ``antipode._closed_num`` after import."""
        forms, key = self._word_forms, (kernel, n, word)
        if key not in forms:
            den, terms = kernel(self, n, (1, {word: 1}))
            forms[key] = den, {k: v for k, v in terms.items() if v}
        return forms[key]

    def square_product(self, s, t):
        """Componentwise product of two tensor-square elements; terms in
        ``_square_product_num``'s order."""
        return _square(self._square_product_num(self._int_form(s),
                                                self._int_form(t)))

    def _square_product_num(self, s, t):
        """The componentwise product of the int forms s and t, keys in the
        order the loops first reach them and zeros left in."""
        # a splice is over D (a unit factor padded by D): every term is
        # over ds * dt * D^2
        (ds, s), (dt, t) = s, t
        iota, den = self._iota_num, self._den
        acc = {}
        for ((lda, lwa), (rda, rwa)), ca in s.items():
            for ((ldb, lwb), (rdb, rwb)), cb in t.items():
                c = ca * cb
                rights = _splice(rda, rwa, rdb, rwb, iota, den)
                for lw, lc in _splice(lda, lwa, ldb, lwb, iota, den):
                    for rw, rc in rights:
                        key = ((lda + ldb, lw), (rda + rdb, rw))
                        acc[key] = acc.get(key, 0) + c * lc * rc
        return ds * dt * den ** 2, acc

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
        _check_letters((word,), self.basis.dim)
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
        _check_letters((word,), self.basis.dim)
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


def _splice(du, u, dv, v, iota, one):
    """Basis words u, v of degrees du, dv multiplied, as (word, coeff)
    pairs: each (letter, coeff) of ``iota`` spliced in between, or one
    word alone with coeff ``one`` if the other is the unit."""
    if not du:
        return ((v, one),)
    if not dv:
        return ((u, one),)
    return [(u + (i,) + v, c) for i, c in iota]


def _unpack(words, packed, b):
    """Add ``packed`` to ``words`` (packed word -> (degree, word)) with
    the prefixes it needs, each off its prefix's entry and last letter."""
    todo = []
    while packed not in words:
        todo.append(packed)
        packed >>= b
    k, word = words[packed]
    for packed in reversed(todo):
        k, word = k + 1, word + (packed & ((1 << b) - 1),)
        words[packed] = k, word


def all_ones_context(basis):
    """iota = alpha = beta = the all-ones character."""
    one = basis.one
    return HopfContext(basis, one, one, one)


def induction_context(basis):
    """iota = regular character, alpha = all-ones,
    beta = (reg - one) / (order - 1)."""
    one, reg = basis.one, basis.reg
    return HopfContext(basis, reg, one, (reg - one) / (basis.order - 1))
