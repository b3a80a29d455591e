"""Exact character data for a finite group at a fixed coarsening.

A :class:`CharacterBasis` is a square table of rational character values
on classes, required to be orthogonal under the class-size-weighted inner
product and to contain the all-ones character.  Everything downstream
(inner products, pointwise products, the regular character) is derived
from the table with :mod:`fractions` arithmetic, so all computations in
the package are exact.
"""

from __future__ import annotations

from fractions import Fraction


class TheoryError(ValueError):
    """Invalid character data."""


class NonOrthogonalBasis(TheoryError):
    pass


class TrivialCharacterMissing(TheoryError):
    pass


class IdentityClassInvalid(TheoryError):
    pass


class RegularCharacterNotInSpan(TheoryError):
    """Kept as a public name: a valid table's rows span, so none raises it."""


class DualBasisUndefined(TheoryError):
    pass


def _exact(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TheoryError(
        f"table entries must be exact rationals (int, Fraction, or 'p/q' "
        f"string), got {type(value).__name__}: {value!r}")


def solve_linear_system(rows, rhs):
    """Solve the square system rows @ x = rhs exactly over the rationals.

    Raises :class:`DualBasisUndefined` when the matrix is singular.

    >>> solve_linear_system(((2, 0), (0, 4)), (1, 1))
    (Fraction(1, 2), Fraction(1, 4))
    """
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise DualBasisUndefined("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


class CharacterBasis:
    """An orthogonal basis of the class functions of a finite group.

    Rows of ``table`` are characters, columns are classes.  ``sizes[c]``
    counts the group elements in class c, and ``identity_class`` names the
    class of the identity element, which must be a singleton.  The table
    must be square (the rows must be a basis), the rows must be pairwise
    orthogonal with positive norms, and one row must be all ones.
    """

    def __init__(self, labels, table, sizes, identity_class):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise TheoryError(f"labels must be unique, got {labels!r}")
        table = tuple(tuple(_exact(v) for v in row) for row in table)
        d = len(labels)
        if len(table) != d or any(len(row) != len(table[0]) for row in table):
            raise NonOrthogonalBasis("table rows must match the labels")
        k = len(table[0]) if table else 0
        if d != k:
            raise NonOrthogonalBasis(
                f"{d} characters on {k} classes: not a basis")
        sizes = tuple(sizes)
        # type(...) is int: a bool is an int, but never a size or an index
        if len(sizes) != k or any(type(s) is not int or s <= 0 for s in sizes):
            raise TheoryError("sizes must be positive integers, one per class")
        if type(identity_class) is not int or not 0 <= identity_class < k:
            raise IdentityClassInvalid(
                f"identity_class {identity_class!r} out of range")
        if sizes[identity_class] != 1:
            raise IdentityClassInvalid("the identity class must be a singleton")

        self.labels = labels
        self.table = table
        self.sizes = sizes
        self.identity_class = identity_class
        self.dim = d
        self.order = sum(sizes)

        for i in range(d):
            for j in range(i):
                if self._pair(table[i], table[j]) != 0:
                    raise NonOrthogonalBasis(
                        f"rows {labels[i]!r} and {labels[j]!r} are not orthogonal")
        self.gram = tuple(self._pair(row, row) for row in table)
        if any(g <= 0 for g in self.gram):
            raise NonOrthogonalBasis("every row must have positive norm")

        ones = tuple(Fraction(1) for _ in range(k))
        try:
            self.one_index = table.index(ones)
        except ValueError:
            raise TrivialCharacterMissing(
                "the all-ones character must be one of the rows") from None

        # regular character: |G| at the identity class, 0 elsewhere.  The
        # rows are k orthogonal vectors of positive norm, so a basis: every
        # value vector is the sum of its coordinates <row, v>/<row, row>
        self._reg_coords = tuple(
            table[i][identity_class] / self.gram[i] for i in range(d))

        self._pointwise = {}

    def _pair(self, u, v):
        """Class-size-weighted inner product of two value vectors."""
        return Fraction(
            sum(s * a * b for s, a, b in zip(self.sizes, u, v)), self.order)

    def _coords(self, values):
        """Coordinates in the basis of a value vector in its span."""
        return [self._pair(row, values) / g
                for row, g in zip(self.table, self.gram)]

    # -- elements ----------------------------------------------------------

    def element(self, coords):
        return BaseElement(self, coords)

    def basis_element(self, i):
        return BaseElement(self, tuple(1 if j == i else 0 for j in range(self.dim)))

    @property
    def one(self):
        return self.basis_element(self.one_index)

    @property
    def reg(self):
        return BaseElement(self, self._reg_coords)

    def zero(self):
        return BaseElement(self, (0,) * self.dim)

    def from_values(self, values):
        """The element with the given class values; the rows span them all."""
        values = tuple(_exact(v) for v in values)
        if len(values) != self.dim:
            raise TheoryError("one value per class required")
        return BaseElement(self, self._coords(values))

    def pairings(self, elem):
        """Tuple of inner products of each basis character with elem."""
        if elem.basis is not self and elem.basis != self:
            raise TheoryError("element belongs to a different basis")
        return tuple(c * g for c, g in zip(elem.coords, self.gram))

    def pointwise_coords(self, i, j):
        """Coordinates of the pointwise product of basis characters i, j."""
        key = (i, j) if i <= j else (j, i)
        if key not in self._pointwise:
            prod = tuple(a * b for a, b in
                         zip(self.table[key[0]], self.table[key[1]]))
            self._pointwise[key] = tuple(self._coords(prod))
        return self._pointwise[key]

    # -- comparisons ---------------------------------------------------------

    def _key(self):
        return (self.labels, self.table, self.sizes, self.identity_class)

    def __eq__(self, other):
        return isinstance(other, CharacterBasis) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CharacterBasis(labels={self.labels!r}, dim={self.dim})"


class BaseElement:
    """A class function written in a :class:`CharacterBasis`."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis, coords):
        coords = tuple(_exact(c) for c in coords)
        if len(coords) != basis.dim:
            raise TheoryError("wrong number of coordinates")
        self.basis = basis
        self.coords = coords

    def _join(self, other):
        if not isinstance(other, BaseElement) or self.basis != other.basis:
            raise TheoryError("elements belong to different bases")

    def __add__(self, other):
        self._join(other)
        return BaseElement(self.basis,
                           tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._join(other)
        return BaseElement(self.basis,
                           tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return BaseElement(self.basis, tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return BaseElement(self.basis, tuple(a * scalar for a in self.coords))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return BaseElement(self.basis, tuple(a / Fraction(scalar) for a in self.coords))

    def inner(self, other):
        """Class-size-weighted inner product (the rows are orthogonal, so
        this is a weighted dot product of coordinates)."""
        self._join(other)
        return sum(a * b * g for a, b, g in
                   zip(self.coords, other.coords, self.basis.gram))

    def pointwise(self, other):
        """Pointwise (value-by-value) product, expanded in the basis."""
        self._join(other)
        out = [Fraction(0)] * self.basis.dim
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if not b:
                    continue
                for k, c in enumerate(self.basis.pointwise_coords(i, j)):
                    out[k] += a * b * c
        return BaseElement(self.basis, out)

    def values(self):
        """The value of this class function on each class."""
        return tuple(
            sum(c * row[k] for c, row in zip(self.coords, self.basis.table))
            for k in range(self.basis.dim))

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, BaseElement)
                and self.basis == other.basis
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.basis, self.coords))

    def __repr__(self):
        parts = []
        for c, lab in zip(self.coords, self.basis.labels):
            if c:
                parts.append(f"{c}*{lab}")
        return " + ".join(parts) if parts else "0"


def from_table(values, sizes, identity_class, labels=None):
    """Build a validated :class:`CharacterBasis` from a raw value table.

    ``values`` has one row per character, one column per class; labels
    default to chi0, chi1, ...  All the table axioms are checked (square,
    orthogonal rows of positive norm, all-ones row present, identity class
    a singleton), each failure raising the error that names the violated
    axiom; such rows span every value vector, the regular character's too.

    >>> from_table(((1, 1), (2, -1)), (1, 2), 0) == two_dim(3)
    False
    >>> from_table(((1, 1), (2, -1)), (1, 2), 0, labels=("one", "regm1")) \
== two_dim(3)
    True
    """
    values = tuple(tuple(row) for row in values)
    if labels is None:
        labels = tuple(f"chi{i}" for i in range(len(values)))
    return CharacterBasis(labels, values, sizes, identity_class)


def two_dim(q):
    """The rank-2 basis for a group of order q: the all-ones character and
    the regular-minus-ones character, with the identity class split off.

    >>> t = two_dim(3)
    >>> t.gram
    (Fraction(1, 1), Fraction(2, 1))
    >>> t.reg.coords
    (Fraction(1, 1), Fraction(1, 1))
    """
    if not isinstance(q, int) or q < 2:
        raise TheoryError("q must be an integer >= 2")
    return CharacterBasis(("one", "regm1"),
                          ((1, 1), (q - 1, -1)),
                          (1, q - 1), 0)


def cyclic4():
    """A rank-3 basis for the cyclic group of order 4 with classes
    {e}, {g^2}, {g, g^3}: the all-ones character, the order-two linear
    character, and the sum of the two faithful linear characters.

    >>> cyclic4().gram
    (Fraction(1, 1), Fraction(1, 1), Fraction(2, 1))
    """
    return CharacterBasis(("one", "sgn", "s"),
                          ((1, 1, 1), (1, 1, -1), (2, -2, 0)),
                          (1, 1, 2), 0)


def dual(x, against):
    """The element y with <y, a> = 1 for a = x and <y, a> = 0 for every
    other member a of ``against``, which must be a basis.

    Raises :class:`DualBasisUndefined` when ``against`` is not a basis.

    >>> t = two_dim(3)
    >>> dual(t.one, (t.one, (t.reg - t.one) / 2)).coords
    (Fraction(1, 1), Fraction(0, 1))
    """
    against = tuple(against)
    basis = x.basis
    if any(a.basis != basis for a in against):
        raise TheoryError("elements belong to different bases")
    if len(against) != basis.dim:
        raise DualBasisUndefined(
            f"{len(against)} elements cannot be a basis of rank {basis.dim}")
    rows = [[c * g for c, g in zip(a.coords, basis.gram)] for a in against]
    coords = solve_linear_system(rows, tuple(1 if a == x else 0 for a in against))
    return BaseElement(basis, coords)


def dual_pair(alpha, beta):
    """The pair (alpha*, beta*) with <alpha*, alpha> = <beta*, beta> = 1
    and <alpha*, beta> = <beta*, alpha> = 0.

    Defined only over rank-2 bases with {alpha, beta} independent.

    >>> t = two_dim(3)
    >>> a, b = dual_pair(t.one, (t.reg - t.one) / 2)
    >>> a.coords, b.coords
    ((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))
    """
    basis = alpha.basis
    if basis != beta.basis:
        raise TheoryError("elements belong to different bases")
    if basis.dim != 2:
        raise DualBasisUndefined("dual pairs are defined for rank-2 bases only")
    pair = (alpha, beta)
    return dual(alpha, pair), dual(beta, pair)
