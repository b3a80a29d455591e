"""Character tables: validation, inner products, pointwise products,
duals."""

from fractions import Fraction

import pytest

from hopftower.theory import (BaseElement, CharacterBasis, DualBasisUndefined,
                              IdentityClassInvalid, NonOrthogonalBasis,
                              TheoryError,
                              TrivialCharacterMissing, cyclic4, dual,
                              dual_pair, from_table, solve_linear_system,
                              two_dim)


def test_two_dim_shape():
    for q in (2, 3, 5, 7):
        t = two_dim(q)
        assert t.labels == ("one", "regm1")
        assert t.dim == 2
        assert t.order == q
        assert t.gram == (1, q - 1)
        assert t.reg.coords == (1, 1)
        assert t.reg.values() == (q, 0)


def test_two_dim_rejects_bad_q():
    for q in (1, 0, -3):
        with pytest.raises(TheoryError):
            two_dim(q)
    with pytest.raises(TheoryError):
        two_dim("3")


def test_inner_products():
    t = two_dim(3)
    one, regm1, reg = t.one, t.basis_element(1), t.reg
    assert one.inner(one) == 1
    assert reg.inner(one) == 1
    assert regm1.inner(one) == 0
    assert regm1.inner(regm1 / 2) == 1
    assert reg.inner((reg - one) / 2) == 1
    assert one.inner(regm1) == regm1.inner(one)  # symmetry


def test_pointwise_products():
    for q in (2, 3, 5):
        t = two_dim(q)
        one, regm1, reg = t.one, t.basis_element(1), t.reg
        assert one.pointwise(regm1) == regm1
        assert regm1.pointwise(regm1) == (q - 1) * one + (q - 2) * regm1
        assert reg.pointwise(reg) == q * reg


def test_pointwise_laws_exhaustive():
    """Commutative, associative, unital on basis letters (rank 2 and 3)."""
    for t in (two_dim(3), cyclic4()):
        letters = [t.basis_element(i) for i in range(t.dim)]
        for x in letters:
            assert t.one.pointwise(x) == x
            for y in letters:
                assert x.pointwise(y) == y.pointwise(x)
                for z in letters:
                    assert x.pointwise(y).pointwise(z) == x.pointwise(
                        y.pointwise(z))


def test_values_and_from_values():
    t = two_dim(5)
    x = 2 * t.one - t.basis_element(1) / 3
    assert t.from_values(x.values()) == x
    assert t.from_values((5, 0)) == t.reg
    with pytest.raises(TheoryError):
        t.from_values((1, 2, 3))


def test_element_arithmetic():
    t = two_dim(3)
    x = t.element((1, 2))
    y = t.element(("1/2", -1))
    assert (x + y).coords == (Fraction(3, 2), Fraction(1))
    assert (x - y).coords == (Fraction(1, 2), Fraction(3))
    assert (-x).coords == (-1, -2)
    assert (3 * x).coords == (3, 6)
    assert (x / 2).coords == (Fraction(1, 2), Fraction(1))
    assert t.zero().is_zero() and not x.is_zero()
    assert repr(t.zero()) == "0"
    assert repr(x) == "1*one + 2*regm1"


def test_elements_from_different_bases_do_not_mix():
    with pytest.raises(TheoryError):
        two_dim(3).one + two_dim(5).one
    with pytest.raises(TheoryError):
        two_dim(3).one.inner(cyclic4().one)
    with pytest.raises(TheoryError, match="wrong number of coordinates"):
        BaseElement(two_dim(3), (1, 2, 3))


def test_table_entries_must_be_exact():
    with pytest.raises(TheoryError):
        CharacterBasis(("a", "b"), ((1.0, 1.0), (2, -1)), (1, 2), 0)
    # strings are parsed exactly
    t = CharacterBasis(("a", "b"), (("1", "1"), ("2", "-1")), (1, 2), 0)
    assert t.gram == (1, 2)


def test_from_table_round_trip():
    t = two_dim(3)
    again = from_table(t.table, t.sizes, t.identity_class, labels=t.labels)
    assert again == t
    assert hash(again) == hash(t)
    # default labels
    assert from_table(t.table, t.sizes, 0).labels == ("chi0", "chi1")


def test_from_table_validation_errors():
    # all-ones row replaced by its double: rows still orthogonal
    with pytest.raises(TrivialCharacterMissing):
        from_table(((2, 2), (2, -1)), (1, 2), 0)
    # non-square: three characters cannot be a basis on two classes
    with pytest.raises(NonOrthogonalBasis):
        from_table(((1, 1), (2, -1), (0, 0)), (1, 2), 0)
    # equal rows are not orthogonal
    with pytest.raises(NonOrthogonalBasis):
        from_table(((1, 1), (1, 1)), (1, 1), 0)
    # a ragged table, and a zero row, orthogonal to every row
    with pytest.raises(NonOrthogonalBasis, match="rows must match the labels"):
        from_table(((1, 1), (2,)), (1, 2), 0)
    with pytest.raises(NonOrthogonalBasis, match="positive norm"):
        from_table(((1, 1), (0, 0)), (1, 2), 0)
    # identity class must be a singleton
    with pytest.raises(IdentityClassInvalid):
        from_table(((1, 1), (1, -1)), (2, 2), 0)
    with pytest.raises(IdentityClassInvalid):
        from_table(((1, 1), (2, -1)), (1, 2), 5)
    with pytest.raises(TheoryError):
        from_table(((1, 1), (2, -1)), (1, 0), 0)


def test_cyclic4_table():
    t = cyclic4()
    assert t.dim == 3
    assert t.order == 4
    assert t.gram == (1, 1, 2)
    assert t.reg.values() == (4, 0, 0)
    one, sgn, s = (t.basis_element(i) for i in range(3))
    # the doubled faithful character squares to 2*one + 2*sgn
    assert s.pointwise(s) == 2 * one + 2 * sgn
    assert s.inner(s) == 2
    assert sgn.pointwise(sgn) == one


def test_solve_linear_system():
    assert solve_linear_system(((2, 0), (0, 4)), (6, 8)) == (3, 2)
    with pytest.raises(DualBasisUndefined):
        solve_linear_system(((1, 2), (2, 4)), (1, 1))


def test_dual_examples():
    t = two_dim(3)
    alpha = t.one
    beta = (t.reg - t.one) / 2
    assert dual(alpha, (alpha, beta)) == t.one
    assert dual(beta, (alpha, beta)) == t.reg - t.one
    astar, bstar = dual_pair(alpha, beta)
    assert astar.inner(alpha) == 1 and astar.inner(beta) == 0
    assert bstar.inner(beta) == 1 and bstar.inner(alpha) == 0
    # the duals of a coproduct pair sum to the insertion element
    assert astar + bstar == t.reg


def test_dual_singular():
    t = two_dim(3)
    with pytest.raises(DualBasisUndefined):
        dual(t.one, (t.one, t.one))
    with pytest.raises(DualBasisUndefined):
        dual_pair(t.one, 2 * t.one)
    with pytest.raises(DualBasisUndefined):
        dual_pair(cyclic4().one, cyclic4().reg)  # rank-2 only
    with pytest.raises(DualBasisUndefined, match="cannot be a basis"):
        dual(t.one, (t.one,))
    with pytest.raises(TheoryError, match="different bases"):
        dual(t.one, (two_dim(5).one, two_dim(5).reg))


def test_dual_rank_three():
    t = cyclic4()
    family = tuple(t.basis_element(i) for i in range(3))
    for i, x in enumerate(family):
        y = dual(x, family)
        for j, a in enumerate(family):
            assert y.inner(a) == (1 if i == j else 0)


def test_basis_equality_and_pairings():
    assert two_dim(3) == two_dim(3)
    assert two_dim(3) != two_dim(5)
    t = two_dim(3)
    assert t.pairings(t.reg) == (1, 2)
    assert t.pairings(t.one) == (1, 0)
    with pytest.raises(TheoryError):
        t.pairings(two_dim(5).one)


def test_basis_rejects_bools_and_duplicate_labels():
    table = ((1, 1), (2, -1))
    CharacterBasis(("one", "x"), table, (1, 2), 0)
    with pytest.raises(TheoryError):
        CharacterBasis(("one", "x"), ((1, 1), (1, -1)), (True, 1), 0)
    with pytest.raises(TheoryError):
        CharacterBasis(("one", "x"), table, (1, 2), False)
    with pytest.raises(TheoryError):
        CharacterBasis(("one", "one"), table, (1, 2), 0)
