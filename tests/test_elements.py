"""Sparse graded words and tensor squares."""

import re
from fractions import Fraction

import pytest

from hopftower.antipode import (antipode_all_setcomps, antipode_closed,
                                antipode_oracle, antipode_toggle_free)
from hopftower.characters import LinearCharacter, constant_character
from hopftower.elements import (TensorElement, TensorSquare, _check_letters,
                                basis_words, expand_letters)
from hopftower.functors import (def_along, ind_along, inf_along,
                                pointwise_twist, res_along)
from hopftower.hopf import induction_context
from hopftower.nsym import expand_in_kind
from hopftower.theory import two_dim


def test_degree_word_length_validation():
    TensorElement(3, {(0, 1): 1})
    with pytest.raises(ValueError):
        TensorElement(3, {(0,): 1})
    with pytest.raises(ValueError):
        TensorElement(1, {(0,): 1})  # degree 1 is the empty word
    with pytest.raises(ValueError):
        TensorElement(-1)


def test_zero_terms_are_dropped():
    x = TensorElement(2, {(0,): 0})
    assert x.terms == {} and not x
    y = TensorElement(2, [((0,), 1), ((0,), -1)])
    assert not y
    assert TensorElement(2, {(1,): 1}) - TensorElement(2, {(1,): 1}) == (
        TensorElement.zero(2))


def test_arithmetic():
    x = TensorElement(2, {(0,): 1, (1,): 2})
    y = TensorElement(2, {(1,): Fraction(1, 2)})
    assert (x + y).terms == {(0,): 1, (1,): Fraction(5, 2)}
    assert (x - y).terms == {(0,): 1, (1,): Fraction(3, 2)}
    assert (3 * y).terms == {(1,): Fraction(3, 2)}
    assert (y * 0) == TensorElement.zero(2)
    assert (-x).coefficient((1,)) == -2
    with pytest.raises(ValueError):
        x + TensorElement(3)


def test_constructors_and_lookup():
    assert TensorElement.unit().terms == {(): 1}
    assert TensorElement.unit(5).coefficient(()) == 5
    b = TensorElement.basis(4, (1, 0, 1))
    assert b.coefficient((1, 0, 1)) == 1
    assert b.coefficient((0, 0, 0)) == 0
    assert b.sorted_terms() == [((1, 0, 1), Fraction(1))]


def test_equality_and_hash():
    a = TensorElement(2, {(0,): Fraction(2, 4)})
    b = TensorElement(2, {(0,): Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert a != TensorElement(3, {(0, 0): Fraction(1, 2)})
    assert "TensorElement" in repr(a)


def test_basis_words_counts():
    for d in (2, 3):
        assert list(basis_words(d, 0)) == [()]
        assert list(basis_words(d, 1)) == [()]
        for n in range(2, 7):
            words = list(basis_words(d, n))
            assert len(words) == d ** (n - 1)
            assert len(set(words)) == len(words)
    assert list(basis_words(2, 3)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        basis_words(2, -3)


def test_expand_letters():
    # fixed letters pass straight through
    assert expand_letters([0, 1], 2) == {(0, 1): 2}
    # coordinate tuples branch over nonzero entries
    out = expand_letters([(1, -2), 1])
    assert out == {(0, 1): 1, (1, 1): -2}
    # a zero template annihilates everything
    assert expand_letters([0, (0, 0)]) == {}
    assert expand_letters([], Fraction(1, 3)) == {(): Fraction(1, 3)}
    # a zero coefficient leaves no word, fixed letters or not
    assert expand_letters([0, 1], 0) == {}
    assert expand_letters([], 0) == {}


def test_tensor_square_basic():
    x = TensorElement(2, {(0,): 2})
    y = TensorElement(1, {(): 3})
    sq = TensorSquare.tensor(x, y)
    assert sq.terms == {((2, (0,)), (1, ())): 6}
    sq.add_term(((2, (0,)), (1, ())), -6)
    assert not sq and sq == TensorSquare()


def test_tensor_square_arithmetic():
    a = TensorSquare({((1, ()), (1, ())): 1})
    b = TensorSquare({((1, ()), (1, ())): Fraction(1, 2),
                      ((0, ()), (2, (1,))): 1})
    s = a + b
    assert s.terms[((1, ()), (1, ()))] == Fraction(3, 2)
    assert (s - a) == b
    assert (2 * b).terms[((0, ()), (2, (1,)))] == 2
    assert sorted(k for k, _ in b.sorted_terms())[0][0] == (0, ())
    assert "TensorSquare" in repr(b)


def test_inplace_adds_leave_right_operand():
    x = TensorElement(2, {(0,): 1, (1,): 2})
    y = TensorElement(2, {(1,): -2, (0,): Fraction(1, 2)})
    before = dict(y.terms)
    acc = x
    acc += y
    assert acc is x and x.terms == {(0,): Fraction(3, 2)}
    acc -= y
    assert acc.terms == {(0,): 1, (1,): 2}
    assert y.terms == before
    acc += acc
    assert acc.terms == {(0,): 2, (1,): 4}
    acc -= acc
    assert not acc
    with pytest.raises(ValueError):
        acc += TensorElement(3)
    a = TensorSquare({((1, ()), (1, ())): 1})
    b = TensorSquare({((1, ()), (1, ())): -1, ((0, ()), (2, (1,))): 3})
    kept = dict(b.terms)
    a += b
    assert a.terms == {((0, ()), (2, (1,))): 3} and b.terms == kept
    a -= b
    assert a.terms == {((1, ()), (1, ())): 1} and b.terms == kept


def test_add_term_and_add_scaled():
    x = TensorElement(3)
    x.add_term([0, 1], 2)
    assert isinstance(x.coefficient((0, 1)), Fraction)
    x.add_scaled({(0, 1): Fraction(1, 2), (1, 1): Fraction(1)}, -4)
    assert x.terms == {(1, 1): -4}


# Every edge that takes words from outside the package, each called on a
# word that holds one letter: the letter is refused unless it is a basis
# index, and -1 or the rank would otherwise read the last letter, overflow
# a packed word or be copied through.
_CTX = induction_context(two_dim(3))
_BASIS, _ONE = _CTX.basis, TensorSquare({((0, ()), (0, ())): 1})
_WORD_ENTRY_POINTS = {
    "product_left": lambda w: _CTX.product(TensorElement(3, {w: 1}),
                                           TensorElement(2, {(0,): 1})),
    "product_right": lambda w: _CTX.product(TensorElement(2, {(0,): 1}),
                                            TensorElement(3, {w: 1})),
    "coproduct": lambda w: _CTX.coproduct(TensorElement(3, {w: 1})),
    "square_product_left_word": lambda w: _CTX.square_product(
        TensorSquare({((3, w), (0, ())): 1}), _ONE),
    "square_product_right_word": lambda w: _CTX.square_product(
        TensorSquare({((0, ()), (3, w)): 1}), _ONE),
    "square_product_second_factor": lambda w: _CTX.square_product(
        _ONE, TensorSquare({((1, ()), (3, w)): 1})),
    "antipode_closed": lambda w: antipode_closed(
        _CTX, TensorElement(3, {w: 1})),
    "antipode_all_setcomps": lambda w: antipode_all_setcomps(
        _CTX, TensorElement(3, {w: 1})),
    "antipode_toggle_free": lambda w: antipode_toggle_free(
        _CTX, TensorElement(3, {w: 1})),
    "antipode_oracle": lambda w: antipode_oracle(
        _CTX, TensorElement(3, {w: 1})),
    "expand_in_kind": lambda w: expand_in_kind(
        _CTX, "h_basis", TensorElement(3, {w: 1})),
    "LinearCharacter": lambda w: LinearCharacter(_CTX, [
        _CTX.unit(), TensorElement(1, {(): 1}), TensorElement(2, {w[1:]: 1})]),
    "LinearCharacter_call": lambda w: constant_character(
        _CTX, _BASIS.one, 3)(TensorElement(3, {w: 1})),
    "working_word_element": lambda w: _CTX.working_word_element(w),
    "factor_into_generators": lambda w: _CTX.factor_into_generators(w),
    "inf_along": lambda w: inf_along(_BASIS, (1, 0, 1),
                                     TensorElement(3, {w: 1})),
    "ind_along": lambda w: ind_along(_BASIS, (0, 1, 1),
                                     TensorElement(3, {w: 1})),
    "def_along": lambda w: def_along(_BASIS, (1, 0),
                                     TensorElement(3, {w: 1})),
    "res_along": lambda w: res_along(_BASIS, (1, 0),
                                     TensorElement(3, {w: 1})),
    "pointwise_twist": lambda w: pointwise_twist(
        _BASIS, TensorElement(3, {w: 1}), 1, _BASIS.one),
}


@pytest.mark.parametrize("letter", [-1, _BASIS.dim])
@pytest.mark.parametrize("entry", sorted(_WORD_ENTRY_POINTS))
def test_letters_outside_the_basis_are_refused(entry, letter):
    with pytest.raises(ValueError, match=rf"{letter},?\) has a letter "
                       rf"outside range\({_BASIS.dim}\)"):
        _WORD_ENTRY_POINTS[entry]((0, letter))


def test_check_letters():
    _check_letters([(0, 1), (), (1, 1, 0)], 2)
    for word in ((2,), (0, -1), (0, 1.0), (0, "a")):
        with pytest.raises(ValueError, match=re.escape(
                f"word {word!r} has a letter outside range(2)")):
            _check_letters([(0,), word], 2)
