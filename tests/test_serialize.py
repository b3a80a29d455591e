"""JSON round-trips and the class-function expression parser."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopftower.characters import constant_character
from hopftower.elements import TensorElement
from hopftower.hopf import all_ones_context, induction_context
from hopftower.serialize import (ParseError, _tokenize, character_from_dict,
                                 character_to_dict, element_from_dict,
                                 element_to_dict, fraction_from_str,
                                 fraction_to_str, jsonable, parse_expression,
                                 square_from_dict, square_to_dict,
                                 theory_from_dict, theory_to_dict)
from hopftower.theory import BaseElement, cyclic4, two_dim
from hopftower.verify import verify_axioms


@given(st.fractions())
def test_fraction_round_trip(f):
    assert fraction_from_str(fraction_to_str(f)) == f


def test_fraction_strings():
    assert fraction_to_str(Fraction(4, 2)) == "2"
    assert fraction_to_str(Fraction(-3, 6)) == "-1/2"
    with pytest.raises(ParseError):
        fraction_from_str("1.5e3px")
    with pytest.raises(ParseError):
        fraction_from_str("1/0")


def test_bad_rational_echoes_a_bounded_value():
    """However long the value, its error line echoes at most 40 characters
    of it, and of the reason at most 140."""
    for text in ("9" * 5000, "x" * 100_000, "1/" + "0" * 5000,
                 "9" * 4000 + "/0"):
        with pytest.raises(ParseError, match="^bad rational ") as err:
            fraction_from_str(text)
        assert len(str(err.value)) < 200


def test_theory_round_trip():
    for basis in (two_dim(3), cyclic4()):
        data = theory_to_dict(basis)
        assert set(data) == {"labels", "values", "sizes", "identity_class"}
        assert theory_from_dict(json.loads(json.dumps(data))) == basis
    with pytest.raises(ParseError):
        theory_from_dict({"labels": ["a"]})
    with pytest.raises(ParseError):
        theory_from_dict([1, 2])
    # structurally complete but mathematically invalid
    bad = theory_to_dict(two_dim(3))
    bad["values"][0] = ["1", "2"]
    with pytest.raises(ParseError):
        theory_from_dict(bad)


def test_element_round_trip():
    basis = two_dim(3)
    x = TensorElement(3, {(0, 1): Fraction(1, 2), (1, 1): -2})
    data = element_to_dict(x, basis)
    assert data["terms"][0]["word"] == ["one", "regm1"]
    assert element_from_dict(json.loads(json.dumps(data)), basis) == x


def test_element_errors():
    basis = two_dim(3)
    with pytest.raises(ParseError):
        element_from_dict({"terms": []}, basis)
    with pytest.raises(ParseError):
        element_from_dict({"degree": -1, "terms": []}, basis)
    with pytest.raises(ParseError):
        element_from_dict(
            {"degree": 2, "terms": [{"word": ["nope"], "coeff": "1"}]}, basis)
    with pytest.raises(ParseError):
        element_from_dict(
            {"degree": 3, "terms": [{"word": ["one"], "coeff": "1"}]}, basis)
    with pytest.raises(ParseError):
        element_from_dict(
            {"degree": 2, "terms": [{"coeff": "1"}]}, basis)


def test_square_round_trip():
    ctx = induction_context(two_dim(3))
    sq = ctx.coproduct(TensorElement(3, {(0, 1): 1, (1, 1): 5}))
    data = square_to_dict(sq, ctx.basis)
    assert square_from_dict(json.loads(json.dumps(data)), ctx.basis) == sq
    with pytest.raises(ParseError):
        square_from_dict({"terms": [{"left": {"degree": 2, "word": []},
                                     "right": {"degree": 0, "word": []},
                                     "coeff": "1"}]}, ctx.basis)
    with pytest.raises(ParseError, match="JSON object"):
        square_from_dict(["terms"], ctx.basis)
    with pytest.raises(ParseError, match="bad terms"):
        square_from_dict({"terms": [{"right": {"degree": 0, "word": []},
                                     "coeff": "1"}]}, ctx.basis)


def test_character_round_trip():
    ctx = all_ones_context(two_dim(3))
    chi = constant_character(ctx, ctx.basis.reg, 3)
    data = character_to_dict(chi, ctx.basis)
    assert data["max_degree"] == 3
    assert character_from_dict(json.loads(json.dumps(data)), ctx) == chi
    with pytest.raises(ParseError):
        character_from_dict({"max_degree": 1}, ctx)
    broken = dict(data)
    broken["components"] = data["components"][1:]  # unit part gone
    with pytest.raises(ParseError):
        character_from_dict(broken, ctx)


def test_jsonable_handles_reports():
    rep = verify_axioms(all_ones_context(two_dim(2)), 3)
    text = json.dumps(jsonable(rep))
    assert json.loads(text)["checked"] == rep["checked"]
    assert jsonable({(1, 2): Fraction(1, 2), 3: {True}}) == {
        "(1, 2)": "1/2", "3": [True]}


def test_serialization_is_deterministic():
    basis = two_dim(3)
    x = TensorElement(3, {(1, 0): 2, (0, 1): 1})
    y = TensorElement(3, {(0, 1): 1, (1, 0): 2})
    assert json.dumps(element_to_dict(x, basis)) == json.dumps(
        element_to_dict(y, basis))


# -- expressions ----------------------------------------------------------------


def test_parse_expression_basics():
    basis = two_dim(3)
    assert parse_expression("one", basis) == basis.one
    assert parse_expression("one + regm1", basis) == basis.reg
    assert parse_expression("2*regm1 - regm1", basis) == basis.basis_element(1)
    assert parse_expression("regm1 * 2", basis) == 2 * basis.basis_element(1)
    assert parse_expression("-one", basis) == -basis.one
    # a number is a run of decimal digits in any script, as int() reads it
    assert parse_expression("٣*one", basis) == parse_expression("3*one", basis)


def test_parse_expression_scalars_and_aliases():
    basis = two_dim(3)
    got = parse_expression("(reg - one)/(q - 1)", basis,
                           scalars={"q": 3}, aliases={"reg": basis.reg})
    assert got == basis.element((0, Fraction(1, 2)))
    got = parse_expression("(reg - one)/31", basis, aliases={"reg": basis.reg})
    assert got == basis.element((0, Fraction(1, 31)))
    # a basis label wins over an alias of the same name
    got = parse_expression("one", basis, aliases={"one": basis.reg})
    assert got == basis.one


def test_parse_expression_rejections():
    basis = two_dim(3)
    for text in ("one * regm1",      # no products of class functions
                 "2 + 3",            # bare scalar
                 "one / regm1",      # divide by class function
                 "one / 0",
                 "mystery + one",    # unknown name
                 "one +",            # dangling operator
                 "(one",             # unbalanced parens
                 "(" * 5000 + "one" + ")" * 5000,  # nested too deeply
                 "one ^ 2"):         # stray character
        with pytest.raises(ParseError):
            parse_expression(text, basis)
    # a numeric character that is not a decimal digit (a superscript, a
    # Roman numeral, a vulgar fraction) is read as part of a name
    for text, message in (("one one", "unexpected token 'one'"),
                          ("one + 1", "cannot add a scalar"),
                          ("²*one", "^unknown name '²'$"),
                          ("one + Ⅷ", "^unknown name 'Ⅷ'$"),
                          ("½one", "^unknown name '½one'$"),
                          # past 4,300 digits int() itself would refuse it
                          ("1" * 4301 + "*one",
                           "^a number has more than 640 digits$")):
        with pytest.raises(ParseError, match=message):
            parse_expression(text, basis)


class ReferenceParser:
    """The recursive-descent parser the precedence loop replaced: one
    method per grammar level, a mutable position, and subtraction as a
    flag of its addition."""

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.names = names

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = self._add(value, rhs, op == "-")
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = (self._mul(value, rhs) if op == "*"
                     else self._div(value, rhs))
        return value

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        atom = self.atom()
        return -atom if sign < 0 else atom

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return value
        if isinstance(tok, int):
            return Fraction(tok)
        if isinstance(tok, str) and tok not in "+-*/()":
            if tok in self.names:
                return self.names[tok]
            raise ParseError(f"unknown name {tok!r}")
        raise ParseError(f"unexpected token {tok!r}")

    @staticmethod
    def _add(a, b, subtract):
        if isinstance(a, Fraction) != isinstance(b, Fraction):
            raise ParseError("cannot add a scalar to a class function")
        return a - b if subtract else a + b

    @staticmethod
    def _mul(a, b):
        a_el = isinstance(a, BaseElement)
        b_el = isinstance(b, BaseElement)
        if a_el and b_el:
            raise ParseError("cannot multiply two class functions")
        return a * b if a_el else (b * a if b_el else a * b)

    @staticmethod
    def _div(a, b):
        if isinstance(b, BaseElement):
            raise ParseError("cannot divide by a class function")
        if b == 0:
            raise ParseError("division by zero")
        return a / b


def reference_parse(text, basis, scalars=None, aliases=None):
    """parse_expression as it was over :class:`ReferenceParser`."""
    names = {k: Fraction(v) for k, v in (scalars or {}).items()}
    names.update(aliases or {})
    for i, lab in enumerate(basis.labels):
        names[lab] = basis.basis_element(i)
    try:
        value = ReferenceParser(_tokenize(text), names).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if isinstance(value, Fraction):
        raise ParseError(
            f"expression {text!r} is a bare scalar, not a class function")
    return value


def _outcome(parse, text):
    """A parse's value and repr, or its exception's type and message."""
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return value, repr(value)


# expression tokens: labels, an alias, a scalar, decimal and non-decimal
# digits, operators, parentheses and a stray character
_EXPRESSION_TOKENS = ("one", "regm1", "reg", "q", "0", "2", "٣", "²", "+",
                      "-", "*", "/", "(", ")", "^")


@given(st.lists(st.sampled_from(_EXPRESSION_TOKENS), max_size=13)
       .map(" ".join))
@example("one - regm1 / 2")      # * and / bind tighter than + and -
@example("one - regm1 - regm1")  # left to right
@example("one / 2 / 3")
@example("--one")                # a sign applies to the next operand
@example("2 * -one")
@example("one +")                # a dangling operator
@example("(one")                 # a missing parenthesis
@example("one )")
@example("")
def test_parse_expression_matches_the_recursive_descent_parser(text):
    basis = two_dim(3)
    names = {"scalars": {"q": 3}, "aliases": {"reg": basis.reg}}
    assert (_outcome(lambda t: parse_expression(t, basis, **names), text)
            == _outcome(lambda t: reference_parse(t, basis, **names), text))


def reference_tokenize(text):
    """The character loop the token pattern replaced, given the same bound
    on a digit run; it reads the run by str.isdigit, so a non-decimal
    digit such as '²' reaches int()."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j - i > 640:
                raise ParseError("a number has more than 640 digits")
            tokens.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in expression")
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


# expression text: mostly the language's own characters, some of any kind
_EXPRESSION_CHARS = " \t0123456789+-*/()_onereg٣"
_DECIMAL_OR_NOT_NUMERIC = st.characters().filter(
    lambda c: c.isdecimal() or not c.isnumeric())


@given(st.text(st.sampled_from(_EXPRESSION_CHARS) | _DECIMAL_OR_NOT_NUMERIC))
@example("1" * 4301 + "*one")
@example("٣" * 641)
def test_tokenize_matches_the_character_loop(text):
    assert (_tokens_or_error(_tokenize, text)
            == _tokens_or_error(reference_tokenize, text))


@given(st.text(st.sampled_from(_EXPRESSION_CHARS + "²Ⅷ½")
               | st.characters()))
@example("²*one")
@example("1" * 4301 + "*one")
def test_expressions_raise_only_parse_errors(text):
    basis = two_dim(3)
    for parse in (_tokenize, lambda t: parse_expression(t, basis)):
        try:
            parse(text)
        except ParseError:
            pass


def test_a_number_of_640_digits_parses_under_any_int_limit():
    """640 digits is the least limit sys.set_int_max_str_digits takes, so
    no interpreter setting makes int() refuse a run the tokenizer admits;
    a run one digit longer is refused as a ParseError."""
    basis = two_dim(3)
    run = "1" * 640
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _tokenize(f"{run}*one") == [int(run), "*", "one"]
        with pytest.raises(ParseError, match="more than 640 digits"):
            parse_expression(f"{run}1*one", basis)
    finally:
        sys.set_int_max_str_digits(old)


def test_degrees_must_be_true_integers():
    basis = two_dim(3)
    with pytest.raises(ParseError):
        element_from_dict({"degree": True, "terms": []}, basis)
    with pytest.raises(ParseError):
        square_from_dict({"terms": [{"left": {"degree": True, "word": []},
                                     "right": {"degree": 0, "word": []},
                                     "coeff": "1"}]}, basis)
    with pytest.raises(ParseError):
        element_from_dict({"degree": 2, "terms": [{"word": 5,
                                                   "coeff": "1"}]}, basis)


def test_json_arrays_are_required():
    """A string is never split into its characters, and a number where an
    array belongs is a ParseError, not a TypeError."""
    basis = cyclic4()  # has the label "s"
    for key, value in (("labels", "ab"), ("values", 5),
                       ("values", [["1", "1"], 7]),
                       ("values", [["1", "1"], "11"])):
        data = theory_to_dict(two_dim(3))
        data[key] = value
        with pytest.raises(ParseError, match="JSON array"):
            theory_from_dict(data)
    with pytest.raises(ParseError, match="JSON array"):
        element_from_dict({"degree": 3, "terms": [{"word": "ss",
                                                   "coeff": "1"}]}, basis)
    side = {"degree": 3, "word": "ss"}
    with pytest.raises(ParseError, match="JSON array"):
        square_from_dict({"terms": [{"left": side, "right": side,
                                     "coeff": "1"}]}, basis)
    ctx = all_ones_context(two_dim(3))
    for components in (5, "x", {"0": {"degree": 0}}):
        with pytest.raises(ParseError, match="JSON array"):
            character_from_dict({"components": components}, ctx)


def test_floats_are_refused():
    with pytest.raises(ParseError, match="float"):
        fraction_from_str(1.5)
    with pytest.raises(ParseError, match="float"):
        element_from_dict({"degree": 2, "terms": [{"word": ["one"],
                                                   "coeff": 1.0}]},
                          two_dim(3))
    data = theory_to_dict(two_dim(3))
    data["values"][1] = [2.0, "-1"]
    with pytest.raises(ParseError, match="float"):
        theory_from_dict(data)
    # JSON integers are exact and stay accepted
    assert fraction_from_str(3) == 3


def test_labels_must_be_strings():
    data = theory_to_dict(two_dim(3))
    data["labels"] = [1, "regm1"]
    with pytest.raises(ParseError, match="JSON strings"):
        theory_from_dict(data)


def test_terms_must_be_an_array():
    """An object or a string where the term list belongs is refused, not
    read as the zero element; a missing term list is still zero."""
    basis = two_dim(3)
    for terms in ({}, "", 5, None):
        with pytest.raises(ParseError, match="JSON array"):
            element_from_dict({"degree": 2, "terms": terms}, basis)
        with pytest.raises(ParseError, match="JSON array"):
            square_from_dict({"terms": terms}, basis)
    assert element_from_dict({"degree": 2}, basis) == TensorElement(2)
    assert square_from_dict({}, basis) == square_from_dict({"terms": []},
                                                           basis)
