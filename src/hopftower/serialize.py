"""JSON round-trips for every value the command line reads or writes,
plus the linear-expression parser for specifying class functions.

All serialized numbers are strings holding reduced fractions ("p" or
"p/q"), never floats.  Term lists are emitted in sorted word order so
equal values serialize byte-identically.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .elements import TensorElement, TensorSquare
from .theory import BaseElement, CharacterBasis, TheoryError


class ParseError(ValueError):
    """Malformed input text or JSON structure."""


# -- fractions ----------------------------------------------------------------

def fraction_to_str(value):
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else (
        f"{f.numerator}/{f.denominator}")


def fraction_from_str(text):
    if isinstance(text, float):
        raise ParseError(f"bad rational {text!r}: floats are refused")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r:.40}: {exc!s:.140}") from exc


def _array(value, what):
    """``value`` itself when it is a JSON array: a string would split
    into its characters."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON array, got {value!r:.40}")
    return value


# -- theory files ---------------------------------------------------------------

def theory_to_dict(basis):
    return {
        "labels": list(basis.labels),
        "values": [[fraction_to_str(v) for v in row] for row in basis.table],
        "sizes": list(basis.sizes),
        "identity_class": basis.identity_class,
    }


def theory_from_dict(data):
    if not isinstance(data, dict):
        raise ParseError("theory must be a JSON object")
    missing = {"labels", "values", "sizes", "identity_class"} - set(data)
    if missing:
        raise ParseError(f"theory is missing keys: {sorted(missing)}")
    values = [[fraction_from_str(v) for v in _array(row, "a values row")]
              for row in _array(data["values"], "values")]
    labels = _array(data["labels"], "labels")
    for lab in labels:
        if not isinstance(lab, str):
            raise ParseError(f"labels must be JSON strings, got {lab!r:.40}")
    try:
        return CharacterBasis(labels, values, tuple(data["sizes"]),
                              data["identity_class"])
    except (TheoryError, TypeError) as exc:
        raise ParseError(f"invalid theory: {exc}") from exc


# -- elements -------------------------------------------------------------------

def _label_indices(basis):
    return {lab: i for i, lab in enumerate(basis.labels)}


def _labels(word, basis):
    return [basis.labels[i] for i in word]


def element_to_dict(x, basis, base=None):
    out = dict(base or {})
    out["degree"] = x.degree
    out["terms"] = [{"word": _labels(word, basis), "coeff": fraction_to_str(c)}
                    for word, c in x.sorted_terms()]
    return out


def _degree(value):
    # type(...) is int: JSON true is a bool, which is an int
    if type(value) is not int or value < 0:
        raise ParseError(f"bad degree {value!r}")
    return value


def _word(labels, index, degree):
    """Basis indices of a JSON list of labels, checked against the degree."""
    try:
        word = tuple(index[lab] for lab in _array(labels, "a word"))
    except KeyError as exc:
        raise ParseError(f"unknown basis label {exc.args[0]!r}") from exc
    if len(word) != max(degree - 1, 0):
        raise ParseError(
            f"word length {len(word)} does not match degree {degree}")
    return word


def _add_terms(out, data, key):
    """``out`` plus each term of the JSON object ``data``: ``key(term)``
    is its key and ``term["coeff"]`` its coefficient."""
    try:
        for term in _array(data.get("terms", []), "terms"):
            out.add_term(key(term), fraction_from_str(term["coeff"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad terms: {exc!r}") from exc
    return out


def element_from_dict(data, basis):
    if not isinstance(data, dict) or "degree" not in data:
        raise ParseError("element must be a JSON object with a degree")
    degree = _degree(data["degree"])
    index = _label_indices(basis)
    return _add_terms(TensorElement(degree), data,
                      lambda term: _word(term["word"], index, degree))


def square_to_dict(sq, basis, base=None):
    out = dict(base or {})
    out["terms"] = [
        {"left": {"degree": ld, "word": _labels(lw, basis)},
         "right": {"degree": rd, "word": _labels(rw, basis)},
         "coeff": fraction_to_str(c)}
        for ((ld, lw), (rd, rw)), c in sorted(sq.terms.items())]
    return out


def square_from_dict(data, basis):
    if not isinstance(data, dict):
        raise ParseError("tensor square must be a JSON object")
    index = _label_indices(basis)

    def side(obj):
        degree = _degree(obj["degree"])
        return degree, _word(obj["word"], index, degree)

    return _add_terms(TensorSquare(), data,
                      lambda term: (side(term["left"]), side(term["right"])))


# -- characters -----------------------------------------------------------------

def character_to_dict(chi, basis, base=None):
    return {
        "max_degree": chi.max_degree,
        "components": [element_to_dict(c, basis, base)
                       for c in chi.components],
    }


def character_from_dict(data, ctx):
    if not isinstance(data, dict) or "components" not in data:
        raise ParseError("character must be a JSON object with components")
    comps = [element_from_dict(c, ctx.basis)
             for c in _array(data["components"], "components")]
    from .characters import LinearCharacter
    try:
        return LinearCharacter(ctx, comps)
    except TheoryError as exc:
        raise ParseError(f"invalid character: {exc}") from exc


# -- reports ----------------------------------------------------------------------

def jsonable(obj):
    """Recursively convert a report-ish value to JSON-compatible data:
    fractions become fraction strings, unknown objects become reprs."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return fraction_to_str(obj)
    if isinstance(obj, dict):
        return {_key_str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in seq]
    return repr(obj)


def _key_str(key):
    if isinstance(key, str):
        return key
    if isinstance(key, int):
        return str(key)
    return repr(key)


# -- expression language ----------------------------------------------------------

# a decimal run (what int() reads, refused past _DIGITS digits), a name,
# an operator, or any other non-space character, which is refused
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/()])|(\S))")
_DIGITS = 640  # the least limit sys.set_int_max_str_digits takes


def _tokenize(text):
    tokens = []
    for number, name, op, other in _TOKEN.findall(text):
        if other:
            raise ParseError(f"unexpected character {other!r} in expression")
        if len(number) > _DIGITS:
            raise ParseError(f"a number has more than {_DIGITS} digits")
        tokens.append(int(number) if number else name or op)
    return tokens


def _add(a, b):
    if isinstance(a, Fraction) != isinstance(b, Fraction):
        raise ParseError("cannot add a scalar to a class function")
    return a + b


def _mul(a, b):
    if isinstance(a, BaseElement) and isinstance(b, BaseElement):
        raise ParseError("cannot multiply two class functions")
    return b * a if isinstance(b, BaseElement) else a * b


def _div(a, b):
    if isinstance(b, BaseElement):
        raise ParseError("cannot divide by a class function")
    if b == 0:
        raise ParseError("division by zero")
    return a / b


# binary operator: (precedence, how it joins its operands); all four
# group left to right, and a - b is a + (-b)
_BINARY = {"+": (1, _add), "-": (1, lambda a, b: _add(a, -b)),
           "*": (2, _mul), "/": (2, _div)}


def _parse(tokens, names, least=1):
    """The value of the operand at the end of ``tokens``, a reversed token
    list read by pop, joined by each following operator of precedence
    ``least`` or more.  An operand is leading signs, then a parenthesised
    expression, an integer or a name."""
    sign = 1
    while tokens and tokens[-1] in ("+", "-"):
        if tokens.pop() == "-":
            sign = -sign
    tok = tokens.pop() if tokens else None
    if tok == "(":
        value = _parse(tokens, names)
        if not tokens or tokens.pop() != ")":
            raise ParseError("missing closing parenthesis")
    elif isinstance(tok, int):
        value = Fraction(tok)
    elif tok is None or tok in "+-*/)":
        raise ParseError(f"unexpected token {tok!r}")
    elif tok in names:
        value = names[tok]
    else:
        raise ParseError(f"unknown name {tok!r}")
    if sign < 0:
        value = -value
    while tokens and tokens[-1] in _BINARY:
        level, join = _BINARY[tokens[-1]]
        if level < least:
            break
        tokens.pop()
        value = join(value, _parse(tokens, names, level + 1))
    return value


def parse_expression(text, basis, scalars=None, aliases=None):
    """Evaluate a linear expression to a class function.

    Names resolve to basis labels, then ``aliases`` (extra elements such
    as the regular character), then ``scalars`` (numeric substitutions).
    A purely numeric result is rejected: the expression must name at
    least one class function.
    """
    names = {k: Fraction(v) for k, v in (scalars or {}).items()}
    names.update(aliases or {})
    names.update((lab, basis.basis_element(i))
                 for i, lab in enumerate(basis.labels))
    try:
        tokens = _tokenize(text)[::-1]
        value = _parse(tokens, names)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if tokens:
        raise ParseError(f"unexpected token {tokens[-1]!r}")
    if isinstance(value, Fraction):
        raise ParseError(
            f"expression {text!r} is a bare scalar, not a class function")
    return value
