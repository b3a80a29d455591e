"""Command-line front end.

Leaf commands: ``compute multiply|coproduct|antipode``, ``verify``,
``enumerate compositions|toggle_free|descent_class`` and
``characters check|convolve|invert``.  Each accepts exactly the flags its
handler reads: its own, plus those of the shared groups it needs (output:
``--format``, ``--out``; context: the character table and the (iota,
alpha, beta) triple; degree: ``--max-degree``).  Exit codes: 0 success,
1 verification or morphism failure, 2 usage or parse error, 3 invalid
insertion/pairing triple; 2 and 3 write one ``error:`` line to stderr
and nothing to stdout.  An error whose class has an ``exit_code``
(``PairingNotOne``, ``NotAMorphism``) exits with it, any other with 2.

A request is refused (exit 2) before it runs when a count passes one
of the bounds in ``_BOUNDS``, each checked by ``_admit``:
  compute work    -- ``compute``: each element's terms times 2^degree
  verify work     -- ``verify``, ``characters``, ``--cross-check``: word splits
  set compositions -- ``verify --suite antipode_equiv|all``,
                      ``--cross-check``: the ordered set partitions summed
  multiply size   -- ``compute multiply``: the product's possible terms
  coproduct size  -- ``compute coproduct``: the pairs of words it spans
  antipode size   -- ``compute antipode``: the words it spans
  compositions    -- ``enumerate compositions``: ``--n``
  toggle_free     -- ``enumerate toggle_free``: ``--n``
  descent_class   -- ``enumerate descent_class``: the sum of ``--mu``
  theory rank     -- ``--theory-file``: its rows, before any value is parsed
  input bytes     -- ``--x``/``--y @FILE``, ``--theory-file``: its size

No hopftower module is loaded for every command: each helper imports
what it runs (``enumerate`` loads ``combinatorics`` alone), and ``main``
builds only the parsers that its argv names (see ``build_parser``).

``main(argv)`` returns the exit code and never exits, so it can be called
in process.  A CLI process (``python -m hopftower.cli`` or the
``hopftower`` script) enters through ``run``, which flushes stdout and
stderr after ``main`` and ends with ``os._exit``: it skips the
interpreter's teardown (full garbage collections and the clearing of
every module), which a one-shot process has no use for.  An exception
from ``main`` or from a flush ends the process the ordinary way, with its
traceback and exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

# each bound, by name, over the count it caps
_BOUNDS = {
    "compute work": 2 ** 22,    # len(terms) * 2^degree of one element
    "verify work": 2 ** 12,     # dim^(degree-1) * 2^degree (_verify_work)
    "set compositions": 2 ** 16,  # Fubini(degree) (_admit_set_compositions)
    "multiply size": 2 ** 13,   # len(terms of x) * len(terms of y) * nnz(iota)
    "coproduct size": 2 ** 15,  # the pairs of words the result may span
    "antipode size": 2 ** 14,   # the words the result may span
    "compositions": 16,         # --n
    "toggle_free": 8,           # --n
    "descent_class": 7,         # sum(mu)
    "theory rank": 64,          # rows of --theory-file; validation ~rank^3
    "input bytes": 2 ** 24,     # size of an element or theory file
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so that main() reports it as
    it does every other exit-2 error."""

    def error(self, message):
        raise ValueError(message)


def _nonnegative(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return value


# each command, by the dest of its leaf and its leaves (verify has none)
_COMMANDS = {
    "compute": ("action", ("multiply", "coproduct", "antipode")),
    "verify": (None, ()),
    "enumerate": ("what", ("compositions", "toggle_free", "descent_class")),
    "characters": ("action", ("check", "convolve", "invert")),
}


def build_parser(argv=None):
    """The argument parser: where ``argv``'s first words name a command and
    its leaf (verify has none), only the parsers on that path, which parse
    ``argv`` as the whole tree does, since a leaf reads the words after it
    alone; else the whole tree, whose messages list every choice."""
    command, leaf = [*(argv or ())[:2], None, None][:2]
    dest, leaves = _COMMANDS.get(command, (None, None))
    if leaves is None or dest and leaf not in leaves:
        command = leaf = None
    parser = _Parser(
        prog="hopftower",
        description="Exact graded Hopf structures on words over a "
                    "character basis.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else _COMMANDS:
        dest, leaves = _COMMANDS[name]
        p = commands.add_parser(name)
        if dest is None:
            _add_flags(p, name, None)
            continue
        group = p.add_subparsers(dest=dest, required=True)
        for each in [leaf] if leaf else leaves:
            _add_flags(group.add_parser(each), name, each)
    return parser


def _add_flags(p, command, leaf):
    """The flags that ``command leaf`` reads: the output group, then the
    context group and --max-degree where it reads them, then its own."""
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write output to this file")
    if command == "enumerate":
        if leaf == "descent_class":
            p.add_argument("--mu", required=True,
                           help="comma-separated composition parts")
        else:
            p.add_argument("--n", type=int, required=True,
                           help="degree to enumerate")
        return
    table = p.add_mutually_exclusive_group()
    table.add_argument("--base", choices=("twodim", "cyclic4"),
                       default="twodim", help="built-in character table")
    table.add_argument("--theory-file", help="JSON character table")
    p.add_argument("--q", type=int,
                   help="group order for --base twodim (default 2)")
    p.add_argument("--iota", default="one",
                   help="insertion element expression")
    p.add_argument("--alpha", default="one",
                   help="left pairing element expression")
    p.add_argument("--beta", default="one",
                   help="right pairing element expression")
    if command == "compute":
        p.add_argument("--x", required=True,
                       help="element JSON (inline, or @path)")
        if leaf == "multiply":
            p.add_argument("--y", required=True,
                           help="second factor JSON (inline, or @path)")
        elif leaf == "antipode":
            p.add_argument("--cross-check", action="store_true",
                           help="recompute via all four routes")
        return
    p.add_argument("--max-degree", type=_nonnegative, default=4)
    if command == "verify":
        p.add_argument("--suite", required=True,
                       choices=("axioms", "antipode_equiv", "nsym",
                                "characters", "all"))
        p.add_argument("--seed", type=int,
                       help="--suite axioms or all: add seeded spot checks")
        return
    p.add_argument("--psi", required=True,
                   help="expression for the first constant character")
    if leaf == "convolve":
        p.add_argument("--gamma", required=True,
                       help="expression for the second constant character")


def _err(message):
    print(message, file=sys.stderr)


def _build_basis(args):
    if args.q is not None and (args.theory_file or args.base != "twodim"):
        raise ValueError("--q applies to --base twodim only")
    if args.theory_file:
        error = "cannot read theory file"
        data = _read_json("@" + args.theory_file, error, error)
        if isinstance(data, dict) and isinstance(data.get("values"), list):
            _admit("theory rank", len(data["values"]),
                   f"rows of --theory-file = {len(data['values'])}")
        from .serialize import theory_from_dict
        return theory_from_dict(data), {"base": "custom"}
    from .theory import cyclic4, two_dim
    if args.base == "cyclic4":
        return cyclic4(), {"base": "cyclic4"}
    q = 2 if args.q is None else args.q
    return two_dim(q), {"base": "twodim", "q": q}


def _names(args, basis):
    if "reg" in basis.labels:
        raise ValueError(
            "basis label 'reg' would shadow the regular-character alias")
    aliases = {"reg": basis.reg}
    if "one" not in basis.labels:
        aliases["one"] = basis.one
    scalars = {}
    if not args.theory_file and args.base == "twodim":
        # two_dim(q) is the table of a group of order q
        q = scalars["q"] = basis.order
        aliases["beta_star"] = (basis.reg - basis.one) / (q - 1)
    return scalars, aliases


def _build_context(args, basis, names=None):
    """The request's HopfContext; ``names`` is ``_names(args, basis)``
    where the caller holds it already."""
    from .hopf import HopfContext
    from .serialize import parse_expression
    scalars, aliases = names or _names(args, basis)
    iota = parse_expression(args.iota, basis, scalars, aliases)
    alpha = parse_expression(args.alpha, basis, scalars, aliases)
    beta = parse_expression(args.beta, basis, scalars, aliases)
    return HopfContext(basis, iota, alpha, beta)


def _read_json(arg, read_error, parse_error):
    """The JSON value of ``arg``, or of the file it names as ``@path``, read
    up to the input bound and decoded as a text-mode read() would; errors
    lead with ``read_error`` or ``parse_error``."""
    text = arg
    if arg.startswith("@"):
        try:
            with open(arg[1:], "rb") as fh:
                text = fh.read(_BOUNDS["input bytes"] + 1)
        except OSError as exc:
            raise ValueError(f"{read_error}: {exc}") from exc
        _admit("input bytes", len(text), f"the size of {arg[1:]}")
        text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{parse_error}: {exc}") from exc


def _load_element(arg, basis, tag):
    data = _read_json(arg, "cannot read element file", "bad element JSON")
    if isinstance(data, dict):
        if "base" in data and data["base"] != tag["base"]:
            raise ValueError(
                f"element base {data['base']!r} does not match the "
                f"configured base {tag['base']!r}")
        if "q" in data and "q" in tag and data["q"] != tag["q"]:
            raise ValueError(
                f"element q {data['q']!r} does not match --q {tag['q']!r}")
    from .serialize import element_from_dict
    return element_from_dict(data, basis)


def _admit(name, size, formula):
    """Refuse (exit 2) a request whose ``size``, counted as ``formula``
    says, exceeds the bound ``_BOUNDS[name]``."""
    bound = _BOUNDS[name]
    if size > bound:
        raise ValueError(f"{formula} exceeds the {name} bound {bound}")


def _verify_work(dim, degree):
    """dim^(degree-1) basis words, each splitting 2^degree ways.  The
    degree is capped where 2^degree alone passes the bound, so a huge
    --max-degree is refused without forming dim^degree."""
    degree = min(degree, _BOUNDS["verify work"].bit_length())
    return dim ** max(degree - 1, 0) << degree


def _admit_set_compositions(degree, what):
    """Refuse (exit 2) a sum over the ordered set partitions of ``degree``
    positions, Fubini(degree) of them at any rank, past its bound: a(m) =
    sum_k C(m, k) a(m - k), a(0) = 1.  Call it after the verify work check,
    which caps the degree."""
    a = [1]
    for m in range(1, degree + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    _admit("set compositions", a[degree], f"Fubini({what}) = {a[degree]}")


def _check_output_size(action, dim, x):
    """Refuse (exit 2) a nonzero coproduct or antipode whose pairs of words
    or words exceed their bounds: peak memory follows these, not the
    work, which the "compute work" bound caps."""
    if not x.terms:
        return
    n = x.degree
    if action == "coproduct":
        words = sum(dim ** max(k - 1, 0) * dim ** max(n - k - 1, 0)
                    for k in range(n + 1))
        _admit("coproduct size", words, "sum_k dim^max(k-1,0) * "
               f"dim^max(degree-k-1,0) of --x = {words}")
    else:
        words = dim ** max(n - 1, 0)
        _admit("antipode size", words, f"dim^(degree-1) of --x = {words}")


def _cmd_compute(args, basis, tag):
    from .serialize import element_to_dict, square_to_dict
    ctx = _build_context(args, basis)
    x = _load_element(args.x, basis, tag)
    _admit("compute work", len(x.terms) << x.degree,
           "len(terms) * 2^degree of --x")
    if args.action == "multiply":
        y = _load_element(args.y, basis, tag)
        _admit("compute work", len(y.terms) << y.degree,
               "len(terms) * 2^degree of --y")
        size = (len(x.terms) * len(y.terms)
                * sum(1 for c in ctx.iota_coords if c))
        _admit("multiply size", size, "len(terms of --x) * len(terms of --y)"
               f" * nnz(iota) = {size}")
        return 0, element_to_dict(ctx.product(x, y), basis, tag)
    if args.action == "coproduct":
        _check_output_size("coproduct", basis.dim, x)
        return 0, square_to_dict(ctx.coproduct(x), basis, tag)
    if args.cross_check:
        # the set-composition routes cost what verify does at this degree
        _admit("verify work", _verify_work(basis.dim, x.degree),
               "--cross-check: dim^(degree-1) * 2^degree")
        _admit_set_compositions(x.degree, "degree")
    _check_output_size("antipode", basis.dim, x)
    from .antipode import ROUTES, _closed_num, antipode_closed
    if not args.cross_check:
        return 0, element_to_dict(antipode_closed(ctx, x), basis, tag)
    # the routes compared as int forms; Fractions only for the output
    from .elements import _element, _over_lcm, _same
    n, form = x.degree, _over_lcm(x.terms)
    closed = _closed_num(ctx, n, form)
    payload = element_to_dict(_element(n, closed), basis, tag)
    for name, route in ROUTES:
        if not _same(other := route(ctx, n, form), closed):
            return 1, {"agreed": False, "variant": name, "closed": payload,
                       "other": element_to_dict(_element(n, other), basis,
                                                tag)}
    payload["cross_checked"] = True
    return 0, payload


def _has_failure(report):
    return report.get("first_failure") is not None or any(
        _has_failure(v) for v in report.values() if isinstance(v, dict))


def _cmd_verify(args, basis, tag):
    n = args.max_degree
    if args.seed is not None and args.suite not in ("axioms", "all"):
        raise ValueError(f"--seed: suite {args.suite!r} samples nothing")
    _admit("verify work", _verify_work(basis.dim, n),
           "dim^(max_degree-1) * 2^max_degree")
    if args.suite in ("antipode_equiv", "all"):
        _admit_set_compositions(n, "max_degree")
    ctx = _build_context(args, basis)
    spots = 8 if args.seed is not None else 0
    from .serialize import jsonable
    from .verify import (verify_all, verify_antipode_equivalence,
                         verify_axioms, verify_characters)
    if args.suite == "axioms":
        report = verify_axioms(ctx, n, seed=args.seed, spot_checks=spots)
    elif args.suite == "antipode_equiv":
        report = verify_antipode_equivalence(ctx, n)
    elif args.suite == "nsym":
        from .nsym import verify_nsym_rules
        report = verify_nsym_rules(ctx, n)
    elif args.suite == "characters":
        report = verify_characters(ctx, n)
    else:
        report = verify_all(ctx, n, seed=args.seed, spot_checks=spots)
    return (1 if _has_failure(report) else 0), jsonable(report)


def _parse_mu(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad composition {text!r}") from exc


def _cmd_enumerate(args):
    what = args.what
    if what == "descent_class":
        mu = _parse_mu(args.mu)
        _admit(what, sum(mu), f"sum(mu) = {sum(mu)}")
        from .combinatorics import descent_embedding
        return 0, [{"perm": list(w), "coeff": "1"}
                   for w in descent_embedding(mu)]
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    _admit(what, args.n, f"--n = {args.n}")
    from .combinatorics import compositions, toggle_free
    if what == "compositions":
        return 0, [list(mu) for mu in compositions(args.n)]
    return 0, [[list(block) for block in A] for A in toggle_free(args.n)]


def _cmd_characters(args, basis, tag):
    n = args.max_degree
    # convolution and inversion cost what verify does at this degree
    _admit("verify work", _verify_work(basis.dim, n),
           "dim^(max_degree-1) * 2^max_degree")
    names = _names(args, basis)
    ctx = _build_context(args, basis, names)
    scalars, aliases = names
    from .characters import (check_morphism, constant_character, convolve,
                             inverse)
    from .serialize import character_to_dict, jsonable, parse_expression
    psi = constant_character(
        ctx, parse_expression(args.psi, basis, scalars, aliases), n)
    if args.action == "check":
        bad = check_morphism(psi)
        if bad is None:
            return 0, {"multiplicative": True}
        return 1, jsonable({"multiplicative": False,
                            "degree": bad[0], "split": bad[1],
                            "lhs": bad[2], "rhs": bad[3]})
    if args.action == "convolve":
        gamma = constant_character(
            ctx, parse_expression(args.gamma, basis, scalars, aliases), n)
        return 0, character_to_dict(convolve(psi, gamma), basis, tag)
    return 0, character_to_dict(inverse(psi), basis, tag)


def _render_text(data, indent=0):
    """A dict entry as ``key: value``, a list item as ``- value``; a dict
    or list value goes on the lines after its bare label, indented."""
    pad = "  " * indent
    if isinstance(data, dict):
        items = [(f"{key}:", value) for key, value in data.items()]
    elif isinstance(data, list) and data:
        items = [("-", value) for value in data]
    else:  # a scalar, or an empty list
        return f"{pad}{'(empty)' if data == [] else data}"
    lines = []
    for label, value in items:
        if isinstance(value, (dict, list)):
            lines += (f"{pad}{label}", _render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {value}")
    return "\n".join(lines)


def _emit(payload, args):
    """Write a JSON-ready payload: the handlers turn fractions, tuples and
    the like into JSON values themselves, where their payload has any.
    JSON is encoded as a stream, so its whole text is never held."""
    if args.format == "json":
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    else:
        chunks = (_render_text(payload),)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh, chunks)
        return
    if sys.stdout is None:  # its fd was closed at start-up
        raise OSError("stdout is closed")
    try:
        _write(sys.stdout, chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (say, `| head`); point stdout at
        # devnull so that the process's final flush is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(fh, chunks):
    """Write ``chunks`` and a final newline, joined into batches of about
    64 KiB: a write per encoder chunk costs more than the encoding."""
    batch, held = [], 0
    for chunk in chunks:
        batch.append(chunk)
        held += len(chunk)
        if held >= 1 << 16:
            fh.write("".join(batch))
            batch, held = [], 0
    batch.append("\n")
    fh.write("".join(batch))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        if args.command == "enumerate":
            code, payload = _cmd_enumerate(args)
        else:
            basis, tag = _build_basis(args)
            if args.command == "compute":
                code, payload = _cmd_compute(args, basis, tag)
            elif args.command == "verify":
                code, payload = _cmd_verify(args, basis, tag)
            else:
                code, payload = _cmd_characters(args, basis, tag)
    except ValueError as exc:
        _err(f"error: {exc}")
        return getattr(exc, "exit_code", 2)
    try:
        _emit(payload, args)
    except OSError as exc:  # no writable --out, or stdout closed
        _err(f"error: cannot write output: {exc}")
        return 2
    return code


def run():
    """The process entry: ``main()``, then both streams flushed and
    ``os._exit`` with its code, skipping the interpreter's teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where its fd was closed at start-up
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
