"""End-to-end command-line tests driven through main()."""

import contextlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftower import antipode, cli
from hopftower.antipode import antipode_closed
from hopftower.cli import main
from hopftower.hopf import HopfContext, induction_context
from hopftower.nsym import verify_nsym_rules
from hopftower.serialize import (element_from_dict, element_to_dict, jsonable,
                                 theory_to_dict)
from hopftower.theory import cyclic4, two_dim
from test_characters import kronecker
from test_verify import PUBLIC_ROUTES, route_mutants

IND = ["--q", "3", "--iota", "reg", "--alpha", "one", "--beta", "beta_star"]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def word_json(degree, labels, extra=None):
    data = {"degree": degree,
            "terms": [{"word": list(labels), "coeff": "1"}]}
    if extra:
        data.update(extra)
    return json.dumps(data)


def test_compute_multiply(capsys):
    code, out, err = run(capsys, [
        "compute", "multiply", *IND,
        "--x", word_json(2, ["regm1"]),
        "--y", word_json(1, [])])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["degree"] == 3
    assert data["base"] == "twodim" and data["q"] == 3
    assert data["terms"] == [
        {"word": ["regm1", "one"], "coeff": "1"},
        {"word": ["regm1", "regm1"], "coeff": "1"}]


def test_output_is_deterministic(capsys):
    argv = ["compute", "coproduct", *IND, "--x", word_json(3, ["one", "regm1"])]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    assert first[0] == 0


def test_compute_coproduct_shape(capsys):
    code, out, _ = run(capsys, [
        "compute", "coproduct", "--q", "3",
        "--x", word_json(2, ["one"])])
    assert code == 0
    terms = json.loads(out)["terms"]
    ends = [t for t in terms if t["left"]["degree"] in (0, 2)]
    middle = [t for t in terms if t["left"]["degree"] == 1]
    assert len(ends) == 2
    assert middle == [{"left": {"degree": 1, "word": []},
                       "right": {"degree": 1, "word": []},
                       "coeff": "2"}]


def test_compute_antipode_cross_checked(capsys):
    code, out, _ = run(capsys, [
        "compute", "antipode", *IND, "--cross-check",
        "--x", word_json(2, ["one"])])
    assert code == 0
    data = json.loads(out)
    assert data["cross_checked"] is True
    assert data["terms"] == [{"word": ["regm1"], "coeff": "1"}]


def reference_cross_check(ctx, x, closed, tag):
    """What ``compute antipode --cross-check`` printed when it compared
    the public ``Fraction`` routes with ``antipode_closed`` by ``==``:
    ``closed`` is the closed antipode's payload."""
    result = antipode_closed(ctx, x)
    for name, route in PUBLIC_ROUTES:
        other = route(ctx, x)
        if other != result:
            return 1, {"agreed": False, "variant": name, "closed": closed,
                       "other": element_to_dict(other, ctx.basis, tag)}
    return 0, {**closed, "cross_checked": True}


def test_cross_check_mutants_match_fraction_reference(capsys, monkeypatch):
    """With ``_setcomp_num`` or ``_oracle_num`` sign-flipped, the
    cross-check exits 1 and prints, byte for byte, what the public-route
    loop reports; unflipped, it prints the closed antipode."""
    x = words_json(4, ["one", "regm1"], 8)
    ctx = induction_context(two_dim(3))
    element = element_from_dict(json.loads(x), ctx.basis)
    code, out, _ = run(capsys, ["compute", "antipode", *IND, "--x", x])
    closed = json.loads(out)
    tag = {k: v for k, v in closed.items() if k not in ("degree", "terms")}
    assert closed == element_to_dict(antipode_closed(ctx, element),
                                     ctx.basis, tag)
    cases = [(None, None, None), *route_mutants()]
    for name, mutant, variant in cases:
        with monkeypatch.context() as patch:
            if name:
                patch.setattr(antipode, name, mutant)
            want = reference_cross_check(ctx, element, closed, tag)
            code, out, _ = run(capsys, ["compute", "antipode", *IND,
                                        "--cross-check", "--x", x])
        assert (code, out) == (want[0], json.dumps(
            want[1], indent=2, sort_keys=True) + "\n")
        assert code == (1 if name else 0)
        if name:
            assert json.loads(out)["variant"] == variant


def readme_examples():
    """(argv, output) for each README ``sh`` block directly followed by the
    ``json`` block it prints."""
    blocks = re.findall(r"```(\w+)\n(.*?)```", README.read_text("utf-8"), re.S)
    for (lang, body), (next_lang, shown) in zip(blocks, blocks[1:]):
        if lang == "sh" and next_lang == "json":
            lines = body.replace("\\\n", " ").splitlines()
            command = " ".join(ln for ln in lines if not ln.startswith("#"))
            yield shlex.split(command)[1:], json.loads(shown)


def test_readme_examples_print_what_the_readme_shows(capsys):
    seen = []
    for argv, shown in readme_examples():
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == shown
        seen.append(argv[:2])
    assert seen == [["compute", "antipode"], ["verify", "--suite"]]


def test_compute_multiply_needs_y(capsys):
    code, _, err = run(capsys, [
        "compute", "multiply", "--x", word_json(1, [])])
    assert code == 2
    assert err == "error: the following arguments are required: --y\n"


def test_element_tag_mismatch(tmp_path, capsys):
    code, _, err = run(capsys, [
        "compute", "coproduct", "--q", "3",
        "--x", word_json(1, [], {"q": 5})])
    assert code == 2
    assert "does not match" in err
    # an element file of another base names both bases
    path = tmp_path / "x.json"
    path.write_text(word_json(2, ["one"], {"base": "cyclic4"}))
    assert run(capsys, ["compute", "antipode", "--x", f"@{path}"]) == (
        2, "", "error: element base 'cyclic4' does not match the "
        "configured base 'twodim'\n")


def test_verify_axioms(capsys):
    code, out, _ = run(capsys, [
        "verify", "--suite", "axioms", "--max-degree", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["first_failure"] is None
    assert report["checked"] == report["passed"] > 0


def test_verify_axioms_with_seed(capsys):
    plain = run(capsys, ["verify", "--suite", "axioms", "--max-degree", "3"])
    seeded = run(capsys, ["verify", "--suite", "axioms", "--max-degree", "3",
                          "--seed", "7"])
    assert seeded[0] == 0
    assert json.loads(seeded[1])["checked"] > json.loads(plain[1])["checked"]


def test_verify_all_suite(capsys):
    code, out, _ = run(capsys, [
        "verify", "--suite", "all", *IND, "--max-degree", "3"])
    assert code == 0
    report = json.loads(out)
    assert {"axioms", "antipode", "characters", "nsym"} <= set(report)


def test_verify_nsym_suite(capsys):
    """``verify --suite nsym`` runs the NSym rules to the degree asked
    for: its report is the library's at that degree."""
    code, out, err = run(capsys, [
        "verify", "--suite", "nsym", *IND, "--max-degree", "4"])
    assert (code, err) == (0, "")
    want = jsonable(verify_nsym_rules(induction_context(two_dim(3)), 4))
    assert want["checked"] == want["passed"] > 0
    assert json.loads(out) == want


def test_verify_all_takes_the_seed(capsys):
    argv = ["verify", "--suite", "all", *IND, "--max-degree", "3"]
    plain = json.loads(run(capsys, argv)[1])
    code, out, _ = run(capsys, [*argv, "--seed", "5"])
    assert code == 0
    seeded = json.loads(out)
    axioms = json.loads(run(capsys, [
        "verify", "--suite", "axioms", *IND, "--max-degree", "3",
        "--seed", "5"])[1])
    assert seeded["axioms"] == axioms
    assert axioms["checked"] == plain["axioms"]["checked"] + 16
    del seeded["axioms"], plain["axioms"]
    assert seeded == plain


@pytest.mark.parametrize("suite", ["antipode_equiv", "nsym", "characters"])
def test_verify_seed_refused_where_nothing_is_sampled(capsys, suite):
    code, out, err = run(capsys, ["verify", "--suite", suite, *IND,
                                  "--max-degree", "3", "--seed", "5"])
    assert code == 2
    assert out == ""
    assert f"--seed: suite '{suite}' samples nothing" in err


@pytest.mark.parametrize("argv", [
    ["compute", "antipode", *IND, "--x", word_json(2, ["one"])],
    ["characters", "check", "--psi", "one", "--max-degree", "3"],
    ["enumerate", "compositions", "--n", "3"],
])
def test_seed_refused_outside_verify(capsys, argv):
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, [*argv, "--seed", "5"])
    assert code == 2
    assert out == ""
    assert err == "error: unrecognized arguments: --seed 5\n"


def test_seed_help_says_verify_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "antipode", "--help"])
    assert exc.value.code == 0
    assert "--seed" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--seed" in capsys.readouterr().out


def test_verify_rejects_bad_triple(capsys):
    code, _, err = run(capsys, [
        "verify", "--suite", "axioms", "--q", "3",
        "--iota", "reg", "--alpha", "reg"])
    assert code == 3
    assert "<iota,alpha> = 3, expected 1" in err


def test_expression_errors_exit_2(capsys):
    code, _, err = run(capsys, [
        "verify", "--suite", "axioms", "--iota", "one*one"])
    assert code == 2
    assert "error:" in err


def test_characters_check(capsys):
    code, out, _ = run(capsys, [
        "characters", "check", "--psi", "one", "--max-degree", "3"])
    assert code == 0
    assert json.loads(out) == {"multiplicative": True}

    code, out, _ = run(capsys, [
        "characters", "check", "--psi", "2*one", "--max-degree", "3"])
    assert code == 1
    data = json.loads(out)
    assert data["multiplicative"] is False
    assert (data["degree"], data["split"]) == (2, 1)


@pytest.mark.parametrize("action",
                         [["invert"], ["convolve", "--gamma", "one"]])
def test_group_operation_on_a_non_morphism_exits_1(capsys, action):
    """``2*one`` pairs to 2 with iota, so it is not multiplicative and the
    group operations refuse it with NotAMorphism: exit 1, one error line,
    no output."""
    code, out, err = run(capsys, [
        "characters", *action, "--psi", "2*one", "--max-degree", "3"])
    assert (code, out) == (1, "")
    assert err == "error: not multiplicative at degree 2, split 1\n"


def test_characters_convolve_and_invert(capsys):
    code, out, _ = run(capsys, [
        "characters", "convolve", *IND, "--max-degree", "2",
        "--psi", "one", "--gamma", "beta_star"])
    assert code == 0
    assert json.loads(out)["max_degree"] == 2

    code, out, _ = run(capsys, [
        "characters", "invert", "--max-degree", "3", "--psi", "one"])
    assert code == 0
    comps = json.loads(out)["components"]
    # all-ones constant character inverts with alternating signs
    assert comps[1]["terms"][0]["coeff"] == "-1"
    assert comps[2]["terms"][0]["coeff"] == "1"
    assert comps[3]["terms"][0]["coeff"] == "-1"


def test_characters_convolve_needs_gamma(capsys):
    code, _, err = run(capsys, [
        "characters", "convolve", "--psi", "one"])
    assert code == 2
    assert err == "error: the following arguments are required: --gamma\n"


def test_enumerate_compositions(capsys):
    code, out, _ = run(capsys, ["enumerate", "compositions", "--n", "4"])
    assert code == 0
    items = json.loads(out)
    assert len(items) == 8
    assert [4] in items and [1, 1, 1, 1] in items


def test_enumerate_toggle_free(capsys):
    code, out, _ = run(capsys, ["enumerate", "toggle_free", "--n", "3"])
    assert code == 0
    assert len(json.loads(out)) == 9


def test_enumerate_descent_class(capsys):
    code, out, _ = run(capsys, [
        "enumerate", "descent_class", "--mu", "2,1"])
    assert code == 0
    perms = [tuple(item["perm"]) for item in json.loads(out)]
    assert set(perms) == {(1, 3, 2), (3, 1, 2)}


def test_enumerate_bounds(capsys):
    assert run(capsys, ["enumerate", "compositions", "--n", "20"])[0] == 2
    assert run(capsys, ["enumerate", "toggle_free", "--n", "9"])[0] == 2
    assert run(capsys, ["enumerate", "descent_class", "--mu", "5,5"])[0] == 2
    assert run(capsys, ["enumerate", "compositions"])[0] == 2
    assert run(capsys, ["enumerate", "compositions", "--n", "0"])[0] == 2
    assert run(capsys, ["enumerate", "descent_class", "--mu", "0,1"])[0] == 2
    assert run(capsys, ["enumerate", "descent_class", "--mu", "4,x"]) == (
        2, "", "error: bad composition '4,x'\n")
    # the largest admitted request of each bound, and the next size up
    for what, bound, flag, top, past, count in (
            ("compositions", 16, "--n", "16", "17", 2 ** 15),
            ("toggle_free", 8, "--n", "8", "9", 3 ** 7),
            ("descent_class", 7, "--mu", "3,4", "4,4", 34)):
        code, out, err = run(capsys, ["enumerate", what, flag, top])
        assert (code, err) == (0, ""), what
        assert len(json.loads(out)) == count, what
        code, out, err = run(capsys, ["enumerate", what, flag, past])
        assert code == 2 and out == "", what
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"exceeds the {what} bound {bound}" in err


def test_theory_file(tmp_path, capsys):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(theory_to_dict(two_dim(3))))
    code, out, _ = run(capsys, [
        "compute", "multiply", "--theory-file", str(path),
        "--iota", "reg", "--beta", "(reg - one)/2",
        "--x", word_json(1, []), "--y", word_json(1, [])])
    assert code == 0
    data = json.loads(out)
    assert data["base"] == "custom"
    assert data["terms"] == [{"word": ["one"], "coeff": "1"},
                             {"word": ["regm1"], "coeff": "1"}]

    path.write_text("not json")
    code, _, err = run(capsys, [
        "verify", "--suite", "axioms", "--theory-file", str(path)])
    assert code == 2


def test_out_file_and_text_format(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, [
        "enumerate", "compositions", "--n", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == [[3], [2, 1], [1, 2], [1, 1, 1]]

    code, out, _ = run(capsys, [
        "characters", "check", "--psi", "one", "--format", "text"])
    assert code == 0
    assert out.strip() == "multiplicative: True"


def test_text_format_writes_lists_item_by_item(capsys):
    """``--format text`` writes each list item on its own line, a nested
    list under a bare ``-``, indented."""
    code, out, err = run(capsys, [
        "enumerate", "compositions", "--n", "3", "--format", "text"])
    assert (code, err) == (0, "")
    assert out == ("-\n  - 3\n-\n  - 2\n  - 1\n-\n  - 1\n  - 2\n"
                   "-\n  - 1\n  - 1\n  - 1\n")


def test_text_format_renders_empty_and_nested_containers():
    """An empty list prints ``(empty)`` and an empty dict nothing; a list
    or dict value goes under its bare label, one level in."""
    payload = {"a": [], "b": {}, "c": [[1], {"d": None}]}
    assert cli._render_text(payload) == (
        "a:\n  (empty)\nb:\n\nc:\n  -\n    - 1\n  -\n    d: None")


def test_cyclic4_base(capsys):
    code, out, _ = run(capsys, [
        "verify", "--suite", "axioms", "--base", "cyclic4",
        "--max-degree", "3"])
    assert code == 0
    assert json.loads(out)["first_failure"] is None


def test_verify_below_degree_two_is_green(capsys):
    for argv in (["--suite", "characters", "--max-degree", "0"],
                 ["--suite", "characters", "--max-degree", "1"],
                 ["--suite", "all", "--max-degree", "1"]):
        code, out, _ = run(capsys, ["verify", *argv])
        assert code == 0, argv


def test_negative_max_degree_exits_2(capsys):
    for value in ("-3", "x"):
        code, out, err = run(capsys, [
            "verify", "--suite", "axioms", "--max-degree", value])
        assert code == 2 and out == ""
        assert err == ("error: argument --max-degree: expected a "
                       f"nonnegative integer, got {value!r}\n")


def test_malformed_element_exits_2(capsys):
    for x in ('{"degree": true, "terms": []}',
              '{"degree": 2, "terms": 5}',
              '{"degree": 2, "terms": {}}',
              '{"degree": 2, "terms": ""}',
              '{"degree": 2, "terms": [{"word": [["one"]], "coeff": "1"}]}'):
        code, out, err = run(capsys, ["compute", "antipode", "--x", x])
        assert code == 2 and out == "", x
        assert err.startswith("error:")


def test_unreadable_input_files_exit_2(tmp_path, capsys):
    """A missing file and one that is not UTF-8 each get one error line
    that names the flag's file kind."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    missing = tmp_path / "missing.json"
    for argv, lead in (
            (["compute", "antipode", "--x", f"@{missing}"],
             "cannot read element file: "),
            (["compute", "antipode", "--x", f"@{bad}"],
             "bad element JSON: 'utf-8' codec can't decode byte 0xff"),
            (["verify", "--suite", "axioms", "--theory-file", str(missing)],
             "cannot read theory file: "),
            (["verify", "--suite", "axioms", "--theory-file", str(bad)],
             "cannot read theory file: 'utf-8' codec can't decode byte "
             "0xff")):
        code, out, err = run(capsys, argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert err.startswith(f"error: {lead}"), err


def test_ambiguous_theory_labels_exit_2(tmp_path, capsys):
    path = tmp_path / "theory.json"
    for labels in (["one", "one"], ["one", "reg"], [1, "regm1"]):
        data = theory_to_dict(two_dim(3))
        data["labels"] = labels
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, [
            "verify", "--suite", "axioms", "--max-degree", "2",
            "--theory-file", str(path)])
        assert code == 2 and out == "", labels
        assert "error:" in err


# A child that runs one CLI request through main() with its address space
# capped at 512 MiB, so that a request the degree cap misses fails at once
# instead of exhausting the machine's memory.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from hopftower.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(argv, timeout=60):
    """``argv`` as a CLI request in a memory-capped child: (exit code,
    stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _CAPPED, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_zero_element_of_huge_degree_returns_at_once():
    """Every bound admits a zero --x, whose work len(terms) << degree is
    0 at any degree; the coproduct and closed antipode kernels return it
    without a pass over its letters or a D^(2(n-1)) power."""
    x = json.dumps({"degree": 10 ** 9, "terms": []})
    for action in ("coproduct", "antipode"):
        code, out, err = run_capped(["compute", action, *IND, "--x", x],
                                    timeout=10)
        assert (code, err) == (0, ""), action
        assert json.loads(out)["terms"] == []


def test_input_bound_exits_2():
    """An element or theory file is read up to the input bound: past it,
    /dev/zero is refused at once, not read until memory runs out."""
    x = word_json(2, ["one"])
    for argv in (["compute", "antipode", "--x", "@/dev/zero"],
                 ["compute", "multiply", "--x", x, "--y", "@/dev/zero"],
                 ["verify", "--suite", "axioms", "--theory-file",
                  "/dev/zero"]):
        code, out, err = run_capped(argv, timeout=10)
        assert (code, out, err.count("\n")) == (2, "", 1), (argv, err)
        assert err.startswith("error: ") and \
            "exceeds the input bytes bound 16777216" in err, err


def test_verify_work_bound_exits_2(capsys):
    for argv in (["--max-degree", "12"],
                 ["--max-degree", "7"],
                 ["--base", "cyclic4", "--max-degree", "6"]):
        code, out, err = run(capsys, ["verify", "--suite", "all", *argv])
        assert code == 2 and out == "", argv
        assert "verify work bound 4096" in err
    code, out, err = run_capped(["verify", "--suite", "all",
                                 "--max-degree", str(10 ** 12)])
    assert code == 2 and out == ""
    assert "verify work bound 4096" in err


def test_largest_admitted_verify(capsys):
    # dim^(n-1) * 2^n: 2^5 * 2^6 = 2048 for two_dim, 3^4 * 2^5 = 2592 for
    # cyclic4; one degree more is refused above
    for argv in (["--max-degree", "6"],
                 ["--base", "cyclic4", "--max-degree", "5"]):
        code, out, err = run(capsys, ["verify", "--suite", "axioms", *argv])
        assert code == 0 and err == "", argv
        assert json.loads(out)["first_failure"] is None


def test_compute_work_bound_exits_2(capsys):
    # one term of degree 23 is 2^23 > 2^22
    long_word = word_json(23, ["one"] * 22)
    for argv in (["coproduct", "--x", long_word],
                 ["multiply", "--x", word_json(2, ["one"]),
                  "--y", long_word]):
        code, out, err = run(capsys, ["compute", *argv])
        assert code == 2 and out == "", argv
        assert "compute work bound 4194304" in err
    # --cross-check runs the set-composition sums: 2^6 * 2^7 > 2^12
    code, out, err = run(capsys, [
        "compute", "antipode", "--cross-check",
        "--x", word_json(7, ["one"] * 6)])
    assert code == 2 and out == ""
    assert "verify work bound 4096" in err
    code, out, _ = run(capsys, [
        "compute", "antipode", "--cross-check",
        "--x", word_json(6, ["one"] * 5)])
    assert code == 0 and json.loads(out)["cross_checked"] is True
    # the zero element is no work at any degree
    for action in ("coproduct", "antipode"):
        code, out, _ = run(capsys, [
            "compute", action, "--x", '{"degree": 60, "terms": []}'])
        assert code == 0 and json.loads(out)["terms"] == []


def words_json(degree, labels, count):
    """The first ``count`` words of the given degree, each coefficient 1."""
    words = itertools.islice(
        itertools.product(labels, repeat=degree - 1), count)
    return json.dumps({"degree": degree, "terms": [
        {"word": list(w), "coeff": "1"} for w in words]})


def test_multiply_size_bound(capsys):
    # len(x) * len(y) * nnz(iota) with iota = one over cyclic4: 2 * 4096
    # is the bound 2^13, 3 * 2731 one more
    labels = ("one", "sgn", "s")
    code, out, err = run(capsys, [
        "compute", "multiply", "--base", "cyclic4",
        "--x", words_json(2, labels, 2), "--y", words_json(9, labels, 4096)])
    assert code == 0 and err == ""
    assert len(json.loads(out)["terms"]) == 8192
    code, out, err = run(capsys, [
        "compute", "multiply", "--base", "cyclic4",
        "--x", words_json(2, labels, 3), "--y", words_json(9, labels, 2731)])
    assert code == 2 and out == ""
    assert err == ("error: len(terms of --x) * len(terms of --y) * nnz(iota)"
                   " = 8193 exceeds the multiply size bound 8192\n")


def test_characters_work_bound_exits_2(capsys):
    # convolution and inversion are bounded as verify is: dim^(n-1) * 2^n
    for argv in (["--max-degree", "7"],
                 ["--base", "cyclic4", "--max-degree", "6"]):
        code, out, err = run(capsys, [
            "characters", "invert", "--psi", "one", *argv])
        assert code == 2 and out == "", argv
        assert "verify work bound 4096" in err
    code, out, err = run_capped(["characters", "invert", "--psi", "one",
                                 "--max-degree", str(10 ** 12)])
    assert code == 2 and out == ""
    assert "verify work bound 4096" in err


def test_largest_admitted_characters(capsys):
    for argv, top in ((["invert", *IND, "--psi", "(one+regm1)/3",
                        "--max-degree", "6"], 6),
                      (["convolve", "--base", "cyclic4", "--iota", "reg",
                        "--psi", "(one+sgn+s)/4", "--gamma", "one",
                        "--max-degree", "5"], 5)):
        code, out, err = run(capsys, ["characters", *argv])
        assert code == 0 and err == "", argv
        assert json.loads(out)["max_degree"] == top


def assert_refused(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "", argv
    assert err.startswith("error:") and err.count("\n") == 1, err


X = word_json(2, ["one"])


@pytest.mark.parametrize("argv", [
    # flags a command does not read
    ["compute", "coproduct", "--x", X, "--cross-check", "--y", X,
     "--max-degree", "9"],
    ["compute", "coproduct", "--x", X, "--cross-check"],
    ["compute", "coproduct", "--x", X, "--y", X],
    ["compute", "coproduct", "--x", X, "--max-degree", "9"],
    ["compute", "multiply", "--x", X, "--y", X, "--cross-check"],
    ["enumerate", "compositions", "--n", "2", "--mu", "5", "--iota", "bogus"],
    ["enumerate", "compositions", "--n", "2", "--iota", "bogus"],
    ["characters", "invert", "--psi", "one", "--gamma", "nonsense"],
    ["compute", "antipode", "--base", "cyclic4", "--q", "7", "--x", X],
    # an unknown flag, a missing required flag, a bad choice, a non-int
    ["verify", "--suite", "axioms", "--bogus"],
    ["compute", "antipode"],
    ["compute", "antipode", "--base", "nope", "--x", X],
    ["enumerate", "compositions", "--n", "two"],
    ["compute", "antipode", "--base", "cyclic4", "--theory-file", "t.json",
     "--x", X],
])
def test_usage_errors_exit_2_with_one_error_line(capsys, argv):
    assert_refused(capsys, argv)


def test_theory_file_without_one_reads_one_as_its_all_ones_row(
        tmp_path, capsys):
    """'one', every context flag's default, names the all-ones row of a
    table that has no 'one' label, wherever that row stands."""
    data = theory_to_dict(two_dim(3))
    plain, relabeled = tmp_path / "plain.json", tmp_path / "relabeled.json"
    plain.write_text(json.dumps(data))
    relabeled.write_text(json.dumps(
        {**data, "labels": ["regm1", "triv"], "values": data["values"][::-1]}))
    outs = []
    for path, one in ((plain, "one"), (relabeled, "triv")):
        code, out, err = run(capsys, [
            "compute", "coproduct", "--theory-file", str(path), "--iota",
            "reg", "--beta", "(reg - one)/2",
            "--x", word_json(4, ["regm1", one, "regm1"])])
        assert (code, err) == (0, "")
        terms = json.loads(out.replace(f'"{one}"', '"ONE"'))["terms"]
        outs.append(sorted(map(json.dumps, terms)))
    assert outs[0] == outs[1]
    assert any('"ONE"' in term for term in outs[0])


def test_q_belongs_to_the_twodim_table(tmp_path, capsys):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(theory_to_dict(two_dim(3))))
    argv = ["compute", "antipode", "--theory-file", str(path), "--x", X]
    assert run(capsys, argv)[0] == 0
    assert_refused(capsys, [*argv, "--q", "3"])
    # the default table is twodim with q = 2
    assert run(capsys, ["compute", "antipode", "--x", X]) == run(
        capsys, ["compute", "antipode", "--base", "twodim", "--q", "2",
                 "--x", X])


def test_deeply_nested_expression_exits_2(capsys):
    nested = "(" * 5000 + "reg" + ")" * 5000
    assert_refused(capsys, ["compute", "antipode", "--iota", nested,
                            "--x", word_json(1, [])])


def test_deeply_nested_element_exits_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("[" * 100000)
    assert_refused(capsys, ["compute", "antipode", "--x", f"@{path}"])


def test_deeply_nested_theory_file_exits_2(tmp_path, capsys):
    path = tmp_path / "theory.json"
    path.write_text("[" * 100000)
    assert_refused(capsys, ["verify", "--suite", "axioms",
                            "--theory-file", str(path)])


def test_json_of_the_wrong_shape_exits_2(tmp_path, capsys):
    path = tmp_path / "theory.json"
    for key, value in (("values", 5), ("values", [["1", "1"], 7]),
                       ("labels", "ab"), ("values", [["1", "1"], "11"]),
                       ("values", [["1", "1"], [2.0, "-1"]])):
        data = theory_to_dict(two_dim(3))
        data[key] = value
        path.write_text(json.dumps(data))
        assert_refused(capsys, ["compute", "antipode", "--theory-file",
                                str(path), "--x", word_json(1, [])])
    # cyclic4 has a label "s": the string "ss" is not the word [s, s]
    for term in ({"word": "ss", "coeff": "1"},
                 {"word": ["s", "s"], "coeff": 1.5}):
        x = json.dumps({"degree": 3, "terms": [term]})
        assert_refused(capsys, ["compute", "antipode", "--base", "cyclic4",
                                "--x", x])


def test_unwritable_out_exits_2(tmp_path, capsys):
    """--out in a missing directory, or naming a directory, is a usage
    error (exit 2), not a verification failure (exit 1)."""
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, ["enumerate", "compositions", "--n",
                                      "3", "--out", str(target)])
        assert code == 2 and out == "", target
        assert err.startswith("error: cannot write output: ") \
            and err.count("\n") == 1, err


def test_theory_rank_bound_exits_2(tmp_path, capsys):
    """A --theory-file is refused by its row count before any value is
    parsed: past 64 rows even unparsable values get the bound's error,
    and at 64 they get the parse error."""
    path = tmp_path / "theory.json"
    for rank, bound_error in ((65, True), (64, False)):
        path.write_text(json.dumps({
            "labels": [f"c{i}" for i in range(rank)],
            "values": [["x"] * rank] * rank, "sizes": [1] * rank,
            "identity_class": 0}))
        code, out, err = run(capsys, ["verify", "--suite", "axioms",
                                      "--max-degree", "1", "--theory-file",
                                      str(path)])
        assert code == 2 and out == "" and err.count("\n") == 1, err
        assert ("exceeds the theory rank bound 64" in err) == bound_error, err


def test_reader_closing_early_is_not_an_error():
    """``hopftower enumerate compositions --n 16 | head -1``: the request
    writes about 2.2 MB, far more than a pipe holds, and its reader stops
    after the first line.  ``--format text`` writes its whole answer at
    once; in either format the process's final flush is silent."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for fmt, first in (("json", b"[\n"), ("text", b"-\n")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hopftower.cli", "enumerate",
             "compositions", "--n", "16", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == first
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b""), fmt


def cli_process(argv, **kwargs):
    """``python -m hopftower.cli ARGV`` run to its end in a child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "hopftower.cli", *argv],
                          env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("argv, code", [
    # several 64 KiB batches
    (["enumerate", "compositions", "--n", "14"], 0),
    (["characters", "invert", "--psi", "2*one"], 1),
    (["compute", "antipode", "--x", "not json"], 2),
    (["compute", "antipode", "--alpha", "2*one", "--x", X], 3),
])
def test_a_process_answers_as_main_does(capsys, argv, code):
    """``python -m hopftower.cli`` ends through ``run``'s ``os._exit``:
    its stdout, stderr and exit code are main()'s, byte for byte."""
    proc = cli_process(argv, capture_output=True)
    got, out, err = run(capsys, argv)
    assert got == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode())


def test_a_process_started_without_stdout_keeps_its_exit_code(tmp_path):
    """With its stdout closed, where ``sys.stdout`` is None, a refused
    request still exits 2 with its error line, and an ``--out`` answer
    exits 0."""
    for argv, code in ((["bogus"], 2),
                       (["enumerate", "compositions", "--n", "3", "--out",
                         str(tmp_path / "out.json")], 0)):
        proc = cli_process(argv, stderr=subprocess.PIPE,
                           preexec_fn=lambda: os.close(1))
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count(b"\n") == (code == 2), proc.stderr
    assert json.loads((tmp_path / "out.json").read_text()) == [
        [3], [2, 1], [1, 2], [1, 1, 1]]


def test_a_process_started_without_stdout_refuses_its_answer():
    """With its stdout closed, an answer bound for stdout cannot be
    written: the request exits 2 with one error line, as for an
    unwritable ``--out``."""
    proc = cli_process(["enumerate", "compositions", "--n", "2"],
                       stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == b"error: cannot write output: stdout is closed\n"


def test_a_process_writes_out_files_as_main_does(tmp_path, capsys):
    argv = ["compute", "coproduct", *IND, "--x", X]
    proc = cli_process([*argv, "--out", str(tmp_path / "process.json")],
                       capture_output=True)
    got = run(capsys, [*argv, "--out", str(tmp_path / "main.json")])
    assert got == (0, "", "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert ((tmp_path / "process.json").read_bytes()
            == (tmp_path / "main.json").read_bytes())


# A child that runs one CLI request through main() with its output
# discarded, and prints the exit code and the hopftower modules it loaded.
_LOADED = """
import contextlib, io, json, sys
from hopftower import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name.rpartition(".")[2] for name in sys.modules
                               if name.startswith("hopftower."))]))
"""

# every submodule; each row below names exactly the ones it leaves unloaded
_ALL = {"theory", "elements", "combinatorics", "functors", "hopf", "antipode",
        "characters", "nsym", "verify", "serialize", "cli"}


def _but(*loaded):
    return _ALL - set(loaded)


_COMPUTE = ("cli", "serialize", "theory", "elements", "hopf")
_ANTIPODE = (*_COMPUTE, "antipode")
_CHARACTERS = (*_COMPUTE, "characters", "combinatorics")
_VERIFY = (*_ANTIPODE, "verify")


@pytest.mark.parametrize("argv, code, unloaded", [
    (["enumerate", "compositions", "--n", "3"], 0,
     _but("cli", "combinatorics")),
    (["enumerate", "toggle_free", "--n", "3"], 0,
     _but("cli", "combinatorics")),
    (["compute", "multiply", *IND, "--x", X, "--y", X], 0, _but(*_COMPUTE)),
    (["compute", "coproduct", *IND, "--x", X], 0, _but(*_COMPUTE)),
    (["compute", "antipode", *IND, "--x", X], 0, _but(*_ANTIPODE)),
    (["characters", "check", "--psi", "one"], 0, _but(*_CHARACTERS)),
    (["characters", "convolve", "--psi", "one", "--gamma", "one"], 0,
     _but(*_CHARACTERS)),
    (["characters", "invert", "--psi", "one"], 0, _but(*_CHARACTERS)),
    # the exit codes that an exception class carries
    (["compute", "multiply", "--q", "3", "--iota", "reg", "--alpha", "reg",
      "--x", X, "--y", X], 3, _but(*_COMPUTE)),
    (["characters", "invert", "--psi", "2*one"], 1, _but(*_CHARACTERS)),
    # descent classes are combinatorics, not the tower
    (["enumerate", "descent_class", "--mu", "1,2"], 0,
     _but("cli", "combinatorics")),
    # only verify_characters runs the character group
    (["verify", "--suite", "axioms", *IND, "--max-degree", "3"], 0,
     _but(*_VERIFY)),
    # of the antipode routes, the set-composition ones alone run combinatorics
    (["verify", "--suite", "antipode_equiv", *IND, "--max-degree", "3"], 0,
     _but(*_VERIFY, "combinatorics")),
    (["compute", "antipode", "--cross-check", *IND, "--x", X], 0,
     _but(*_ANTIPODE, "combinatorics")),
])
def test_each_command_loads_only_what_it_runs(argv, code, unloaded):
    """A fresh process compiles every module it imports, so a request
    loads exactly the modules its command runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.stderr == ""
    got, loaded = json.loads(proc.stdout)
    assert got == code
    assert set(loaded) == _ALL - unloaded, loaded


def test_large_json_is_written_in_batches(capsys):
    """Over several 64 KiB batches the streamed text is still exactly
    ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    code, out, err = run(capsys, ["enumerate", "compositions", "--n", "14"])
    assert (code, err) == (0, "")
    assert len(out) > 4 << 16
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# A child that runs one CLI request, its only child, with stdout to
# devnull, and prints the request's exit code and peak RSS in KiB (Linux
# counts ru_maxrss in KiB, macOS in bytes).
_PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-m", "hopftower.cli", *sys.argv[1:]],
                       stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(code, peak // 1024 if sys.platform == "darwin" else peak)
"""


def _child_peak(argv):
    """Run the CLI request ``argv`` in a child process: (exit code, peak
    RSS in KiB, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    code, peak_kib = map(int, proc.stdout.split())
    return code, peak_kib, proc.stderr


def _child_request(tmp_path, action, base, labels, degree, count):
    """Run ``compute action`` on the first ``count`` words of ``degree``
    over ``labels`` in a child process: (exit code, peak RSS in KiB,
    stderr)."""
    path = tmp_path / f"x_{degree}.json"
    path.write_text(json.dumps({"degree": degree, "terms": [
        {"word": list(w), "coeff": "1"} for w in itertools.islice(
            itertools.product(labels, repeat=degree - 1), count)]}))
    return _child_peak(["compute", action, *base, "--x", f"@{path}"])


def assert_largest_admitted(tmp_path, action, base, labels, top, count,
                            refused_count, bound):
    """``count`` words of degree ``top`` are the largest request the
    bounds admit; it stays under 64 MiB.  ``refused_count`` words of
    degree ``top + 1`` exit 2 with one error line, naming ``bound``."""
    code, peak_kib, err = _child_request(tmp_path, action, base, labels,
                                         top, count)
    assert (code, err) == (0, "")
    assert peak_kib < 64 * 1024, f"peak RSS {peak_kib / 1024:.1f} MiB"
    code, _, err = _child_request(tmp_path, action, base, labels, top + 1,
                                  refused_count)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"exceeds the {bound} bound" in err


_CYCLIC4 = (["--base", "cyclic4", "--iota", "reg", "--beta", "(reg - one)/3"],
            ("one", "sgn", "s"))


def test_largest_cyclic4_coproduct_stays_under_64_mib(tmp_path):
    """The dense cyclic4 degree-9 ``compute coproduct`` (all 6,561 words)
    writes about 9 MB of JSON.  Streamed, it peaks near 56 MiB on Python
    3.10-3.12; holding the whole text as well took it to about 119 MiB,
    and degree 10 (4,096 words, refused now) took 107 MiB."""
    assert_largest_admitted(tmp_path, "coproduct", *_CYCLIC4, 9, 3 ** 8,
                            4096, "coproduct size")


def test_largest_cyclic4_antipode_stays_under_64_mib(tmp_path):
    """The dense cyclic4 degree-9 ``compute antipode`` peaks near 24 MiB;
    degree 10 (4,096 words, refused now) took 95 MiB."""
    assert_largest_admitted(tmp_path, "antipode", *_CYCLIC4, 9, 3 ** 8,
                            4096, "antipode size")


def _rank18(tmp_path):
    """The rank-18 table of cyclic4 x cyclic4 x two_dim(2), a group of
    order 32, so beta = (reg - one)/31; degree 3 is the largest the verify
    work bound admits there: 18^2 * 2^3 = 2,592 <= 4,096."""
    path = tmp_path / "rank18.json"
    path.write_text(json.dumps(theory_to_dict(
        kronecker(kronecker(cyclic4(), cyclic4()), two_dim(2)))))
    return ["--theory-file", str(path), "--iota", "reg",
            "--beta", "(reg - one)/31", "--max-degree", "3"]


# the largest verify and characters requests the verify work bound admits
_LARGEST_SUITES = {
    "verify_twodim_6": lambda _: ["verify", "--suite", "all", *IND,
                                  "--max-degree", "6"],
    "verify_cyclic4_5": lambda _: ["verify", "--suite", "all", *_C4,
                                   "--max-degree", "5"],
    "verify_rank18_3": lambda tmp: ["verify", "--suite", "all",
                                    *_rank18(tmp)],
    "invert_twodim_6": lambda _: ["characters", "invert", *IND, "--psi",
                                  "(one+regm1)/3", "--max-degree", "6"],
    "convolve_cyclic4_5": lambda _: ["characters", "convolve", *_C4,
                                     "--psi", "(one+sgn+s)/4", "--gamma",
                                     "one", "--max-degree", "5"],
}


@pytest.mark.parametrize("request_name", _LARGEST_SUITES)
def test_largest_suites_stay_under_64_mib(tmp_path, request_name):
    """Each peaks near 16-17 MiB on Python 3.11, except the rank-18 suites
    (about 39 MiB), whose per-context memo holds Δ, the closed S and the
    oracle's S of all 344 words of degree at most 3."""
    argv = _LARGEST_SUITES[request_name](tmp_path)
    code, peak_kib, err = _child_peak(argv)
    assert (code, err) == (0, "")
    assert peak_kib < 64 * 1024, f"peak RSS {peak_kib / 1024:.1f} MiB"


def _rank1(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"labels": ["one"], "values": [["1"]],
                                "sizes": [1], "identity_class": 0}))
    return ["--theory-file", str(path)], ("one",)


def test_largest_rank1_requests_stay_under_64_mib(tmp_path):
    """A rank-1 table has one word per degree, so no size bound refuses
    it: the compute work bound does, past a one-word input of degree 22
    (2^22).  Summed letter by letter, the degree-22 coproduct and
    antipode peak near 15 MiB."""
    for action in ("coproduct", "antipode"):
        assert_largest_admitted(tmp_path, action, *_rank1(tmp_path), 22, 1,
                                1, "compute work")


class _Admitted(Exception):
    """Raised by a stub kernel: the request passed every bound."""


def test_compute_size_bound(capsys, tmp_path, monkeypatch):
    """2^15 pairs of words for a coproduct and 2^14 words for an
    antipode: two_dim admits coproducts to degree 13 and antipodes to
    degree 15, cyclic4 both to degree 9.  A rank-1 table, one word per
    degree, passes both bounds at any degree; the compute work bound
    (2^22 for one word) admits both to degree 22."""
    bases = {1: _rank1(tmp_path)[0], 2: [], 3: ["--base", "cyclic4"]}
    for action, dim, top in (("coproduct", 1, 22), ("coproduct", 2, 13),
                             ("coproduct", 3, 9), ("antipode", 1, 22),
                             ("antipode", 2, 15), ("antipode", 3, 9)):
        code, out, err = run(capsys, [
            "compute", action, *bases[dim],
            "--x", word_json(top, ["one"] * (top - 1))])
        assert code == 0 and err == "", (action, dim)
        code, out, err = run(capsys, [
            "compute", action, *bases[dim],
            "--x", word_json(top + 1, ["one"] * top)])
        assert code == 2 and out == "", (action, dim)
        bound = "compute work" if dim == 1 else f"{action} size"
        assert f"exceeds the {bound} bound" in err
    # the zero element is still admitted at any degree, and so, with the
    # compute work bound lifted, is a rank-1 word by the size bounds
    zero = json.dumps({"degree": 60, "terms": []})
    code, out, err = run(capsys, ["compute", "coproduct", "--x", zero])
    assert (code, err, json.loads(out)["terms"]) == (0, "", [])

    def reached(*args):
        raise _Admitted

    monkeypatch.setitem(cli._BOUNDS, "compute work", 1 << 64)
    monkeypatch.setattr(HopfContext, "coproduct", reached)
    monkeypatch.setattr(antipode, "antipode_closed", reached)
    for action in ("coproduct", "antipode"):
        with pytest.raises(_Admitted):
            main(["compute", action, *bases[1],
                  "--x", word_json(60, ["one"] * 59)])


def test_set_composition_bound(capsys, tmp_path):
    """The full set-composition sum runs over all Fubini(n) ordered set
    partitions whatever the rank, so a rank-1 table, which the verify work
    bound admits to degree 12, is refused past Fubini(7) = 47,293: the
    antipode-equivalence suites and --cross-check at degree 8 (545,835)
    exit 2.  The suites that sum no set compositions stay admitted."""
    rank1 = _rank1(tmp_path)[0]
    for suite, degree in (("antipode_equiv", "7"), ("axioms", "8")):
        code, out, err = run(capsys, ["verify", "--suite", suite, *rank1,
                                      "--max-degree", degree])
        assert code == 0 and err == "", suite
        assert json.loads(out)["first_failure"] is None
    for argv in (["verify", "--suite", "antipode_equiv", "--max-degree", "8"],
                 ["verify", "--suite", "all", "--max-degree", "8"],
                 ["compute", "antipode", "--cross-check",
                  "--x", word_json(8, ["one"] * 7)]):
        code, out, err = run(capsys, [*argv, *rank1])
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "exceeds the set compositions bound 65536" in err


# argv shapes: the benchmark's CLI requests, the refused requests that CI
# runs, and --help at each level
_C4 = ["--base", "cyclic4", "--iota", "reg", "--beta", "(reg - one)/3"]
_SHAPES = [
    ["compute", "multiply", *IND, "--x", X, "--y", X],
    ["compute", "coproduct", *IND, "--x", X],
    ["compute", "antipode", *IND, "--x", X],
    ["compute", "antipode", *IND, "--cross-check", "--x", X],
    ["compute", "multiply", "--base", "cyclic4", "--iota", "reg", "--x", X,
     "--y", X],
    ["characters", "check", *IND, "--psi", "one", "--max-degree", "4"],
    ["characters", "convolve", *IND, "--psi", "one", "--gamma", "beta_star",
     "--max-degree", "4"],
    ["characters", "invert", *IND, "--psi", "beta_star", "--max-degree", "4"],
    ["enumerate", "compositions", "--n", "6"],
    ["enumerate", "toggle_free", "--n", "5"],
    ["enumerate", "descent_class", "--mu", "2,1,2"],
    ["verify", "--suite", "axioms", *IND, "--max-degree", "4", "--seed", "1"],
    ["verify", "--suite", "all", *IND, "--max-degree", "3"],
    ["verify", "--suite", "antipode_equiv", "--base", "cyclic4",
     "--max-degree", "3"],
    ["compute", "antipode", "--alpha", "2*one", "--x", X],
    ["compute", "coproduct", "--x", X, "--cross-check", "--y", X,
     "--max-degree", "9"],
    ["compute", "multiply", "--x", X, "--y", X, "--cross-check"],
    ["enumerate", "compositions", "--n", "2", "--mu", "5", "--iota", "bogus"],
    ["characters", "invert", "--psi", "one", "--gamma", "nonsense"],
    ["compute", "antipode", "--base", "cyclic4", "--q", "7", "--x", X],
    ["compute", "antipode", "--base", "nope"],
    ["enumerate", "descent_class", "--mu", "4,4"],
    ["verify", "--suite", "all", "--max-degree", "1000000000000"],
    ["enumerate", "compositions", "--n", "3", "--out", "out"],
    ["verify", "--suite", "axioms", "--max-degree", "1", "--theory-file",
     "rank65.json"],
    ["compute", "coproduct", *_C4, "--x", X],
    ["compute", "antipode", "--theory-file", "one.json", "--x", X],
    ["verify", "--suite", "antipode_equiv", "--theory-file", "one.json",
     "--max-degree", "8"],
    ["bogus"],
    ["compute", "bogus"],
    ["enumerate", "compositions"],
    ["verify", "--suite", "nope"],
    [],
    ["--help"],
    ["compute", "--help"],
    ["verify", "--help"],
    ["enumerate", "--help"],
    ["characters", "--help"],
    *([command, leaf, "--help"] for command, leaves in (
        ("compute", ("multiply", "coproduct", "antipode")),
        ("enumerate", ("compositions", "toggle_free", "descent_class")),
        ("characters", ("check", "convolve", "invert"))) for leaf in leaves),
]
_LEAVES = {"compute": {"multiply", "coproduct", "antipode"},
           "enumerate": {"compositions", "toggle_free", "descent_class"},
           "characters": {"check", "convolve", "invert"}}


def _parsed(parser, argv, capsys):
    """What parsing argv gives: a Namespace, a usage error's message, or
    the exit code and text of a help message."""
    try:
        return parser.parse_args(argv)
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out


@pytest.mark.parametrize("argv", _SHAPES)
def test_the_leaf_path_parses_as_the_whole_tree(argv, capsys, monkeypatch):
    """The parsers built for argv's own command and leaf give the Namespace,
    error message or help text that the whole tree gives, and a request
    naming a command and leaf builds those parsers only: the top parser,
    the command's and its leaf's (verify has no leaf)."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    got = _parsed(cli.build_parser(argv), argv, capsys)
    named = argv[:1] == ["verify"] or (
        len(argv) > 1 and argv[1] in _LEAVES.get(argv[0], ()))
    assert len(built) == ((2 if argv[0] == "verify" else 3) if named
                          else 14)
    assert got == _parsed(cli.build_parser(), argv, capsys)


def test_help_and_choice_errors_list_every_choice(capsys):
    """An argv naming no command and leaf gets the whole tree, so its
    messages list every choice."""
    assert main(["compute", "bogus"]) == 2
    assert capsys.readouterr().err == (
        "error: argument action: invalid choice: 'bogus' (choose from "
        "'multiply', 'coproduct', 'antipode')\n")
    for argv, choices in (
            (["--help"], "{compute,verify,enumerate,characters}"),
            (["compute", "--help"], "{multiply,coproduct,antipode}")):
        with pytest.raises(SystemExit):
            main(argv)
        assert choices in capsys.readouterr().out


_LABELS = ("one", "regm1", "sgn", "s", "reg", "beta_star", "q", "bogus", "")
# JSON values of the wrong kind, or nested past sense
_JUNK = (1.5, True, None, "x", [], {}, [[[]]], {"degree": {}}, -1, 2 ** 70)


def _often(valid, junk):
    """Draws from ``valid`` four times in five, else from ``junk``."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else junk)


@st.composite
def _element_text(draw):
    """An element's JSON text, often malformed: a float, a bool or a
    negative degree, an unknown label, nested junk, or no JSON at all."""
    if not draw(st.integers(0, 9)):
        return draw(st.sampled_from(("", "{", "[1,", "null", "@nope.json")))
    degree = draw(_often(st.integers(0, 4), st.sampled_from(_JUNK)))
    n = degree - 1 if degree in (1, 2, 3, 4) else 0
    terms = draw(st.lists(st.fixed_dictionaries({
        "word": _often(st.lists(st.sampled_from(_LABELS[:2]), min_size=n,
                                max_size=n),
                       st.one_of(st.lists(st.sampled_from(_LABELS),
                                          max_size=4),
                                 st.sampled_from(_JUNK))),
        "coeff": _often(st.sampled_from(("1", "-2/3", "0")),
                        st.sampled_from(("1/0", "x", *_JUNK)))}),
        max_size=3))
    data = {"degree": degree, "terms": terms}
    return json.dumps(draw(_often(st.just(data), st.sampled_from(_JUNK))))


def _theory_files(table):
    """The theory file's JSON object, valid and with one flaw each: not
    square, not orthogonal, no all-ones row, past the 64-row bound,
    labels that are not strings, bad sizes or a bad identity class."""
    k, values = len(table["labels"]), table["values"]
    flaws = ({},
             {"labels": table["labels"][:-1], "values": values[:-1]},
             {"values": [*values[:-1], ["7", *values[-1][1:]]]},
             {"values": [["2"] * k, *values[1:]]},
             {"labels": [f"c{i}" for i in range(65)],
              "values": [["x"] * 65] * 65},
             {"labels": list(range(k))}, {"labels": [None] * k},
             {"sizes": [0] * k}, {"sizes": [1] * (k - 1)},
             {"sizes": [True] * k}, {"sizes": "12"}, {"sizes": 5},
             {"identity_class": k}, {"identity_class": "0"},
             {"identity_class": True}, {"identity_class": 1})
    return [{**table, **flaw} for flaw in flaws]


# a theory file's JSON object, which the test writes to a file
_THEORY = st.sampled_from([
    data for basis in (two_dim(3), cyclic4())
    for data in _theory_files(theory_to_dict(basis))])

_EXPRESSION = _often(
    st.sampled_from(("one", "reg", "beta_star", "(reg - one)/3", "regm1/2",
                     "2*one")),
    st.lists(st.sampled_from(_LABELS + ("2", "1/3", "0", "2.5", "+", "-",
                                        "*", "/", "(", ")")),
             min_size=1, max_size=7).map(" ".join))

# each flag's values, valid and not
_VALUES = {
    "--x": _element_text(), "--y": _element_text(),
    "--iota": _EXPRESSION, "--alpha": _EXPRESSION, "--beta": _EXPRESSION,
    "--psi": _EXPRESSION, "--gamma": _EXPRESSION,
    "--base": _often(st.sampled_from(("twodim", "cyclic4")), st.just("no")),
    "--q": _often(st.sampled_from(("2", "3")), st.sampled_from(("1", "x"))),
    "--max-degree": st.sampled_from(("0", "1", "2", "3", "-1", "x")),
    "--n": _often(st.sampled_from(("1", "3", "6")),
                  st.sampled_from(("0", "-2", "x"))),
    "--mu": _often(st.sampled_from(("1,2", "2,1,2")),
                   st.sampled_from(("4,4", "0", "a,b", ""))),
    "--suite": _often(st.sampled_from(("axioms", "antipode_equiv", "nsym",
                                       "characters", "all")),
                      st.just("nope")),
    "--seed": _often(st.just("1"), st.just("x")),
    "--format": _often(st.sampled_from(("json", "text")), st.just("xml")),
    "--theory-file": _often(_THEORY, st.just("nope.json")),
    "--bogus": st.just("1"),
    "--cross-check": st.nothing(),
}
# each leaf's required flags (verify has no leaf)
_REQUIRED = {"multiply": ["--x", "--y"], "coproduct": ["--x"],
             "antipode": ["--x"], "compositions": ["--n"],
             "toggle_free": ["--n"], "descent_class": ["--mu"],
             "check": ["--psi"], "invert": ["--psi"],
             "convolve": ["--psi", "--gamma"], None: ["--suite"]}
_CONTEXT = ("--format", "--base", "--q", "--theory-file", "--iota", "--alpha",
            "--beta")


@st.composite
def _argv(draw):
    """A request: a command and its leaf, each now and then misspelled or
    left out, their required flags, each now and then left out, and a few
    other flags, now and then one no leaf reads, with drawn values."""
    command = draw(st.sampled_from(("compute", "verify", "enumerate",
                                    "characters")))
    leaf = (draw(st.sampled_from(sorted(_LEAVES[command])))
            if command in _LEAVES else None)
    argv = [command, leaf] if leaf else [command]
    if not draw(st.integers(0, 9)):
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif not draw(st.integers(0, 9)):
        argv[-1] += "s"
    flags = [f for f in _REQUIRED[leaf] if draw(st.integers(0, 9))]
    optional = {"enumerate": _CONTEXT[:1], "verify": (*_CONTEXT, "--seed"),
                "compute": (*_CONTEXT, "--cross-check")}.get(command, _CONTEXT)
    flags += draw(st.lists(st.sampled_from(optional), max_size=3))
    flags += draw(_often(st.just([]), st.lists(st.sampled_from(
        sorted(_VALUES)), min_size=1, max_size=1)))
    for flag in flags:
        argv.append(flag)
        if flag != "--cross-check":
            argv.append(draw(_VALUES[flag]))
    if command in ("verify", "characters"):  # the default degree is 4
        argv += ["--max-degree", draw(st.sampled_from("0123"))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_every_request_keeps_the_exit_code_contract(argv):
    """Nothing escapes main(), which exits 0, 1, 2 or 3 and writes either
    an answer to stdout or one ``error:`` line to stderr: the latter on
    exit 2 or 3, or on exit 1 from a group operation on a non-morphism."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = list(argv)
        for i, arg in enumerate(args):
            if isinstance(arg, dict):  # a drawn theory file
                args[i] = os.path.join(tmp, f"theory{i}.json")
                Path(args[i]).write_text(json.dumps(arg))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert bool(out) != bool(err), argv
    assert bool(err) == (code > 1) or code == 1, argv
    if err:
        assert err.startswith("error: ") and err.count("\n") == 1, argv
