"""Mutation gate: the tier-1 suite must fail on each listed mutant of src/.

A mutant is (file under src/hopftower, old text, new text, expected
outcome), and its old text must occur exactly once in the file; a known
survivor, listed so that the score shows it, expects "survived".  The
unmutated tree runs first and must pass; then each mutant is applied to a
fresh copy of the working tree (without ``.git``) in a temporary
directory, where the tier-1 suite runs with ``-x`` under a timeout.  A
run that fails or times out kills the mutant.

Once the mutants have run, the last line is the score, ``killed K of M
mutants``.  Exits 1 when the unmutated tree fails, when an old text does
not occur exactly once, or when a mutant expected to be killed survives.
Run from anywhere, with the test extra installed:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900  # per run; the whole suite takes under a minute

MUTANTS = [
    # the set-composition routes' pad, d^(2(n-1-k)) for k crossings
    ("antipode.py", "d ** (2 * (top - len(crossings)))",
     "d ** (2 * (top - len(crossings) + 1))", "killed"),
    # a crossing pairs against beta (flag 0) or alpha (flag 1)
    ("antipode.py", "pairings = (beta, alpha)", "pairings = (alpha, beta)",
     "killed"),
    # a set composition's crossing is alpha (1) when j+1's block comes
    # before j+2's, beta (0) when after
    ("antipode.py", "int(k < k_next)", "int(k > k_next)", "killed"),
    # a set composition's sign, (-1)^(number of blocks)
    ("antipode.py", "-1 if len(A) % 2 else 1", "1 if len(A) % 2 else -1",
     "killed"),
    # an expanded entry's coefficient
    ("elements.py", "out[key] = out.get(key, 0) + c * ci",
     "out[key] = out.get(key, 0) + c", "killed"),
    # the table of basis-word coproducts drops zeros, not negative terms
    ("hopf.py", "{k: v for k, v in terms.items() if v}",
     "{k: v for k, v in terms.items() if v > 0}", "killed"),
    # the oracle sums over every left degree strictly between 0 and n
    ("antipode.py", "0 < ld < n", "1 < ld < n", "killed"),
    # a difference letter subtracts its pairing with alpha times iota
    ("hopf.py", "enumerate(self._alpha_num))", "enumerate(self._beta_num))",
     "killed"),
    # a later crossing pairs against alpha from the left, beta from the right
    ("hopf.py", "((0, alpha), (1, beta))", "((0, beta), (1, alpha))",
     "killed"),
    # verify_axioms' one pass over Δ(w), made vacuous: coassociativity
    # compared with one side twice, each convolution with itself, and the
    # left counit with its own strip
    ("verify.py", "(den * den, triple_b), triples)",
     "(den * den, triple_a), triples)", "killed"),
    ("verify.py", "(1, {}), partial(spliced, n))",
     "(den * den * iota_den, conv), partial(spliced, n))", "killed"),
    ("verify.py", "(den, left_strip), x, element)",
     "(den, left_strip), (den, left_strip), element)", "killed"),
    # llc bits: j's block index at most j+1's
    ("combinatorics.py", "idx[j] <= idx[j + 1]", "idx[j] < idx[j + 1]",
     "killed"),
    # the pair walk reaches its top total degree
    ("verify.py", "range(2, top + 1)", "range(2, top)", "killed"),
    # an element or theory file is read up to the input bound only
    ("cli.py", 'fh.read(_BOUNDS["input bytes"] + 1)', "fh.read()", "killed"),
    # the bracket functor pairs its kept letters against alpha or beta
    ("functors.py",
     "pair_a, pair_b = basis.pairings(alpha), basis.pairings(beta)",
     "pair_a, pair_b = basis.pairings(beta), basis.pairings(alpha)",
     "killed"),
    # the character inverse joins psi blocks by (alpha + beta) markers
    ("characters.py", "_letter((ctx.alpha + ctx.beta).coords)",
     "_letter((ctx.alpha + ctx.alpha).coords)", "killed"),
    # each block of a composition is followed by its own side's marker
    ("characters.py",
     "sides = (chi_a._num_tables, mark_a), (chi_b._num_tables, mark_b)",
     "sides = (chi_a._num_tables, mark_b), (chi_b._num_tables, mark_a)",
     "killed"),
    # a block entry of _expand_num scales by each block word's numerator
    ("elements.py", "partial = {w + bw: c * bc for w, c in partial.items()",
     "partial = {w + bw: c for w, c in partial.items()", "killed"),
    # check_morphism pairs the letter at the splice, not its mirror
    ("characters.py", "c * pair_iota[w[j - 1]]", "c * pair_iota[w[-j]]",
     "killed"),
    # reversing every word of a convolution component: every character the
    # tests build is reversal-invariant, and on those the mutant's
    # (gamma∘ρ)*(psi∘ρ) equals psi*gamma, so only a pair of characters that
    # do not commute can show it
    ("characters.py", "(1, _interleave(*pair, mu))",
     "(1, (lambda den, t: (den, {w[::-1]: c for w, c in t.items()}))"
     "(*_interleave(*pair, mu)))", "survived"),
    # the square product splices right sides as (a's, b's)
    ("hopf.py", "rights = _splice(rda, rwa, rdb, rwb, iota, den)",
     "rights = _splice(rdb, rwb, rda, rwa, iota, den)", "killed"),
    # the closed antipode's word, read right to left: the finished
    # blocks, then the open one
    ("antipode.py", "terms[done + (block - 1 << done.bit_length() - 1)]",
     "terms[block + (done - 1 << block.bit_length() - 1)]", "killed"),
    # the closed antipode's cut takes minus its beta pairing
    ("antipode.py", "group.get(key, 0) - v * cut",
     "group.get(key, 0) + v * cut", "killed"),
    # a cut puts the iota marker after the block, before the next one
    ("antipode.py", "block += marker << block.bit_length() - 1",
     "block = block << b | dim", "killed"),
    # a marker goes to letter i by subtracting dim - i from its digit
    ("antipode.py", "w - (dim - i << shift)", "w - (i - dim << shift)",
     "killed"),
    # the expansion reads position p at p * b, not (p + 1) * b
    ("antipode.py", "for shift in shifts:  # a marker's",
     "for shift in [s + b for s in shifts]:  # a marker's", "killed"),
    # a zero form of any degree returns at once, without its letter passes
    ("antipode.py", "    if not nums:  # at once: no letter passes and no "
     "D^(2(n-1))\n        return common, {}\n", "", "killed"),
    ("hopf.py", "        if not nums:  # at once: no letter passes and no "
     "D^(2(n-1))\n            return common, {}\n", "", "killed"),
    # the coproduct's first crossing pairs its letter against alpha
    ("hopf.py", "v * alpha[a] * scale", "v * beta[a] * scale", "killed"),
    # the CLI loads no module at import that enumerate does not run
    ("cli.py", "from math import comb\n",
     "from math import comb\n\nfrom . import serialize\n", "killed"),
    # a misspelled leaf gets the whole tree, whose error lists the choices
    ("cli.py", "if leaves is None or dest and leaf not in leaves:",
     "if leaves is None:", "killed"),
    # a request naming its leaf builds that leaf's parser, no other
    ("cli.py", "for each in [leaf] if leaf else leaves:",
     "for each in leaves:", "killed"),
    # a CLI process ends with main()'s exit code
    ("cli.py", "os._exit(code)", "os._exit(0)", "killed"),
    # verify --suite nsym runs the rules to the degree asked for
    ("cli.py", "verify_nsym_rules(ctx, n)", "verify_nsym_rules(ctx, 1)",
     "killed"),
    # compatibility's Δ(x·y) scales each Δ(w) by w's coefficient in x·y
    ("verify.py", "lhs.get(k, 0) + c * v", "lhs.get(k, 0) + v", "killed"),
    # the basis-word memo keys (kernel, degree, word): degrees 0 and 1
    # share (), and Δ and S of one word share (degree, word)
    ("hopf.py", "self._word_forms, (kernel, n, word)",
     "self._word_forms, (kernel, word)", "killed"),
    ("hopf.py", "(kernel, n, word)", "(n, word)", "killed"),
    # a set composition's first block is the masked elements, not the rest
    ("combinatorics.py", "(block if mask & 1 else rest)",
     "(rest if mask & 1 else block)", "killed"),
    # block indices count from 0, as the blocks of A do
    ("combinatorics.py", "for k, blk in enumerate(A)",
     "for k, blk in enumerate(A, 1)", "killed"),
    # the output edge, and nothing before it, sorts the terms: a tensor
    # square's JSON term list, and an element's through sorted_terms
    ("serialize.py", "in sorted(sq.terms.items())]", "in sq.terms.items()]",
     "killed"),
    ("elements.py", "return sorted(self.terms.items())",
     "return list(self.terms.items())", "killed"),
    # a number token is the whole decimal run, not its first digit
    ("serialize.py", r"(\d+)|", r"(\d)|", "killed"),
    # a run of 641 digits is refused before it reaches int(), whose limit
    # may be set as low as 640
    ("serialize.py", "len(number) > _DIGITS", "len(number) > _DIGITS + 1",
     "killed"),
    # the expression grammar: * and / bind tighter than + and -, each
    # right operand is parsed one level up so that all four group left to
    # right, and each leading - flips the sign
    ("serialize.py", '"/": (2, _div)', '"/": (1, _div)', "killed"),
    ("serialize.py", "_parse(tokens, names, level + 1)",
     "_parse(tokens, names, level)", "killed"),
    ("serialize.py", "sign = -sign", "sign = -1", "killed"),
    # descent classes are refused past 7 letters
    ("combinatorics.py", "n > 7", "n > 8", "killed"),
    # --format text puts a space between a label and its scalar value
    ("cli.py", 'f"{pad}{label} {value}"', 'f"{pad}{label}{value}"',
     "killed"),
    # the left antipode convolution scales by S(left)'s coefficient
    ("verify.py", "left_conv.get(k, 0) + c_pad * v * ci",
     "left_conv.get(k, 0) + c_pad * ci", "killed"),
    # verify_axioms' int keys: a spliced iota letter is one base-dim digit
    # above the right word, and one side of coassociativity keys Δ(left)'s
    # pair before the right factor's index, not after it
    ("verify.py", "(i * dim ** (b - 1), c)", "(i * dim ** b, c)", "killed"),
    ("verify.py", "key = p2 * N + r", "key = r * NN + p2", "killed"),
    # the oracle's splice scales by iota's coefficient
    ("antipode.py", "acc.get(key, 0) + s * ci", "acc.get(key, 0) + s",
     "killed"),
    # a letter equal to the rank is not a basis index
    ("elements.py", "0 <= a < dim", "0 <= a <= dim", "killed"),
]


def _copy_tree(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache"))


def _run_suite(tree):
    """(outcome, seconds) of tier-1 with -x on the tree at ``tree``:
    "passed", "failed" or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if proc.returncode == 0 else "failed",
            time.perf_counter() - start)


def main():
    for file, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "hopftower" / file).read_text().count(old)
        if count != 1:
            print(f"{file}: {old!r} occurs {count} times, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        outcome, seconds = _run_suite(base)
        print(f"unmutated tree: {outcome} in {seconds:.1f} s")
        if outcome != "passed":
            return 1
        survivors = killed = 0
        for i, (file, old, new, expected) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            path = tree / "src" / "hopftower" / file
            path.write_text(path.read_text().replace(old, new))
            outcome, seconds = _run_suite(tree)
            got = "survived" if outcome == "passed" else "killed"
            survivors += got == "survived" and expected == "killed"
            killed += got == "killed"
            print(f"{got} ({outcome} in {seconds:.1f} s, expected {expected})"
                  f": {file}: {old!r} -> {new!r}")
            shutil.rmtree(tree)
    print(f"killed {killed} of {len(MUTANTS)} mutants")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
