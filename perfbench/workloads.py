"""Seeded inputs and the fixed job list of each workload.

Nothing here imports ``hopftower``: the worker hands the package in after
it has timed the import.  Inputs are plain data (words and integer
numerator/denominator pairs) made from the seed alone, so the same seed
gives the same inputs.  The seed picks coefficients, the words of sparse
elements and the spot-check seed; it never changes the shape of a job
(degrees, term counts, suites), so the work a pass does stays the same
from seed to seed.

Why these workloads:

* ``verify_exhaustive`` -- many small calls on basis words with heavy reuse
  (one ``verify_axioms`` at degree 6 makes thousands of ``coproduct``
  calls on a few hundred distinct inputs), the way ``verify --suite all``
  and the acceptance criteria run.  A basis-word memo, per-call overhead
  and the characters cross-check show here; serialization does not.
* ``dense_compute`` -- few huge calls, each basis word touched about once,
  so a memo should gain nothing here while per-term arithmetic,
  accumulation and a faster antipode route do.
* ``cli_json`` -- one ``python -m hopftower.cli`` process per request, where
  process start, import and JSON dominate kernel time.
"""

from __future__ import annotations

import itertools
import json
import os
import random

DEV_SEED = 1
HELD_OUT_SEED = 2

LABELS = {"twodim": ("one", "regm1"), "cyclic4": ("one", "sgn", "s")}
DIM = {"twodim": 2, "cyclic4": 3}

# context name -> (triple, base, q)
CONTEXTS = {
    "ind_q3": ("induction", "twodim", 3),
    "ind_q5": ("induction", "twodim", 5),
    "ones_q2": ("all_ones", "twodim", 2),
    "ind_c4": ("induction", "cyclic4", None),
}


def build_context(ht, name):
    triple, base, q = CONTEXTS[name]
    basis = ht.two_dim(q) if base == "twodim" else ht.cyclic4()
    if triple == "induction":
        return ht.induction_context(basis)
    return ht.all_ones_context(basis)


def _coeff(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)


def _words(dim, degree):
    return list(itertools.product(range(dim), repeat=degree - 1))


def dense(rng, base, degree):
    """Every word of the component, each with a random nonzero rational."""
    return degree, [(w, _coeff(rng)) for w in _words(DIM[base], degree)]


def sparse(rng, base, degree, count):
    """``count`` random words of the component."""
    words = sorted(rng.sample(_words(DIM[base], degree), count))
    return degree, [(w, _coeff(rng)) for w in words]


def to_element(ht, plain):
    # imported here: importing fractions is part of the timed set-up
    from fractions import Fraction
    degree, terms = plain
    return ht.TensorElement(degree, {w: Fraction(n, d) for w, (n, d) in terms})


def to_json(plain, base):
    degree, terms = plain
    labels = LABELS[base]
    return {"degree": degree,
            "terms": [{"word": [labels[i] for i in w],
                       "coeff": f"{n}/{d}" if d != 1 else str(n)}
                      for w, (n, d) in terms]}


# -- verify_exhaustive --------------------------------------------------------

VERIFY_CONTEXTS = ("ind_q3", "ones_q2", "ind_c4")


def verify_jobs(seed):
    """(name, kind, call) triples; call(ht, ctxs) returns the output."""
    return [
        ("axioms.ind_q3.6", "report", lambda ht, c: ht.verify_axioms(
            c["ind_q3"], 6, seed=seed, spot_checks=16)),
        ("axioms.ones_q2.5", "report", lambda ht, c: ht.verify_axioms(
            c["ones_q2"], 5, seed=seed + 1, spot_checks=16)),
        ("axioms.ind_c4.4", "report", lambda ht, c: ht.verify_axioms(
            c["ind_c4"], 4, seed=seed + 2, spot_checks=8)),
        ("antipode_equiv.ind_q3.5", "report",
         lambda ht, c: ht.verify_antipode_equivalence(c["ind_q3"], 5)),
        ("antipode_equiv.ind_c4.4", "report",
         lambda ht, c: ht.verify_antipode_equivalence(c["ind_c4"], 4)),
        ("characters.ind_q3.4", "report",
         lambda ht, c: ht.verify_characters(c["ind_q3"], 4)),
        ("characters.ind_c4.3", "report",
         lambda ht, c: ht.verify_characters(c["ind_c4"], 3)),
        ("nsym_rules.ind_q3.6", "report",
         lambda ht, c: ht.verify_nsym_rules(c["ind_q3"], 6)),
        ("product_constants.ind_q3.h_basis.6", "constants",
         lambda ht, c: ht.product_constants(c["ind_q3"], "h_basis", 6)),
        ("coproduct_constants.ind_q3.ribbon.5", "constants",
         lambda ht, c: ht.coproduct_constants(c["ind_q3"], "ribbon", 5)),
        ("corollaries.ind_q3.5", "report",
         lambda ht, c: ht.antipode_corollaries(c["ind_q3"], 5)),
        ("corollaries.ones_q2.5", "report",
         lambda ht, c: ht.antipode_corollaries(c["ones_q2"], 5)),
    ]


# -- dense_compute ------------------------------------------------------------

# (name, operation, context, input names); every job gets its own context
DENSE_JOBS = (
    ("coproduct.ind_q3.dense8", "coproduct", "ind_q3", ("d8",)),
    ("coproduct.ind_q3.sparse9", "coproduct", "ind_q3", ("s9",)),
    ("coproduct.ind_c4.dense5", "coproduct", "ind_c4", ("c5",)),
    ("coproduct.ind_c4.sparse6", "coproduct", "ind_c4", ("cs6",)),
    ("closed.ind_q3.dense8", "closed", "ind_q3", ("d8",)),
    ("closed.ind_q3.sparse9", "closed", "ind_q3", ("s9b",)),
    ("closed.ind_c4.sparse6", "closed", "ind_c4", ("cs6",)),
    ("oracle.ind_q3.dense7", "oracle", "ind_q3", ("d7",)),
    ("oracle.ind_c4.dense5", "oracle", "ind_c4", ("c5",)),
    ("product.ind_q3.dense4x5", "product", "ind_q3", ("d4", "d5")),
    ("product.ind_c4.dense3x4", "product", "ind_c4", ("c3", "c4")),
    ("square_product.ind_q3.dense3x4", "square_product", "ind_q3",
     ("d3", "d4")),
)


def dense_inputs(seed):
    rng = random.Random(seed)
    return {
        "d3": dense(rng, "twodim", 3), "d4": dense(rng, "twodim", 4),
        "d5": dense(rng, "twodim", 5), "d7": dense(rng, "twodim", 7),
        "d8": dense(rng, "twodim", 8),
        "s9": sparse(rng, "twodim", 9, 48),
        "s9b": sparse(rng, "twodim", 9, 24),
        "c3": dense(rng, "cyclic4", 3), "c4": dense(rng, "cyclic4", 4),
        "c5": dense(rng, "cyclic4", 5),
        "cs6": sparse(rng, "cyclic4", 6, 40),
    }


# -- cli_json -----------------------------------------------------------------

IND = ["--q", "3", "--iota", "reg", "--beta", "beta_star"]
C4 = ["--base", "cyclic4"]


def cli_inputs(seed):
    rng = random.Random(seed)
    return {
        "x3": (dense(rng, "twodim", 3), "twodim"),
        "y4": (dense(rng, "twodim", 4), "twodim"),
        "x6": (dense(rng, "twodim", 6), "twodim"),
        "x5": (dense(rng, "twodim", 5), "twodim"),
        "s3": (sparse(rng, "twodim", 3, 3), "twodim"),
        "c3": (dense(rng, "cyclic4", 3), "cyclic4"),
        "c3b": (sparse(rng, "cyclic4", 3, 4), "cyclic4"),
        "c4": (dense(rng, "cyclic4", 4), "cyclic4"),
    }


def write_cli_inputs(seed, directory):
    """Write the element files the CLI reads; returns {name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, (plain, base) in cli_inputs(seed).items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(to_json(plain, base), fh)
        paths[name] = path
    return paths


def cli_jobs(seed, paths):
    """(name, argv, expected exit code) for one pass over the CLI."""
    at = {k: "@" + v for k, v in paths.items()}
    return [
        ("multiply.ind_q3", ["compute", "multiply", *IND,
                             "--x", at["x3"], "--y", at["y4"]], 0),
        ("coproduct.ind_q3", ["compute", "coproduct", *IND,
                              "--x", at["x6"]], 0),
        ("antipode.ind_q3", ["compute", "antipode", *IND,
                             "--x", at["x5"]], 0),
        ("antipode_cross.ind_q3", ["compute", "antipode", *IND,
                                   "--cross-check", "--x", at["s3"]], 0),
        ("multiply.c4", ["compute", "multiply", *C4, "--iota", "reg",
                         "--x", at["c3"], "--y", at["c3b"]], 0),
        ("antipode.c4", ["compute", "antipode", *C4, "--x", at["c4"]], 0),
        ("characters_check", ["characters", "check", *IND, "--psi", "one",
                              "--max-degree", "4"], 0),
        ("characters_convolve", ["characters", "convolve", *IND,
                                 "--psi", "one", "--gamma", "beta_star",
                                 "--max-degree", "4"], 0),
        ("characters_invert", ["characters", "invert", *IND,
                               "--psi", "beta_star", "--max-degree", "4"], 0),
        ("enumerate_compositions", ["enumerate", "compositions",
                                    "--n", "6"], 0),
        ("enumerate_toggle_free", ["enumerate", "toggle_free", "--n", "5"], 0),
        ("enumerate_descent_class", ["enumerate", "descent_class",
                                     "--mu", "2,1,2"], 0),
        ("verify_axioms", ["verify", "--suite", "axioms", *IND,
                           "--max-degree", "4", "--seed", str(seed)], 0),
        ("verify_all", ["verify", "--suite", "all", *IND,
                        "--max-degree", "3"], 0),
        ("verify_antipode_equiv.c4", ["verify", "--suite", "antipode_equiv",
                                      *C4, "--max-degree", "3"], 0),
        ("bad_json", ["compute", "antipode", *IND,
                      "--x", '{"degree": 2, "terms": ['], 2),
        ("invalid_triple", ["compute", "antipode", "--alpha", "2*one",
                            "--x", at["s3"]], 3),
    ]
