"""One pass of a workload's job list in a fresh interpreter.

``run.py`` starts this file once per repetition, so each pass pays for
the import, the set-up and empty caches (``HopfContext._antipode_cache``,
``nsym._INV_CACHE``) the way a command-line user does.  The last line of
standard output is one JSON object with the timings, a digest of every
job's canonical JSON output, and in ``check`` mode the results of the
independent checks of those outputs.

Times are reported at the reference speed of ``speed.py``: a timed pass
runs probe chunks on a timer, a set-up is followed by probe chunks, and
each time is scaled by the probe's speed.  ``raw_*`` keys hold the times
as measured.

Modes: ``time`` (timed pass), ``check`` (timed pass, then the checks),
``trace`` (pass with spans, see tracer.py), ``profile`` (pass under
cProfile, for the share of time spent in ``fractions``), ``setup``
(import and set-up only).
"""

import time

T_FIRST = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

SETUP_CHUNKS = 40       # probe chunks that scale one set-up sample


def _setup(workload, rec=None):
    """Import hopftower and build the contexts; returns (ht, ctxs, times)."""
    t0 = time.perf_counter()
    import hopftower as ht
    if workload == "cli_json":
        import hopftower.cli  # noqa: F401  (what a CLI invocation imports)
    t1 = time.perf_counter()
    if rec is not None:
        import tracer
        tracer.install(rec)
        rec.enabled = True
    t2 = time.perf_counter()
    if workload == "dense_compute":
        ctxs = [workloads.build_context(ht, ctx)
                for _, _, ctx, _ in workloads.DENSE_JOBS]
    elif workload == "verify_exhaustive":
        ctxs = {name: workloads.build_context(ht, name)
                for name in workloads.VERIFY_CONTEXTS}
    else:
        ctxs = {name: workloads.build_context(ht, name)
                for name in ("ind_q3", "ind_c4")}
    t3 = time.perf_counter()
    if rec is not None:
        rec.enabled = False
    return ht, ctxs, {"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}


def _dense_call(ht, op, ctx, args):
    if op == "coproduct":
        return lambda: ctx.coproduct(*args)
    if op == "closed":
        return lambda: ht.antipode_closed(ctx, *args)
    if op == "oracle":
        return lambda: ht.antipode_oracle(ctx, *args)
    if op == "product":
        return lambda: ctx.product(*args)
    return lambda: ctx.square_product(*args)


def _jobs(workload, seed, ht, ctxs):
    """(name, kind, call, (context, arguments) or None) for the timed
    pass; the arguments are built here, before timing starts."""
    if workload == "verify_exhaustive":
        return [(name, kind, (lambda call=call: call(ht, ctxs)), None)
                for name, kind, call in workloads.verify_jobs(seed)]
    plain = workloads.dense_inputs(seed)
    elements = {k: workloads.to_element(ht, v) for k, v in plain.items()}
    helper = workloads.build_context(ht, "ind_q3")
    jobs = []
    for (name, op, _, inputs), ctx in zip(workloads.DENSE_JOBS, ctxs):
        args = [elements[k] for k in inputs]
        if op == "square_product":
            args = [helper.coproduct(a) for a in args]
        kind = "square" if op in ("coproduct", "square_product") else "element"
        jobs.append((name, kind, _dense_call(ht, op, ctx, args), (ctx, args)))
    return jobs


def _pass(jobs, rec=None, sampler=None):
    """Run the jobs; returns (outputs, errors, wall seconds).  With a
    sampler, the wall time excludes the time its probe chunks took."""
    outputs, errors = {}, {}
    if rec is not None:
        rec.enabled = True
    start = time.perf_counter()
    if sampler is not None:
        sampler.start()
    for i, (name, _, call, _) in enumerate(jobs):
        if rec is not None:
            rec.op = i
        try:
            outputs[name] = call()
        except Exception as exc:  # a failed job is counted, not fatal
            errors[name] = repr(exc)
    if sampler is not None:
        sampler.stop()
    wall = time.perf_counter() - start
    if rec is not None:
        rec.enabled = False
    if sampler is not None:
        wall -= sampler.spent
    return outputs, errors, wall


def canonical(kind, out, ctx=None):
    """Canonical JSON text of one job output."""
    from hopftower import serialize
    if kind == "element":
        data = serialize.element_to_dict(out, ctx.basis)
    elif kind == "square":
        data = serialize.square_to_dict(out, ctx.basis)
    else:
        data = serialize.jsonable(out)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def work_count(kind, out):
    """Identity comparisons made (reports) or nonzero terms produced."""
    if kind == "report":
        return out["checked"]
    if kind in ("element", "square"):
        return len(out.terms)
    return 0


def _green(report):
    return (report["checked"] > 0 and report["passed"] == report["checked"]
            and report["first_failure"] is None)


def _reference_product(ht, ctx, x, y):
    # the product written out from its definition, as a second route
    out = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            for i, ci in enumerate(ctx.iota_coords):
                w = u + (i,) + v
                out[w] = out.get(w, 0) + cu * cv * ci
    return ht.TensorElement(x.degree + y.degree, out)


def _counit_ok(ht, x, square):
    left = ht.TensorElement(x.degree)
    right = ht.TensorElement(x.degree)
    for ((ld, lw), (rd, rw)), c in square.terms.items():
        if ld == 0:
            left += ht.TensorElement(x.degree, {rw: c})
        if rd == 0:
            right += ht.TensorElement(x.degree, {lw: c})
    return left == x and right == x


def check_outputs(workload, seed, ht, jobs, outputs):
    """Independent checks of each output: {job: True or a reason}."""
    results = {}
    if workload == "verify_exhaustive":
        q5 = workloads.build_context(ht, "ind_q5")
        for name, kind, _, _ in jobs:
            out = outputs.get(name)
            if out is None:
                continue
            results[name] = _checked(lambda: _check_verify(
                ht, q5, name, kind, out))
        return results
    plain = workloads.dense_inputs(seed)
    for (name, op, ctx_name, inputs), (_, _, _, (_, args)) in zip(
            workloads.DENSE_JOBS, jobs):
        out = outputs.get(name)
        if out is None:
            continue
        fresh = workloads.build_context(ht, ctx_name)
        if op == "square_product":
            args = [workloads.to_element(ht, plain[k]) for k in inputs]
        results[name] = _checked(lambda: _check_dense(
            ht, fresh, op, args, out))
    return results


def _checked(check):
    try:
        return check()
    except Exception as exc:  # a crashing check is a failed check
        return f"check raised {exc!r}"


def _check_verify(ht, q5, name, kind, out):
    if kind == "report":
        return _green(out) or "report not green"
    # the family's structure constants do not depend on q
    fn, _, family, degree = name.split(".")
    other = getattr(ht, fn)(q5, family, int(degree))
    return (bool(out) and other == out) or \
        "structure constants differ between q=3 and q=5"


def _check_dense(ht, ctx, op, args, out):
    if op == "closed":
        ok = ht.antipode_oracle(ctx, *args) == out
    elif op == "oracle":
        ok = ht.antipode_closed(ctx, *args) == out
    elif op == "product":
        ok = _reference_product(ht, ctx, *args) == out
    elif op == "coproduct":
        ok = _counit_ok(ht, args[0], out)
    else:
        # compatibility: square_product(Δx, Δy) == Δ(x·y)
        ok = ctx.coproduct(ctx.product(*args)) == out
    return ok or f"{op} disagrees with its second route"


def _fractions_share(prof):
    import pstats
    calls = 0
    share = total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in \
            pstats.Stats(prof).stats.items():
        total += tottime
        if filename.endswith("fractions.py"):
            calls += ncalls
            share += tottime
    return {"fractions.calls": calls,
            "fractions.self_share": share / total if total else 0.0}


def cli_input_dir(seed):
    return os.path.join(".perfbench_out", f"cli-inputs-{seed}")


def cli_digest(stdout, code):
    """Digest of one CLI request: its standard output bytes and exit code."""
    return f"{hashlib.sha256(stdout).hexdigest()}:{code}"


def _cli_inprocess(seed, prof=None):
    """Run the CLI pass through ``hopftower.cli.main`` in this process;
    yields (name, argv, expected code, code, stdout text)."""
    from hopftower import cli
    paths = workloads.write_cli_inputs(seed, cli_input_dir(seed))
    for name, argv, want in workloads.cli_jobs(seed, paths):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            if prof is not None:
                prof.enable()
            code = cli.main(argv)
            if prof is not None:
                prof.disable()
        yield name, argv, want, code, out.getvalue()


def _all_green(data):
    if isinstance(data, dict):
        if "checked" in data and not _green(data):
            return False
        return all(_all_green(v) for v in data.values())
    return True


def _inverse_descents(perm):
    where = {v: i for i, v in enumerate(perm)}
    return {v for v in range(1, len(perm)) if where[v + 1] < where[v]}


def _check_cli(ht, argv, want, code, text):
    """Second route for one CLI answer (the exit code is checked first)."""
    from hopftower import cli, serialize
    if code != want:
        return f"exit code {code}, expected {want}"
    if want:
        return text == "" or "error path wrote to standard output"
    data = json.loads(text)
    args = cli.build_parser().parse_args(argv)
    if args.command == "verify":
        return _all_green(data) or "report not green"
    if args.command == "enumerate":
        if args.what == "descent_class":
            mu = [int(p) for p in args.mu.split(",")]
            cuts = {sum(mu[:i]) for i in range(1, len(mu))}
            ok = bool(data) and all(
                _inverse_descents(t["perm"]) == cuts for t in data)
        else:
            count = 2 ** (args.n - 1) if args.what == "compositions" \
                else 3 ** (args.n - 1)
            ok = len(data) == count == len({json.dumps(d) for d in data})
        return ok or f"wrong {args.what} enumeration"
    basis, tag = cli._build_basis(args)
    ctx = cli._build_context(args, basis)
    if args.command == "characters":
        scalars, aliases = cli._names(args, basis)
        n = args.max_degree
        psi = ht.constant_character(ctx, serialize.parse_expression(
            args.psi, basis, scalars, aliases), n)
        if args.action == "check":
            return data == {"multiplicative": True} or "morphism check"
        got = serialize.character_from_dict(data, ctx)
        if args.action == "invert":
            ok = ht.convolve(psi, got) == ht.counit_character(ctx, n)
        else:
            gamma = ht.constant_character(ctx, serialize.parse_expression(
                args.gamma, basis, scalars, aliases), n)
            ok = ht.convolve(got, ht.inverse(gamma)) == psi
        return ok or f"characters {args.action} disagrees"
    x = cli._load_element(args.x, basis, tag)
    if args.action == "coproduct":
        got = serialize.square_from_dict(data, basis)
        return _counit_ok(ht, x, got) or "coproduct counit check"
    got = serialize.element_from_dict(data, basis)
    if args.action == "multiply":
        y = cli._load_element(args.y, basis, tag)
        want_el = _reference_product(ht, ctx, x, y)
    else:
        want_el = ht.antipode_oracle(ctx, x)
    return got == want_el or f"{args.action} disagrees with its second route"


def _cli_reference(ht, seed):
    """Expected digest of every CLI request, and the check of its answer."""
    out = {}
    for name, argv, want, code, text in _cli_inprocess(seed):
        out[name] = {"digest": cli_digest(text.encode(), code),
                     "check": _checked(lambda: _check_cli(
                         ht, argv, want, code, text))}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_exhaustive", "dense_compute",
                                 "cli_json"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="time",
                        choices=("time", "check", "trace", "profile",
                                 "setup"))
    parser.add_argument("--spans", help="trace mode: write spans here")
    args = parser.parse_args(argv)

    spawned = os.environ.get("PERFBENCH_SPAWN")
    result = {"interp_ms": ((T_FIRST - float(spawned)) * 1000
                            if spawned else None)}
    rec = None
    if args.mode == "trace":
        import tracer
        rec = tracer.Recorder()
    ht, ctxs, times = _setup(args.workload, rec)
    result.update(times)
    # imported after the set-up: it imports fractions, which the set-up
    # pays for
    import speed
    if args.mode == "setup":
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] *= speed.scale(speed.probe(SETUP_CHUNKS))
        print(json.dumps(result))
        return 0
    if args.workload == "cli_json":
        # the timed CLI requests run as processes of their own (run.py);
        # here they run in-process, for their reference answers or the
        # cProfile pass
        if args.mode == "profile":
            import cProfile
            prof = cProfile.Profile()
            for _ in _cli_inprocess(args.seed, prof):
                pass
            result.update(_fractions_share(prof))
        else:
            result["reference"] = _cli_reference(ht, args.seed)
        print(json.dumps(result))
        return 0

    jobs = _jobs(args.workload, args.seed, ht, ctxs)
    prof = None
    if args.mode == "profile":
        import cProfile
        prof = cProfile.Profile()
        prof.enable()
    sampler = speed.Sampler() if args.mode in ("time", "check") else None
    outputs, errors, wall = _pass(jobs, rec, sampler)
    if spawned:
        # one request, as its user sees it: from spawn to the results
        result["request_s"] = time.monotonic() - float(spawned)
        if sampler is not None:
            result["request_s"] -= sampler.spent
    if prof is not None:
        prof.disable()
        result.update(_fractions_share(prof))
    result["peak_rss_kib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss

    result.update(wall_s=wall, raw_wall_s=wall, errors=errors)
    if sampler is not None:
        # times at the reference speed of speed.py
        factor = sampler.scale()
        result.update(raw_setup_s=result["setup_s"], speed_scale=factor,
                      probe_chunks=len(sampler.durations))
        for key in ("wall_s", "setup_s", "request_s"):
            if key in result:
                result[key] *= factor
    result["digests"] = {
        name: digest(canonical(kind, outputs[name], extra and extra[0]))
        for name, kind, _, extra in jobs if name in outputs}
    result["work"] = sum(work_count(kind, outputs[name])
                         for name, kind, _, _ in jobs if name in outputs)
    if args.mode == "check":
        result["checks"] = check_outputs(args.workload, args.seed, ht,
                                         jobs, outputs)
    if rec is not None:
        result["trace"] = rec.summary()
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
