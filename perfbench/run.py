"""hopftower benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload verify_exhaustive --seed 1 \\
        --seconds 20 --trace 0

Every pass of a workload's fixed job list runs in a fresh interpreter
(``worker.py``; for ``cli_json``, one ``python -m hopftower.cli`` process
per request), closed loop, one client at a time, until ``--seconds`` have
passed.  Every output is checked: against the digests of the first pass,
against ``golden.json`` for the committed seeds, and by a second route
(see ``worker.check_outputs`` and ``worker._check_cli``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones, from one traced pass next to one untraced pass and one cProfile
pass.  The line before it holds provenance and sample counts; the run's
raw data and spans are written under ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import cli_digest, cli_input_dir  # noqa: E402

OUT = ".perfbench_out"
WORKLOADS = ("verify_exhaustive", "dense_compute", "cli_json")
MIN_PASSES = 3          # passes of a worker workload per run, at least
MIN_SETUPS = 15         # set-up samples per run, at least
MIN_CLI_SAMPLES = 110   # so that at least 10 lie beyond the 90th percentile
CHILD_TIMEOUT = 120.0
RUN_LIMIT = 165.0       # seconds; a run must end within 180
DEADLINE = float("inf")  # set by main(): children are killed past it
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run

CLI_NOTE = ("the CLI runs as sys.executable -m hopftower.cli with "
            "PYTHONPATH=src, because the hopftower console script is not "
            "installed")

class Failed(Exception):
    """The benchmark itself cannot run here."""


# -- child processes ----------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


ENV = _env()


def spawn(argv, tag):
    """Run one child to completion; returns (exit code, stdout bytes,
    stderr text, seconds from spawn to exit, peak RSS in KiB).

    The child's peak RSS comes from wait4, so it is the child's own and
    not that of the largest child so far.
    """
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{tag}.out")
    err_path = os.path.join(OUT, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        env = dict(ENV, PERFBENCH_SPAWN=repr(start))
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(
            min(CHILD_TIMEOUT, max(0.5, DEADLINE - start)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, elapsed, usage.ru_maxrss


def run_worker(workload, seed, mode, spans=None):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        argv += ["--spans", spans]
    code, stdout, stderr, _, _ = spawn(argv, "worker")
    lines = stdout.decode().splitlines()
    if code != 0 or not lines:
        return {"crashed": f"exit {code}: {stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def setup_probe(workload, seed):
    result = run_worker(workload, seed, "setup")
    if "crashed" in result:
        raise Failed(f"set-up crashed: {result['crashed']}")
    return result["setup_s"]


# -- correctness --------------------------------------------------------------

def load_golden():
    path = os.path.join(HERE, "golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(golden, workload, seed):
    return golden["digests"].get(workload, {}).get(str(seed))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def tally_pass(tally, names, result, expected):
    """Count one worker pass: each job fails on an exception, a missing
    output or a digest that differs from ``expected``."""
    if "crashed" in result:
        for name in names:
            tally.add(False, f"{name}: worker {result['crashed']}")
        return
    for name in names:
        if name in result["errors"]:
            tally.add(False, f"{name}: raised {result['errors'][name]}")
        elif name not in result["digests"]:
            tally.add(False, f"{name}: no output")
        else:
            want = expected.get(name)
            tally.add(result["digests"][name] == want,
                      f"{name}: output differs from the expected digest")


def golden_pass(workload, golden, tally):
    """Check the development seed's outputs against golden.json.

    Every run does this, whatever its seed, so that each run is anchored
    to the outputs taken when the benchmark was defined.  Returns the
    crash message if the pass could not run.
    """
    seed = workloads.DEV_SEED
    mode = "check" if workload == "cli_json" else "time"
    result = run_worker(workload, seed, mode)
    if "crashed" in result:
        return result["crashed"]
    if workload == "cli_json":
        result = {"errors": {}, "digests": {
            k: v["digest"] for k, v in result["reference"].items()}}
    expected = golden_for(golden, workload, seed)
    tally_pass(tally, sorted(expected), result, expected)
    return None


def tally_checks(tally, checks):
    """Count the second-route checks: {job: True or a reason}."""
    for name, verdict in checks.items():
        tally.add(verdict is True, f"{name}: {verdict}")


# -- metrics ------------------------------------------------------------------

def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wall, work, latencies, setups, rss_kib):
    """The end-to-end metrics from per-pass and per-request samples."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall),
        "work_per_s": statistics.median(w / t for w, t in zip(work, wall)),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": p90(latencies) * 1000,
        "peak_rss_mib": statistics.median(rss_kib) / 1024,
    }


def layer_metrics(names, summary, extra):
    """Per-layer metrics from merged span aggregates, plus ``extra``."""
    out = {}
    for metric in names:
        span, field = metric.rsplit(".", 1)
        if metric in extra:
            value = extra[metric]
        elif metric in tracer.GROUPS:
            value = summary["groups"].get(metric, 0.0)
        elif field == "reuse_ratio":
            distinct = summary["distinct"].get(span, 0)
            calls = summary["calls"].get(span, 0)
            value = calls / distinct if distinct else 0.0
        elif span == "verify" and field == "self_s":
            value = sum((v for k, v in summary["self_s"].items()
                         if k.startswith("verify.")), 0.0)
        elif field == "self_s":
            value = summary["self_s"].get(span, 0.0)
        elif field in ("calls", "items"):
            value = summary[field].get(span, 0)
        elif field == "distinct_inputs":
            value = summary["distinct"].get(span, 0)
        else:
            value = summary["counts"].get(metric, 0)
        out[metric] = value
    return out


def write_summary(spans_dir, summary):
    """Keep every span's calls, self time, errors and counts next to the
    spans, beyond the metrics the result line reports."""
    with open(os.path.join(spans_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def merge(summaries):
    """Sum span aggregates of several processes."""
    total = {"spans": 0, "calls": {}, "self_s": {}, "errors": {}, "items": {},
             "counts": {}, "distinct": {}, "groups": {}}
    for s in summaries:
        total["spans"] += s["spans"]
        for key in ("calls", "self_s", "errors", "items", "counts",
                    "distinct", "groups"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
    return total


# -- worker workloads ---------------------------------------------------------

def job_names(workload, seed):
    if workload == "verify_exhaustive":
        return [name for name, _, _ in workloads.verify_jobs(seed)]
    return [name for name, _, _, _ in workloads.DENSE_JOBS]


def bench_worker(workload, seed, seconds, golden, tally):
    """Timed passes in fresh workers until ``seconds`` have passed."""
    names = job_names(workload, seed)
    passes = []
    deadline = time.monotonic() + seconds
    setups = []
    while ((len(passes) < MIN_PASSES or time.monotonic() < deadline)
           and time.monotonic() < DEADLINE):
        mode = "check" if not passes else "time"
        passes.append(run_worker(workload, seed, mode))
        # set-up samples spread over the run, like the passes
        setups.append(setup_probe(workload, seed))
    good = [r for r in passes if "crashed" not in r]
    if len(good) < 2:
        raise Failed(f"fewer than two passes completed: {passes[-1]}")
    expected = golden_for(golden, workload, seed) or good[0]["digests"]
    for result in passes:
        tally_pass(tally, names, result, expected)
    tally_checks(tally, passes[0].get("checks", {}))
    setups += [r["setup_s"] for r in good]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe(workload, seed))
    metrics = end_to_end([r["wall_s"] for r in good],
                         [r["work"] for r in good],
                         [r["request_s"] for r in good],
                         setups, [r["peak_rss_kib"] for r in good])
    # one pass is one request here; "jobs" counts the job outputs checked
    samples = {"passes": len(good), "requests": len(good),
               "jobs": len(good) * len(names), "setups": len(setups),
               "speed_scale_median": statistics.median(
                   r["speed_scale"] for r in good),
               "raw_wall_s": statistics.median(r["raw_wall_s"] for r in good)}
    return metrics, samples


def trace_worker(workload, seed, metric_names, golden, tally, spans_dir):
    names = job_names(workload, seed)
    plain = run_worker(workload, seed, "check")
    if "crashed" in plain:
        raise Failed(f"untraced pass crashed: {plain['crashed']}")
    traced = run_worker(workload, seed, "trace",
                        spans=os.path.join(spans_dir, "worker.spans"))
    profiled = run_worker(workload, seed, "profile")
    expected = golden_for(golden, workload, seed) or plain["digests"]
    for result in (plain, traced, profiled):
        tally_pass(tally, names, result, expected)
    tally_checks(tally, plain.get("checks", {}))
    if "crashed" in traced or "crashed" in profiled:
        raise Failed("traced or profiled pass crashed")
    summary = traced["trace"]
    write_summary(spans_dir, summary)
    extra = {
        "verify.checks": traced["work"] if workload == "verify_exhaustive"
        else 0,
        "serialize.bytes_in": 0, "serialize.bytes_out": 0,
        "cli.interp_ms": traced["interp_ms"],
        "cli.import_ms": traced["import_s"] * 1000,
        "cli.main_ms": traced["raw_wall_s"] * 1000,
        "fractions.calls": profiled["fractions.calls"],
        "fractions.self_share": profiled["fractions.self_share"],
        "trace.overhead_s": traced["raw_wall_s"] - plain["raw_wall_s"],
        "trace.spans": summary["spans"],
        "trace.errors": sum(summary["errors"].values()),
    }
    return (layer_metrics(metric_names, summary, extra),
            {"spans": summary["spans"]})


# -- cli_json -----------------------------------------------------------------

def cli_reference(seed, golden, tally):
    """Expected digest per request (golden for committed seeds), after
    checking the in-process answers by their second routes."""
    ref = run_worker("cli_json", seed, "check")
    if "crashed" in ref:
        raise Failed(f"reference pass crashed: {ref['crashed']}")
    tally_checks(tally, {k: v["check"] for k, v in ref["reference"].items()})
    expected = {k: v["digest"] for k, v in ref["reference"].items()}
    return golden_for(golden, "cli_json", seed) or expected


def process_probe():
    """Spawn-to-exit seconds of speed.PROCESS_ARGV, spawned as requests
    are."""
    code, _, stderr, elapsed, _ = spawn(list(speed.PROCESS_ARGV), "probe")
    if code != 0:
        raise Failed(f"probe process exited {code}: {stderr[-300:]}")
    return elapsed


def cli_pass(jobs, expected, tally, traced=None, probes=None):
    """One pass over the CLI requests; returns per-request samples.

    With a list ``probes``, a probe process runs before each request and
    its time is added to the list.
    """
    samples = []
    for i, (name, argv, _) in enumerate(jobs):
        if probes is not None:
            probes.append(process_probe())
        if traced is None:
            cmd = [sys.executable, "-m", "hopftower.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"),
                   os.path.join(traced, f"{i:02d}-{name}"), str(i), *argv]
        code, stdout, stderr, elapsed, rss = spawn(cmd, "cli")
        tally.add(cli_digest(stdout, code) == expected.get(name),
                  f"{name}: exit {code} or output differs; {stderr[-300:]}")
        samples.append({"latency": elapsed, "rss": rss, "stdout": stdout})
    return samples


def _bytes_in(argv):
    total = 0
    for arg in argv:
        if arg.startswith("@"):
            total += os.path.getsize(arg[1:])
        elif arg.startswith("{"):
            total += len(arg.encode())
    return total


def bench_cli(seed, seconds, golden, tally):
    expected = cli_reference(seed, golden, tally)
    jobs = workloads.cli_jobs(
        seed, workloads.write_cli_inputs(seed, cli_input_dir(seed)))
    passes, scales, setups = [], [], []
    deadline = time.monotonic() + seconds
    while ((time.monotonic() < deadline
            or sum(len(p) for p in passes) < MIN_CLI_SAMPLES)
           and time.monotonic() < DEADLINE):
        probes = []
        passes.append(cli_pass(jobs, expected, tally, probes=probes))
        scales.append(speed.process_scale(probes))
        # set-up samples spread over the run, like the requests
        setups += [setup_probe("cli_json", seed) for _ in range(2)]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe("cli_json", seed))
    # latencies at the reference speed, by the probes of their own pass
    latencies = [[s["latency"] * k for s in p]
                 for p, k in zip(passes, scales)]
    metrics = end_to_end(
        [sum(p) for p in latencies], [len(p) for p in passes],
        [t for p in latencies for t in p],
        setups, [max(s["rss"] for s in p) for p in passes])
    samples = {"passes": len(passes),
               "requests": sum(len(p) for p in passes),
               "setups": len(setups),
               "speed_scale_median": statistics.median(scales),
               "raw_op_p50_ms": statistics.median(
                   s["latency"] for p in passes for s in p) * 1000}
    return metrics, samples


def trace_cli(seed, metric_names, golden, tally, spans_dir):
    expected = cli_reference(seed, golden, tally)
    jobs = workloads.cli_jobs(
        seed, workloads.write_cli_inputs(seed, cli_input_dir(seed)))
    plain = cli_pass(jobs, expected, tally)
    traced = cli_pass(jobs, expected, tally, traced=spans_dir)
    profiled = run_worker("cli_json", seed, "profile")
    if "crashed" in profiled:
        raise Failed(f"profiled pass crashed: {profiled['crashed']}")
    children = []
    for i, (name, _, _) in enumerate(jobs):
        with open(os.path.join(spans_dir, f"{i:02d}-{name}.json"),
                  encoding="utf-8") as fh:
            children.append(json.load(fh))
    summary = merge(children)
    write_summary(spans_dir, summary)
    checks = 0
    for (_, argv, _), sample in zip(jobs, plain):
        if argv[0] == "verify" and sample["stdout"]:
            checks += _sum_checked(json.loads(sample["stdout"]))
    extra = {
        "verify.checks": checks,
        "serialize.bytes_in": sum(_bytes_in(argv) for _, argv, _ in jobs),
        "serialize.bytes_out": sum(len(s["stdout"]) for s in plain),
        "cli.interp_ms": statistics.median(c["interp_ms"] for c in children),
        "cli.import_ms": statistics.median(c["import_ms"] for c in children),
        "cli.main_ms": statistics.median(c["main_ms"] for c in children),
        "fractions.calls": profiled["fractions.calls"],
        "fractions.self_share": profiled["fractions.self_share"],
        "trace.overhead_s": (sum(s["latency"] for s in traced)
                             - sum(s["latency"] for s in plain)),
        "trace.spans": summary["spans"],
        "trace.errors": sum(summary["errors"].values()),
    }
    return (layer_metrics(metric_names, summary, extra),
            {"spans": summary["spans"]})


def _sum_checked(report):
    if not isinstance(report, dict):
        return 0
    own = report["checked"] if isinstance(report.get("checked"), int) else 0
    return own + sum(_sum_checked(v) for v in report.values())


# -- provenance ---------------------------------------------------------------

def _git_commit():
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    root = os.path.join("src", "hopftower")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def provenance(spec, workload, seed):
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload)
    return {"git_commit": _git_commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(),
            "nproc": NPROC,
            "cpu": _cpu_model(), "seed": seed, "workload": workload,
            "why": why, "cli": CLI_NOTE}


# -- main ---------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT

    if not os.path.isfile(os.path.join("src", "hopftower", "__init__.py")):
        print("error: run from the root of a hopftower checkout "
              "(src/hopftower not found)", file=sys.stderr)
        return 2
    spec = load_spec()
    golden = load_golden()
    # one client on one CPU: the probes of speed.py then run where
    # the work they scale runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tally = Tally()
    # also compiles the package's bytecode before anything is timed
    crashed = golden_pass(args.workload, golden, tally)
    if crashed:
        print(f"error: hopftower does not run: {crashed}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    started = time.monotonic()
    try:
        if args.trace:
            spans_dir = os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}")
            os.makedirs(spans_dir, exist_ok=True)
            if args.workload == "cli_json":
                values, samples = trace_cli(args.seed, names, golden, tally,
                                            spans_dir)
            else:
                values, samples = trace_worker(args.workload, args.seed,
                                               names, golden, tally,
                                               spans_dir)
            samples["spans_dir"] = spans_dir
        elif args.workload == "cli_json":
            values, samples = bench_cli(args.seed, args.seconds, golden,
                                        tally)
        else:
            values, samples = bench_worker(args.workload, args.seed,
                                           args.seconds, golden, tally)
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    info = {"provenance": provenance(spec, args.workload, args.seed),
            "samples": samples, "elapsed_s": time.monotonic() - started,
            "error_rate": tally.failed / tally.attempted,
            "failures": tally.reasons}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}"
                                f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**info, **result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
