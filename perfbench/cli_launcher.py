"""Traced CLI request: installs the tracer's wrappers, then calls
``hopftower.cli.main(argv)`` and exits with its code.

    python perfbench/cli_launcher.py OUT_BASE OP_ID ARGV...

Writes the span aggregates and start-up times to ``OUT_BASE.json`` and
the spans to ``OUT_BASE.spans``.  ``run.py`` starts it with
``PYTHONPATH=src``, as it does ``python -m hopftower.cli``.
"""

import time

T_FIRST = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main():
    out_base, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    spawned = os.environ.get("PERFBENCH_SPAWN")
    t0 = time.perf_counter()
    from hopftower import cli
    t1 = time.perf_counter()
    rec = tracer.Recorder()
    tracer.install(rec)
    rec.op = op
    rec.enabled = True
    t2 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        t3 = time.perf_counter()
        rec.enabled = False
        sys.stdout.flush()
        summary = rec.summary()
        summary.update(
            interp_ms=(T_FIRST - float(spawned)) * 1000 if spawned else None,
            import_ms=(t1 - t0) * 1000, main_ms=(t3 - t2) * 1000)
        with open(out_base + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        rec.dump(out_base + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
