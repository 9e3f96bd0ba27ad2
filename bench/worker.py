"""Benchmark worker: one fresh interpreter running ops through
``isocompare.cli.main`` in-process.

    python3 bench/worker.py PLAN RESULT MODE SECONDS

MODE is ``probe`` (import and warm up, then stop: one set-up sample),
``run`` (then replay the op pool in whole passes for SECONDS) or ``trace``
(as ``run``, alternating untraced and traced passes).  The plan names the
checkout's ``src`` directory; nothing is imported from anywhere else.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time


def _load_cli(src: str):
    sys.path.insert(0, src)
    from isocompare import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"isocompare was not imported from {src}")
    return cli


def _run_op(main, argv):
    """Wall and CPU milliseconds, exit status (None if it raised) and the
    exception text or last stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            status, detail = main(argv), None
        except (Exception, SystemExit) as exc:
            status, detail = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if detail is None and status != 0:
        detail = err.getvalue().strip().splitlines()[-1:] or [""]
        detail = detail[0]
    return wall * 1e3, cpu * 1e3, status, detail


def _calibrate() -> float:
    """CPU milliseconds of a fixed piece of work shaped like the program's:
    QUADPACK calling back into Python, and small numpy arithmetic.  It
    uses no isocompare code, so its time tracks only the machine."""
    # imported here so that set-up still imports isocompare first
    import numpy as np
    from scipy.integrate import quad
    c0 = time.process_time()
    for k in range(1, 9):
        quad(lambda x: x ** 1.5 / math.sqrt(k + x), 0.0, 1.0)
    np.sin(np.linspace(0.0, 1.0, 2049)).cumsum()
    return (time.process_time() - c0) * 1e3


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _one_pass(main, ops, tracer=None):
    latencies, cpu, statuses, digests, cal = [], [], [], [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        cal.append(_calibrate())
        if tracer is None:
            ms, cpu_ms, status, detail = _run_op(main, op["argv"])
        else:
            with tracer.op_span(index):
                ms, cpu_ms, status, detail = _run_op(main, op["argv"])
        latencies.append(ms)
        cpu.append(cpu_ms)
        statuses.append([status, detail])
        digests.append(_digest(op["out"]) if status == 0 else None)
    cal.append(_calibrate())
    wall = time.perf_counter() - start
    return {"wall_s": wall, "latency_ms": latencies, "cpu_ms": cpu,
            "status": statuses, "digest": digests, "cal_ms": cal}


def main() -> None:
    plan_path, result_path, mode, seconds = sys.argv[1:5]
    seconds = float(seconds)
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = _load_cli(plan["src"])
    warmup = [_run_op(cli.main, argv)[2:] for argv in plan["warmup"]]
    result = {"t_ready": time.monotonic(), "warmup": warmup}
    if mode != "probe":
        worker_count = getattr(cli, "_worker_count", None)
        try:
            result["pool_size"] = worker_count(1 << 20) if worker_count else 1
        except ValueError as exc:
            result["pool_size"] = f"invalid: {exc}"
        result["passes"] = _timed_passes(cli, plan, mode, seconds)
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _timed_passes(cli, plan, mode, seconds):
    ops = plan["ops"]
    if mode == "run":
        schedule = iter(lambda: False, None)
    else:
        import itertools
        import tracing
        tracer = tracing.Tracer(
            {name: mod for name, mod in sys.modules.items()
             if name == "isocompare" or name.startswith("isocompare.")})
        schedule = itertools.chain([False, True, True],
                                   itertools.cycle([False, True]))
    passes = []
    start = time.monotonic()
    for traced in schedule:
        if passes and time.monotonic() - start >= seconds \
                and (mode == "run" or len(passes) >= 3):
            break
        if not traced:
            passes.append(_one_pass(cli.main, ops))
            continue
        tracer.install()
        try:
            record = _one_pass(cli.main, ops, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        record["trace"] = tracing.summarize(spans)
        if "spans_path" in plan and not any(p.get("trace") for p in passes):
            tracing.dump(spans, plan["spans_path"])
        passes.append(record)
    return passes


if __name__ == "__main__":
    main()
