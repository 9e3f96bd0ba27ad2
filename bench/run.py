"""iso-compare benchmark: one closed-loop client, in-process CLI ops.

    python3 bench/run.py --workload alpha-sweep|alpha-point|model-scan \
        --seed N --seconds S --trace 0|1 [--domain bench|full]

Run from the root of a checkout; the program is imported from its ``src``.
The seed generates a pool of ops (see workloads.py), which a fresh worker
interpreter replays through ``isocompare.cli.main`` in whole passes for S
seconds.  Every distinct op's output is then checked against references
that do not use isocompare (checks.py).

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh interpreters), throughput, op latency quantiles, failures and
peak memory.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics (tracing.py) and the tracing overhead.  The
last line of standard output is the JSON result; the lines before it are
the same figures for a reader.  Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 4          # extra fresh interpreters timed for set-up
IMPORTTIME_PROBES = 3
ALPHA_REF_SAMPLES = 3     # alpha values checked against the mpmath maximum
SUBPROCESS_TIMEOUT = 150
# Calibration time at the reference speed: the typical median of
# worker._calibrate on the 2-vCPU Xeon VM the benchmark was built on, so
# scaled op times read as CPU milliseconds there.
CAL_REF_MS = 0.68

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("football.alpha_result.calls", "count/op"),
    ("football.alpha_result.self_ms", "ms/op"),
    ("football.alpha_oracle.calls", "count/op"),
    ("football.alpha_oracle.self_ms", "ms/op"),
    ("football.alpha_as_written.self_ms", "ms/op"),
    ("football.minimize_scalar.calls", "count/op"),
    ("football.minimize_scalar.self_ms", "ms/op"),
    ("football.half_volume_evals", "count/op"),
    ("football.half_volume_per_alpha", "ratio"),
    ("football.epsilon0.calls", "count/op"),
    ("football.epsilon0.self_ms", "ms/op"),
    ("football.epsilon0.alpha_evals", "count/call"),
    ("cli.render.self_ms", "ms/op"),
    ("cli.render.out_bytes", "bytes/op"),
    ("cli.pool.parallelism", "ratio"),
    ("cli.run.self_ms", "ms/op"),
    ("config.validate.self_ms", "ms/op"),
] + [
    (f"{module}.quad.{what}", unit)
    for module in ("warped", "gmt", "quadrature")
    for what, unit in (("calls", "count/op"), ("evals", "count/op"),
                       ("self_ms", "ms/op"), ("max_err_est", "abs"),
                       ("warnings", "count/op"))
] + [
    ("quadrature.errors", "count/op"),
    ("warped.candidate_profile.calls", "count/op"),
    ("warped.candidate_profile.self_ms", "ms/op"),
    ("warped.slice_at.calls", "count/op"),
    ("warped.slice_at.self_ms", "ms/op"),
    ("warped.slice_at.distinct_frac", "ratio"),
    ("warped.total_volume.self_ms", "ms/op"),
    ("warped.curvature_bounds.self_ms", "ms/op"),
    ("variation.variation_report.self_ms", "ms/op"),
    ("variation.check.calls", "count/op"),
    ("variation.check.self_ms", "ms/op"),
    ("variation.convergence_order.calls", "count/op"),
    ("variation.convergence_order.self_ms", "ms/op"),
    ("phase_plane.phase_curve.self_ms", "ms/op"),
    ("phase_plane.ricci_mass.self_ms", "ms/op"),
    ("phase_plane.volume_from_path.calls", "count/op"),
    ("phase_plane.volume_from_path.self_ms", "ms/op"),
    ("gmt.monotonicity_profile.self_ms", "ms/op"),
    ("gmt.area_ratio_constant.self_ms", "ms/op"),
    ("gmt.cutoff_budget.self_ms", "ms/op"),
    ("setup.import_scipy_ms", "ms"),
    ("setup.import_isocompare_self_ms", "ms"),
    ("football.alpha.max_abs_err", "abs"),
    ("football.epsilon0.ref_gap", "abs"),
    ("warped.volume.max_rel_err", "rel"),
    ("phase_plane.bishop.max_rel_err", "rel"),
    ("variation.order_min", "order"),
    ("trace.overhead_frac", "ratio"),
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--domain", choices=("bench", "full"), default="bench",
                        help="full: the input ranges that include the known "
                             "failures (see workloads.py)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# preparing and running workers


def _write_plan(work: Path, workload: str, ops: list) -> Path:
    def argv(op, name):
        cfg = work / f"{name}.cfg"
        cfg.write_text(op.config_text(), encoding="utf-8")
        return [op.command, "--config", str(cfg),
                "--out", str(work / f"{name}.out")] + op.flags

    plan = {
        "src": str(SRC),
        "warmup": [argv(op, f"warmup{i}")
                   for i, op in enumerate(workloads.WARMUP[workload])],
        "ops": [{"argv": argv(op, f"op{i}"), "out": str(work / f"op{i}.out")}
                for i, op in enumerate(ops)],
        "spans_path": str(work / "spans.jsonl"),
    }
    path = work / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def _run_worker(plan: Path, work: Path, mode: str, seconds: float, tag: str):
    """Start a fresh interpreter; returns its result and its wall-clock
    set-up time (from just before the start to its first timed op)."""
    result_path = work / f"result-{tag}.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(plan), str(result_path), mode,
         repr(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, result["t_ready"] - started


def _import_times() -> dict:
    """Self import time of scipy and of isocompare, in ms, from
    ``python -X importtime`` (median of a few fresh interpreters)."""
    samples = {"scipy": [], "isocompare": []}
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import isocompare.cli"
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=ROOT, stderr=subprocess.PIPE, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-2000:]}")
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            name = parts[2].strip()
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue                      # the header line
            top = name.split(".")[0]
            if top in totals:
                totals[top] += self_us / 1e3
        for key in samples:
            samples[key].append(totals[key])
    return {key: statistics.median(v) for key, v in samples.items()}


def _machine(pool_size) -> dict:
    import importlib.metadata as md

    def command(*argv):
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    def cache(level):
        value = command("getconf", f"LEVEL{level}_CACHE_SIZE")
        return int(value) if value and value.isdigit() else None

    return {
        "nproc": command("nproc"),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **{name: md.version(name) for name in ("numpy", "scipy", "mpmath")},
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "ISO_COMPARE_THREADS": os.environ.get("ISO_COMPARE_THREADS"),
        "football_alpha_pool_size": pool_size,
    }


# ---------------------------------------------------------------------------
# outcomes and checks


def _alpha_samples(ops, seed) -> dict:
    """{op index: {row: mpmath alpha}} for a seeded sample of grid points."""
    if not ops or ops[0].command != "football-alpha":
        return {}
    rng = random.Random(f"alpha-reference-{seed}")
    samples = {}
    for i in rng.sample(range(len(ops)), min(ALPHA_REF_SAMPLES, len(ops))):
        meta = ops[i].meta
        row = rng.randrange(meta["n"])
        eps = checks.linspace(meta["lo"], meta["hi"], meta["n"])[row]
        samples[i] = {row: checks.alpha_reference(eps)}
    return samples


def _outcomes(ops, passes, work: Path, seed):
    """Per op: failure text or None; plus the error figures of all ops."""
    samples = _alpha_samples(ops, seed)
    failures, errors = [], {}
    for i, op in enumerate(ops):
        statuses = {tuple(p["status"][i]) for p in passes}
        digests = {p["digest"][i] for p in passes}
        status, detail = passes[0]["status"][i]
        if len(statuses) > 1 or len(digests) > 1:
            failure = "output differs between passes (traced and untraced)"
        elif status != 0:
            failure = f"exit {status}: {detail} ({op.describe()})"
        else:
            text = (work / f"op{i}.out").read_text(encoding="utf-8")
            failure, figures = checks.check(op, text, samples.get(i))
            for key, value in figures.items():
                pick = min if key == "order_min" else max
                errors[key] = pick(errors.get(key, value), value)
        failures.append(failure)
    return failures, errors


def _failure_summary(ops, failures) -> list[str]:
    """Counts by kind plus the first example of each."""
    kinds = {}
    for op, failure in zip(ops, failures):
        if failure:
            kind = f"{op.command}: {failure.split(' (')[0]}"
            kinds.setdefault(kind, [0, failure])[0] += 1
    return [f"{count} x {kind} -- first: {example[len(kind.split(': ', 1)[1]):].strip()}"
            for kind, (count, example) in sorted(kinds.items())]


# ---------------------------------------------------------------------------
# metrics


def _typical(passes, key: str) -> list[float]:
    """Each op's median over the passes."""
    return [statistics.median(p[key][i] for p in passes)
            for i in range(len(passes[0][key]))]


def _end_to_end(result, setup_wall: list[float]) -> tuple[dict, dict]:
    """Metrics, and the raw op figures for the reader.

    Set-up is wall time, as a CLI user pays it; its CPU time is higher,
    because numpy's BLAS threads spin while it loads.  Op times are the CPU
    time of the worker process (all its threads), scaled to the reference
    machine speed (see _scaled), and each op counts once, with its median
    over the passes.  For this program CPU time equals wall time on an idle
    machine: one client runs CPU-bound Python, and the GIL serialises the
    football-alpha pool."""
    passes = result["passes"]
    scaled = _typical(_scaled(passes), "cpu_ms")
    cpu = _typical(passes, "cpu_ms")
    wall = _typical(passes, "latency_ms")
    return {
        "setup_s": statistics.median(setup_wall),
        "ops_per_s": len(scaled) / (sum(scaled) / 1e3),
        "op_p50_ms": statistics.median(scaled),
        "op_p90_ms": statistics.quantiles(scaled, n=10)[8],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }, {"cpu op p50 ms": statistics.median(cpu),
        "cpu op p90 ms": statistics.quantiles(cpu, n=10)[8],
        "wall op p50 ms": statistics.median(wall),
        "wall op p90 ms": statistics.quantiles(wall, n=10)[8],
        "calibration ms": statistics.median(
            statistics.median(p["cal_ms"]) for p in passes)}


def _scaled(passes) -> list[dict]:
    """Passes with each op's CPU time scaled to the reference speed: times
    CAL_REF_MS over the mean of the calibrations timed just before and just
    after the op.

    On the shared 2-vCPU VM the benchmark was built on, the host's speed
    moves by up to 1.8x from one ten-second window to the next, and at
    times holds a fast or a slow level for minutes, so whole runs read fast
    or slow.  The calibration is fixed work shaped like the program's
    (worker._calibrate), so it slows with the host and not with the
    program.  In a 150 s test, the variation of 10 s medians fell from 0.17
    to 0.02-0.03 (coefficient of variation) for candidate_profile and
    alpha_result; over six seeds of an earlier version that scaled by the
    pass's median calibration, the run-to-run spread of alpha-point's
    op_p50_ms fell from 0.12 to 0.02.  Of the statistics tried before
    (all-sample quantiles; per-op minimum, lower quartile and median;
    median pass throughput; each on wall and on CPU time), per-op medians
    of CPU time varied least."""
    out = []
    for p in passes:
        cal = p["cal_ms"]
        out.append({"cpu_ms": [ms * 2.0 * CAL_REF_MS / (cal[i] + cal[i + 1])
                               for i, ms in enumerate(p["cpu_ms"])]})
    return out


def _per_layer(result, errors, import_ms) -> tuple[dict, bool]:
    """Per-op means over the traced passes, and whether every count repeated
    exactly from traced pass to traced pass."""
    import tracing
    passes = result["passes"]
    traced = [p for p in passes if "trace" in p]
    plain = [p for p in passes if "trace" not in p]
    counts = [tracing.counts_of(p["trace"]) for p in traced]
    repeat = all(c == counts[0] for c in counts)
    n_ops = len(passes[0]["latency_ms"])

    def mean(fn):
        return statistics.fmean(fn(p["trace"]) for p in traced)

    def layer(name, key):
        return mean(lambda s: s["layers"].get(name, {}).get(key, 0)) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "calls" or what == "evals" or what == "warnings":
            values[name] = layer(base, what)
        elif what == "self_ms":
            values[name] = layer(base, "self_s") * 1e3
        elif what == "max_err_est":
            values[name] = max(p["trace"]["layers"].get(base, {}).get("err_est", 0.0)
                               for p in traced)
    def totals(key):
        return mean(lambda s: s["totals"].get(key, 0.0))

    values.update({
        "football.half_volume_evals": layer("football.sqrt_endpoint", "calls"),
        "football.half_volume_per_alpha": ratio(
            layer("football.sqrt_endpoint", "calls"),
            layer("football.alpha_oracle", "calls")),
        "football.epsilon0.alpha_evals": ratio(
            totals("alpha_evals"), layer("football.epsilon0", "calls") * n_ops),
        "cli.render.out_bytes": totals("out_bytes") / n_ops,
        "cli.pool.parallelism": ratio(totals("alpha_result_s"),
                                      totals("alpha_handler_s")),
        "quadrature.errors": totals("quadrature_errors") / n_ops,
        "warped.slice_at.distinct_frac": ratio(
            totals("distinct_slices"), layer("warped.slice_at", "calls") * n_ops),
        "setup.import_scipy_ms": import_ms["scipy"],
        "setup.import_isocompare_self_ms": import_ms["isocompare"],
        "football.alpha.max_abs_err": errors.get("alpha_abs_err", 0.0),
        "football.epsilon0.ref_gap": errors.get("eps0_ref_gap", 0.0),
        "warped.volume.max_rel_err": errors.get("volume_rel_err", 0.0),
        "phase_plane.bishop.max_rel_err": errors.get("bishop_rel_err", 0.0),
        "variation.order_min": errors.get("order_min", 0.0),
        "trace.overhead_frac": (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0),
    })
    return values, repeat


# ---------------------------------------------------------------------------


def run(args) -> dict:
    if not (SRC / "isocompare" / "__init__.py").is_file():
        raise BenchError(f"no isocompare package under {SRC}; run from the "
                         "root of a checkout")
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.generate(args.workload, args.seed, args.domain == "full")
    plan = _write_plan(work, args.workload, ops)

    if args.trace:
        import_ms = _import_times()
        result, _ = _run_worker(plan, work, "trace", args.seconds, "trace")
    else:
        setup_wall = [_run_worker(plan, work, "probe", 0.0, f"probe{k}")[1]
                      for k in range(SETUP_PROBES)]
        result, setup = _run_worker(plan, work, "run", args.seconds, "run")
        setup_wall.append(setup)

    passes = result["passes"]
    failures, errors = _outcomes(ops, passes, work, args.seed)
    attempted = len(passes) * len(ops)
    failed = len(passes) * sum(f is not None for f in failures)
    warmup_ok = all(status == 0 for status, _ in result["warmup"])
    notes = _failure_summary(ops, failures)
    if not warmup_ok:
        notes.append(f"warm-up failed: {result['warmup']}")

    if args.trace:
        values, repeat = _per_layer(result, errors, import_ms)
        if not repeat:
            notes.append("traced counts differ between traced passes")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        self_checks = repeat
    else:
        values, raw = _end_to_end(result, setup_wall)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        self_checks = True

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops/pass {len(ops)}  passes {len(passes)}  attempted {attempted}  "
          f"failed {failed}")
    print("machine " + json.dumps(_machine(result.get("pool_size"))))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {'fail_frac':40s} {failed / attempted:.6g} ratio"
              f"  (failed / attempted, also in the JSON)")
        print("  unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    for note in notes:
        print(f"  FAIL {note}")
    return {"correct": failed == 0 and warmup_ok and self_checks,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        doc = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
