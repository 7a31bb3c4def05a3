"""sigforge benchmark runner.

Usage, from the root of a source checkout (``src/sigforge`` must exist):

    python3 perfbench/run.py --workload ref-report --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py`` for why each exists) for about
``--seconds`` seconds: one client in a closed loop, at most one sigforge
subprocess at a time. Every operation is checked against oracle-derived
answers. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics from untraced
passes; ``--trace 1`` reports the per-layer metrics from traced passes
(see ``tracer.py``) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 5
# Units of the end-to-end metrics in the JSON line. failed_frac and
# proven_frac are printed too, but they are 0 on some workloads at this
# commit, so the JSON line carries them as ``failed`` and ``correct``.
END_TO_END = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Share of operations that must carry a proof (scan audit or sd == ml): the
# proven set may grow but never shrink.
PROVEN_FLOOR = {"ref-report": 1.0, "random-extend": 0.0, "oracle-compare": 1.0}

# Per-layer metrics, from traced passes, per pass.
FUNCTION_METRICS = (
    ("sphere.sphere_search", True),
    ("sphere.ml_exhaustive", True),
    ("sphere.extend_optimal", False),
    ("sphere.local_descent_baseline", False),
    ("sigcore.quadratic_metric", True),
    ("sigcore.correlation_matrix", True),
    ("sigcore.tsc", True),
    ("linalg.min_eigenpair", True),
    ("linalg.cholesky", True),
    ("harness.extend_once", False),
    ("harness.upscale_chain", False),
    ("harness.compare_methods", False),
    ("harness.one_shot_experiment", False),
    ("harness.emit_report", False),
    ("cli.main", False),
)
# Counters that must repeat exactly from run to run on the same inputs.
DETERMINISTIC = (
    "sphere.nodes", "sphere.leaves", "sphere.ties", "sphere.scan_points",
    "sphere.descent_evals", "sigcore.rescore.calls", "linalg.cholesky.jitter_retries",
    "harness.steps",
)

HERE = Path(__file__).resolve().parent


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return f"median {median(ordered)!r}, p{p} {ordered[rank - 1]!r} (n={n})"
    return f"median {median(ordered)!r} (n={n}; no percentile has 10 samples beyond it)"


def src_facts(root: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    counts = tracer.counts
    out = {}
    for name, with_calls in FUNCTION_METRICS:
        calls, self_s = totals.get(name, (0, 0.0))
        if with_calls:
            out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for key in ("sphere.nodes", "sphere.leaves", "sphere.ties", "sphere.scan_points",
                "sphere.descent_evals", "linalg.cholesky.jitter_retries", "harness.steps"):
        out[key] = counts.get(key, 0)
    out["sphere.leaf_yield"] = out["sphere.ties"] / out["sphere.leaves"] if out["sphere.leaves"] else 0.0
    walk_s = out["sphere.sphere_search.self_s"]
    out["sphere.nodes_per_s"] = out["sphere.nodes"] / walk_s if walk_s else 0.0
    scan_s = out["sphere.ml_exhaustive.self_s"]
    out["sphere.scan_points_per_s"] = out["sphere.scan_points"] / scan_s if scan_s else 0.0
    out["sigcore.rescore_s"] = counts.get("sigcore.rescore_s", 0.0)
    out["sigcore.io_s"] = sum(totals.get(f"sigcore.{n}", (0, 0.0))[1] for n in ("load_set", "save_set"))
    out["bounds.self_s"] = sum(totals.get(f"bounds.{n}", (0, 0.0))[1]
                               for n in ("welch_bound", "binary_tsc_bound", "fp_operation_bound"))
    return out


def scaled(layer: dict, factor: float) -> dict:
    """Scale the times of one traced pass to the reference speed."""
    return {k: v * factor if unit_of(k) == "s" else v / factor if unit_of(k) == "1/s" else v
            for k, v in layer.items()}


def deterministic_counts(tracer) -> dict:
    counts = {key: tracer.counts.get(key, 0) for key in DETERMINISTIC}
    for name, (calls, _) in sorted(tracer.totals().items()):
        counts[f"{name}.calls"] = calls
    return counts


def check_counters(workload, counts: dict) -> None:
    """Print every difference from the recorded counters, as counts."""
    recorded = json.loads((HERE / "counters.json").read_text()).get(workload.name, {})
    key = "any" if workload.name == "ref-report" else str(workload.seed)
    reference = recorded.get(key)
    source = "perfbench/counters.json"
    cached = workload.cache_path.with_suffix(".counters.json")
    if reference is None and cached.exists():
        reference, source = json.loads(cached.read_text()), "the counters cached by an earlier run"
    if reference is None:
        cached.write_text(json.dumps(counts, indent=1, sort_keys=True))
        print(f"counters: none recorded for seed {workload.seed}; cached this run's for the next")
        return
    diffs = [(k, reference.get(k), counts.get(k)) for k in sorted(set(reference) | set(counts))
             if reference.get(k) != counts.get(k)]
    for k, before, now in diffs:
        delta = (now or 0) - (before or 0)
        print(f"counter {k}: recorded {before}, this run {now} ({delta:+d})")
    if not diffs:
        print(f"counters: all {len(counts)} equal the values in {source}")


def summarize_groups(tracer) -> None:
    """Largest self times per input length (random-extend)."""
    for group in sorted({s.group for s in tracer.spans if s.group}):
        totals = tracer.totals(group)
        whole = sum(self_s for _, self_s in totals.values())
        top = sorted(totals.items(), key=lambda item: -item[1][1])[:3]
        shares = ", ".join(f"{name} {self_s / whole:.0%}" for name, (_, self_s) in top)
        print(f"self time at {group}: {shares}")


def run(args, root: Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, time_setup

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](root, workdir, root / ".bench_cache", args.seed)
        workload.prepare()
        first = workload.units[0]
        setups = [time_setup(root, workdir, first) for _ in range(SETUP_PROBES)]

        # Untraced runs cycle through the units until the next one would end
        # after --seconds. Traced runs repeat one fixed unit: untraced as a
        # user runs it, then in this process untraced and traced.
        plain, traced, children, tracers, unit_s = [], [], [], [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if not args.trace:
                plain += workload.untraced(workload.units[len(unit_s) % len(workload.units)])
            else:
                unit = workload.trace_unit
                if workload.cli:
                    children += workload.untraced(unit)
                plain += workload.in_process(unit)
                tracer = Tracer()
                with tracer:
                    batch = workload.in_process(unit, tracer)
                traced += batch
                tracers.append((tracer, statistics.mean(s.scale for s in batch)))
            unit_s.append(time.perf_counter() - began)
            if time.perf_counter() - start + median(unit_s) > args.seconds:
                break

        outcomes = [o for s in plain + traced + children for o in s.outcomes]
        failed = sum(not o.ok for o in outcomes)
        proven = sum(o.proven for o in outcomes)
        attempted = len(outcomes)
        proven_frac = proven / attempted
        correct = failed == 0 and proven_frac >= PROVEN_FLOOR[workload.name]
        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
              f"units {len(unit_s)}  operations {attempted}")
        print(f"failed_frac {failed / attempted!r} ratio  ({failed} of {attempted} operations)")
        print(f"proven_frac {proven_frac!r} ratio  ({proven} of {attempted}; "
              f"floor {PROVEN_FLOOR[workload.name]})")

        if not args.trace:
            # Median per input over its repeats, then median over inputs, so
            # an input the run reached once more than another weighs no more.
            by_key: dict = {}
            for sample in plain:
                by_key.setdefault(sample.key, []).append(sample)

            def per_input(field):
                return median([median([getattr(s, field) for s in group])
                               for group in by_key.values()])

            walls = [s.wall_s for s in plain]
            cpus = [s.cpu_s for s in plain]
            metrics = {
                "solve_s": per_input("wall_s"),
                "cpu_s": per_input("cpu_s"),
                "setup_s": median(setups),
                "peak_rss_mb": per_input("rss_mb"),
            }
            what = "operation" if workload.name == "random-extend" else "command"
            print(f"solve_s {metrics['solve_s']!r} s  ({len(by_key)} inputs; per {what}: "
                  f"{tail(walls)})")
            print(f"cpu_s {metrics['cpu_s']!r} s  ({len(by_key)} inputs; per {what}: {tail(cpus)})")
            print(f"setup_s {metrics['setup_s']!r} s  (median of {len(setups)} fresh interpreters)")
            print(f"peak_rss_mb {metrics['peak_rss_mb']!r} MB  (median over child processes)")
            print("times are scaled to the reference machine speed (perfbench/calibrate.py)")
            units = END_TO_END
        else:
            per_pass = [scaled(layer_metrics(t), factor) for t, factor in tracers]
            metrics = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
            in_process_s = median([s.wall_s for s in plain])
            metrics["cli.startup_s"] = (median([s.wall_s for s in children]) - in_process_s
                                        if children else 0.0)
            metrics["trace.overhead_s"] = median([s.wall_s for s in traced]) - in_process_s
            units = {k: unit_of(k) for k in metrics}
            counts = [deterministic_counts(t) for t, _ in tracers]
            if any(c != counts[0] for c in counts):
                print("counters: traced passes disagree with each other")
            check_counters(workload, counts[0])
            if not workload.cli:
                summarize_groups(tracers[0][0])
            for key in sorted(metrics):
                print(f"{key} {metrics[key]!r} {units[key]}")
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracers[0][0].write(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl")
            if tracers[0][0].missing:
                print("not in this package, reported as 0: " + ", ".join(tracers[0][0].missing))

        meta = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "python": platform.python_version(),
                "numpy": __import__("numpy").__version__, "nproc": os.cpu_count(),
                **src_facts(root)}
        print("meta " + json.dumps(meta, sort_keys=True))
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("leaf_yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ref-report", "random-extend", "oracle-compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "sigforge"
    if not (package / "__init__.py").is_file():
        fail(f"no sigforge sources under {package}; run from the root of a source checkout")
    sys.path.insert(0, str(root / "src"))
    import sigforge

    if Path(sigforge.__file__).resolve().parent != package.resolve():
        fail(f"imported sigforge from {sigforge.__file__}, not from {package}")
    # The speed probe's thread must hand the interpreter back within a
    # millisecond when a child exits, or that delay lands in its wall time.
    sys.setswitchinterval(0.001)
    # On SIGTERM unwind normally, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args, root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
