"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload local-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with the program at its defaults; ``--trace 1`` runs the same
inputs twice, untraced and then with every layer's entry points wrapped,
checks that both passes gave the same answers, prints the per-layer
table and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any failed output check exits with status 1.  See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))

#: Setup is measured in this many fresh processes per run; the median counts.
SETUP_PROBES = 5


def declared(kind: str) -> dict:
    """``{metric: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def as_report(values: dict, kind: str) -> dict:
    units = declared(kind)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} "
                           f"disagree with BENCHMARK.json {kind}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def isolate_environment(workdir: Path) -> None:
    """Run the program at its defaults against a fresh cache directory.

    Inherited ``REPRO_ANTS_*`` settings are dropped so no run picks up a
    disabled cache, tracing switch or armed fault; the only one set is
    ``REPRO_ANTS_CACHE_DIR``, which holds the result cache, trace sink,
    job ledger and selector profile of this run alone.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_ANTS_")]:
        del os.environ[name]
    os.environ["REPRO_ANTS_CACHE_DIR"] = str(workdir / "cache")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def machine() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def quantile(samples, p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A weighted average of all order statistics, with weights from
    Beta((n+1)p, (n+1)(1-p)).  Unlike a single order statistic, it does
    not jump from run to run when the quantile falls between two kinds
    of request of very different cost, as local-batch's median does.
    """
    import numpy as np

    ordered = np.sort(np.asarray(samples, dtype=float))
    n, steps = len(ordered), 16
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = (np.arange(n * steps) + 0.5) / (n * steps)
    log_density = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    weights = np.exp(log_density - log_density.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def tail(samples):
    """(label, value): the highest of p99.9, p99 and p90 with >= 10 samples
    beyond it, or the maximum when there are fewer than 100 samples."""
    for q in (99.9, 99.0, 90.0):
        if round(len(samples) * (100.0 - q) / 100.0, 6) >= 10:
            return f"p{q:g}", quantile(samples, q / 100.0)
    return "max", max(samples)


def end_to_end(out, setup_s: float) -> dict:
    """The end-to-end metrics of one pass; failures count as the slowest."""
    samples = [out.elapsed if x == float("inf") else x for x in out.latencies]
    label, tail_value = tail(samples)
    ok = out.attempted - out.failed
    metrics = {
        "setup_s": setup_s,
        "req_p50_ms": 1000.0 * quantile(samples, 0.5),
        "req_tail_ms": 1000.0 * tail_value,
        "req_per_s": len([x for x in out.latencies if x != float("inf")]) / out.elapsed,
        "trials_per_s": out.trials / out.elapsed,
        "peak_rss_mb": out.peak_rss_mb,
    }
    print(f"  requests={len(samples)} ok_operations={ok}/{out.attempted} "
          f"elapsed={out.elapsed:.3f}s tail={label} over {len(samples)} samples")
    return metrics


def probe_setup(workload: str, seed: int, trace: bool, workdir: Path) -> list:
    """Set up in fresh processes; wall time from spawn to ready, each."""
    times = []
    for probe in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{probe}"
        probe_dir.mkdir(parents=True)
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
                   "--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(int(trace)), "--workdir", str(probe_dir)]
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT)
        line = child.stdout.readline()
        ready = time.perf_counter() - started
        child.stdout.read()
        child.stdout.close()
        if child.wait(timeout=60) != 0 or line.strip() != b"READY":
            raise RuntimeError(f"setup probe {probe} failed: {line!r}")
        times.append(ready)
    return times


def setup_only(args) -> int:
    """``--probe-setup``: the set-up a run does, then exit."""
    workdir = Path(args.workdir)
    isolate_environment(workdir)
    import workloads as bench_workloads
    import layers

    probe = layers.Probe()
    if args.trace:
        layers.install(probe)
    workload = bench_workloads.build(
        args.workload, WORKLOADS[args.workload]["shape"], args.seed, workdir, ROOT)
    try:
        workload.setup()
        print("READY", flush=True)
    finally:
        workload.teardown()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.probe_setup:
        return setup_only(args)

    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setup_times = probe_setup(args.workload, args.seed, False, workdir)
    isolate_environment(workdir)
    import workloads as bench_workloads
    import layers

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine()}")
    print("setup probes (s): " + ", ".join(f"{t:.4f}" for t in setup_times))
    shape = WORKLOADS[args.workload]["shape"]
    workload = bench_workloads.build(args.workload, shape, args.seed, workdir, ROOT)
    errors = []
    try:
        workload.setup()
        untraced = workload.run(args.seconds)
        errors += untraced.errors + workload.verify(untraced)
        metrics = end_to_end(untraced, statistics.median(setup_times))
        attempted, failed = untraced.attempted, untraced.failed
        if args.trace:
            traced_setup = probe_setup(args.workload, args.seed, True, workdir / "traced")
            workload.reset("traced")
            probe = layers.Probe()
            before = workload.counters()
            with layers.installed(probe):
                traced = workload.run(args.seconds)
                after = workload.counters()
            errors += traced.errors + workload.verify(traced)
            common = set(untraced.fingerprints) & set(traced.fingerprints)
            mismatched = [i for i in sorted(common)
                          if untraced.fingerprints[i] != traced.fingerprints[i]]
            if mismatched:
                errors.append(f"{len(mismatched)} answers differ between the "
                              f"untraced and traced passes (first: {mismatched[0]})")
            traced_metrics = end_to_end(traced, statistics.median(traced_setup))
            overhead = {name: traced_metrics[name] - metrics[name] for name in metrics}
            per_layer = layers.layer_metrics(probe, before, after)
            attributed = sum(probe.self_time.get(layer, 0.0) for layer in layers.LAYERS)
            per_layer["bench.wall_s"] = traced.client_wall
            per_layer["bench.unattributed_s"] = traced.client_wall - attributed
            for name, value in overhead.items():
                per_layer[f"overhead.{name}"] = value
            print(layers.layer_table(args.workload, probe, per_layer,
                                     traced.client_wall, overhead))
            attempted += traced.attempted
            failed += traced.failed
            report = as_report(per_layer, "per_layer")
        else:
            report = as_report(metrics, "end_to_end")
        for name, unit in declared("end_to_end").items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    finally:
        workload.teardown()
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
