#!/usr/bin/env python3
"""Layered benchmark for polytax.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. Workloads: cli-cold, analytics-n1000,
ingest-roundtrip (see BENCHMARK.json for why each was chosen), or `all`,
which runs each in a fresh child process.

With --trace 0 the run measures the end-to-end metrics, with times scaled
to a reference machine speed by a probe timed between ops; with --trace 1
it is the separate traced run that reports the per-layer metrics. Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details (environment, sample
counts, unscaled times, the tail percentile, failures, the hostile-document
probe, the sha256 of every artifact) go to
.perfbench_out/<workload>-seed<seed>-trace<t>.json, and the traced run's
spans next to it.
"""
from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SWEEP_REPEATS = 3
NAMES = ("cli-cold", "analytics-n1000", "ingest-roundtrip")

NOTES = [
    "Bytecode and the page cache are warm on purpose: users run warm after their first call.",
    "Caches are not dropped and cgroups are not pinned: the benchmark acts only on its own processes.",
    "Timed phase = the sum of op wall times; checks and oracles run outside it.",
    "BLAS threads are left at their default.",
]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it
    (p90 at 100 samples), and its value; None below 20 samples."""
    n = len(values)
    pct = int(100 * (n - 10) / n) if n >= 20 else 0
    if pct < 50:
        return None
    return pct, sorted(values)[-11]


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in libs:
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            get = getattr(ctypes.CDLL(lib), symbol, None)
            if get is not None:
                info["threads"] = get()
    return info


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "blas": blas_info(),
        "notes": NOTES,
    }


def run_op(w, i, rec, checks: dict) -> float:
    """Time one op, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        result = w.op(i, rec)
    except Exception as exc:  # a raising op is a failed op, not a crash
        elapsed = time.perf_counter() - start
        checks["failures"].append(f"op {i} raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        errors, digests = w.check(i, result)
    except Exception as exc:  # output the oracle cannot even read is wrong output
        errors, digests = [f"check raised {type(exc).__name__}: {exc}"], {}
    checks["digests"].update(digests)
    if errors:
        checks["failures"].append(f"op {i}: " + "; ".join(errors[:5]))
    del result
    gc.collect()
    return elapsed


def measure(w, seconds: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics."""
    from spans import Recorder

    off = Recorder()
    checks = {"failures": [], "digests": {}}
    latencies, probes = [], []
    while sum(latencies) < seconds or len(latencies) % w.cycle:
        while len(probes) < w.probes_per_op * (len(latencies) + 1):
            probes.append(w.probe())
        latencies.append(run_op(w, len(latencies), off, checks))
    # Scale to the reference machine speed (README, "Machine-speed scaling").
    # The mean probe, not the median, because the machine flips between a
    # fast and a slow state and the mean follows the share of time in each.
    scale = w.probe_ref_s / statistics.mean(probes)
    timed = sum(latencies)
    ok = len(latencies) - len(checks["failures"])
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if w.in_process else w.peak_rss_mb())
    metrics = {
        "ops_per_s": (ok / (timed * scale), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * scale * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    details = {"ops": len(latencies), "timed_s": timed, "speed_scale": scale,
               "unscaled": {"ops_per_s": ok / timed,
                            "op_p50_ms": statistics.median(latencies) * 1e3},
               "latencies_ms": [t * 1e3 for t in latencies],
               "probes_ms": [t * 1e3 for t in probes], **checks}
    tail = tail_percentile(latencies)
    if tail:
        details["unscaled"][f"op_p{tail[0]}_ms"] = tail[1] * 1e3
    return metrics, details


def traced(w, seconds: float, seed: int, per_layer: dict) -> tuple[dict, dict]:
    """The traced run: per-layer metrics and the tracing overhead."""
    import gen
    from passes import cold_start_probes, hostile_probe, layer_sweep
    from spans import Recorder, layer_metrics, memory_tracing
    from workloads import child_env, sweep_inputs

    off, timing, memory = Recorder(), Recorder(enabled=True), Recorder(enabled=True, memory=True)
    checks = {"failures": [], "digests": {}}
    if w.in_process:
        memory.op = 0
        with memory_tracing(memory):
            run_op(w, 0, memory, checks)
    untraced, spanned = [], []
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        i = timing.op = len(spanned)
        for rec in (off, timing) if i % 2 else (timing, off):  # alternate who goes first
            (spanned if rec is timing else untraced).append(run_op(w, i, rec, checks))
    hostile = hostile_probe(gen.hostile_documents(seed), timing)
    own = layer_metrics(timing, memory if w.in_process else None)
    base = statistics.median(untraced)
    own["trace.overhead_pct"] = (statistics.median(spanned) - base) / base * 100

    sweep = sweep_inputs(seed, SRC, OUT)
    sweep_timing, sweep_memory = Recorder(enabled=True), Recorder(enabled=True, memory=True)
    for _ in range(SWEEP_REPEATS):
        layer_sweep(sweep, sweep_timing)
    with memory_tracing(sweep_memory):
        layer_sweep(sweep, sweep_memory)
    swept = layer_metrics(sweep_timing, sweep_memory)
    swept.update(cold_start_probes(child_env(SRC)))

    metrics, source = {}, {}
    for name, unit in per_layer.items():
        if name in own:
            metrics[name], source[name] = (own[name], unit), "workload"
        elif name in swept:
            metrics[name], source[name] = (swept[name], unit), "bundled-dataset sweep"
        else:
            raise RuntimeError(f"per-layer metric {name} was not measured")
    timing.dump(OUT / f"{w.name}-seed{seed}-spans.json")
    details = {"ops": len(untraced) + len(spanned) + int(w.in_process),
               "untraced_op_ms": base * 1e3,
               "traced_op_ms": statistics.median(spanned) * 1e3,
               "per_layer_source": source, "hostile_documents": hostile, **checks}
    return metrics, details


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import gen
    from passes import hostile_probe
    from spans import Recorder
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, SRC, OUT)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - start)

    if args.trace:
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, details = traced(w, args.seconds, args.seed, per_layer)
    else:
        metrics, details = measure(w, args.seconds)
        details["unscaled"]["setup_s"] = statistics.median(setup_times)
        metrics["setup_s"] = (statistics.median(setup_times) * details["speed_scale"], "s")
        details["hostile_documents"] = hostile_probe(gen.hostile_documents(args.seed), Recorder())
    raised = [k for k, v in details["hostile_documents"].items() if v != "ok"]
    details.update(
        workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_s_samples=setup_times, environment=environment(),
        hostile_not_total=raised,
        hostile_error_rate=len(raised) / len(details["hostile_documents"]),
        error_rate=len(details["failures"]) / details["ops"],
    )
    detail_path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1, sort_keys=True), "utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"{w.name} unscaled: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in details["unscaled"].items())
            + f" (speed scale {details['speed_scale']:.4f})")
    print(f"{w.name} ops = {details['ops']}, error_rate = {details['error_rate']:.6g}, "
          f"hostile documents not parsed totally: {len(raised)}/"
          f"{len(details['hostile_documents'])} {raised}")
    for failure in details["failures"][:10]:
        print(f"{w.name} FAILED {failure}")
    print(f"{w.name} details: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not details["failures"],
        "attempted": details["ops"],
        "failed": len(details["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child, so set-up in one cannot leak into another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polytax" / "cli.py").is_file():
        print(f"perfbench: no polytax sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
