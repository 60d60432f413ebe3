"""zzstrips benchmark: one command, one workload, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload poset-ladder --seed 1 --seconds 40 --trace 0

Each pass runs the workload's requests in a fresh child process
(``child.py``) that calls ``zzstrips.cli.main(argv)`` in-process, so
interpreter start-up is outside the timings. One child runs at a time.
A further pass starts only while the run is expected to finish within
``--seconds``; every run makes at least one pass, and a traced run at
least one untraced and one traced pass. Every request's output is
checked against ``expected.json``.

With ``--trace 0`` the end-to-end metrics are reported, medians over
the passes, with times rescaled to a reference speed (``speed.py``);
with ``--trace 1`` the per-layer metrics of the traced passes, plus the
tracing overhead. The last stdout line is the JSON
result; a summary with sample counts goes on the line before it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from speed import reference_slice, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170
SETUP_SAMPLES = 15

END_TO_END_UNITS = {
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "strip_geometry.validate.calls": "count",
    "strip_geometry.validate.self_s": "s",
    "strip_geometry.build_graph.self_s": "s",
    "dib_poset.build_poset.calls": "count",
    "dib_poset.build_poset.self_s": "s",
    "dib_poset.natural_labeling.self_s": "s",
    "extension_engine.linear_extensions.calls": "count",
    "extension_engine.linear_extensions.self_s": "s",
    "extension_engine.words": "count",
    "extension_engine.fixed_labels.calls": "count",
    "extension_engine.fixed_labels.self_s": "s",
    "extension_engine.extension_records.self_s": "s",
    "extension_engine.us_per_word": "us",
    "order_polynomials.zz_polynomial.calls": "count",
    "order_polynomials.zz_polynomial.self_s": "s",
    "order_polynomials.closed_form.calls": "count",
    "order_polynomials.closed_form.self_s": "s",
    "order_polynomials.extended_poly_extension_formula.self_s": "s",
    "order_polynomials.ClosedForm.evaluate.self_s": "s",
    "order_polynomials.group_ratio": "ratio",
    "kekule_bijection.enumerate_kekule.self_s": "s",
    "kekule_bijection.structures": "count",
    "kekule_bijection.mask_yield": "ratio",
    "kekule_bijection.generate_clar_covers.self_s": "s",
    "kekule_bijection.clar_records": "count",
    "kekule_bijection.map_from_kekule.calls": "count",
    "kekule_bijection.map_from_kekule.self_s": "s",
    "oracle.enumerate_perfect_matchings.self_s": "s",
    "oracle.matchings": "count",
    "oracle.enumerate_clar_covers.self_s": "s",
    "oracle.clar_covers": "count",
    "oracle.zz_from_matchings.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

ENGINE_SELF = (
    "extension_engine.linear_extensions.self_s",
    "extension_engine.fixed_labels.self_s",
    "extension_engine.extension_records.self_s",
)


class BenchError(Exception):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive_layers(layers: dict) -> dict:
    """The per-layer metrics of one traced pass; layers the pass never
    reached read 0."""
    out = {name: layers.get(name, 0) for name in PER_LAYER_UNITS}
    out["extension_engine.us_per_word"] = 1e6 * _ratio(
        sum(layers.get(name, 0.0) for name in ENGINE_SELF), layers.get("extension_engine.words", 0))
    out["order_polynomials.group_ratio"] = _ratio(
        layers.get("order_polynomials.groups", 0), layers.get("order_polynomials.terms_evaluated", 0))
    out["kekule_bijection.mask_yield"] = _ratio(
        layers.get("kekule_bijection.subsets", 0), layers.get("kekule_bijection.masks", 0))
    return out


def run_pass(requests: list[dict], trace_out: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(cmd, input=json.dumps(requests), capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def measure_setup(expected: dict) -> tuple[list[float], int]:
    """Cold starts of ``python -m zzstrips.cli zz "WRN 2"``, spawn to
    exit. The first launch only fills the bytecode cache, which an
    installed package has too."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-m", "zzstrips.cli", *workloads.SETUP_ARGV]
    samples, failed = [], 0
    before = reference_slice()
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        elapsed = perf_counter() - start
        after = reference_slice()
        if proc.returncode != 0 or proc.stdout != expected["setup"]["stdout"]:
            failed += 1
            print(f"setup launch wrong: exit {proc.returncode}, stdout {proc.stdout!r}, "
                  f"stderr {proc.stderr[-500:]!r}", file=sys.stderr)
        if i:
            samples.append(rescale(elapsed, [before, after]))
        before = after
    return samples, failed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank. It is always one measured
    sample, so it never blends two different requests of a workload."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    expected = workloads.load_expected()
    requests = workloads.build_requests(workload, seed, expected)
    attempted = failed = 0

    setup = []
    if not trace:
        setup, setup_failed = measure_setup(expected)
        attempted += len(setup) + 1
        failed += setup_failed

    passes: list[tuple[bool, dict]] = []
    kinds = [False, True] if trace else [False]
    longest = {False: 0.0, True: 0.0}
    measure_start = perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if len(passes) >= len(kinds):
            predicted = longest[traced] or max(longest.values())
            if perf_counter() - measure_start + predicted > seconds:
                break
        trace_out = None
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            trace_out = OUT_DIR / f"spans-{workload}.jsonl"
        pass_start = perf_counter()
        report = run_pass(requests, trace_out, deadline)
        longest[traced] = max(longest[traced], perf_counter() - pass_start)
        for request, result in zip(requests, report["results"]):
            attempted += 1
            if result["problem"]:
                failed += 1
                print(f"wrong output for {' '.join(request['argv'])}: {result['problem']}",
                      file=sys.stderr)
        if report.get("missing"):
            print(f"trace targets not found: {', '.join(report['missing'])}", file=sys.stderr)
        passes.append((traced, report))

    plain = [r for t, r in passes if not t]
    walls = [r["wall_s"] for r in plain]
    if trace:
        layer_runs = [derive_layers(r["layers"]) for t, r in passes if t]
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in PER_LAYER_UNITS}
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for t, r in passes if t)
            / statistics.median(r["wall_s"] for r in plain))
        units = PER_LAYER_UNITS
        summary = (f"{workload} traced: {len(layer_runs)} traced and {len(plain)} untraced "
                   f"passes, spans in {OUT_DIR.name}/spans-{workload}.jsonl")
    else:
        latencies = [1000 * res["seconds"] for r in plain for res in r["results"]]
        metrics = {
            "wall_s": statistics.median(walls),
            "request_p50_ms": quantile(latencies, 50),
            "request_p90_ms": quantile(latencies, 90),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        raw_wall = statistics.median(r["raw_wall_s"] for r in plain)
        summary = (f"{workload}: {len(plain)} passes of {len(requests)} requests, "
                   f"{len(latencies)} latency samples, {len(setup)} setup launches, "
                   f"failed {failed}/{attempted}, unscaled wall {raw_wall:.3f} s, "
                   f"run {perf_counter() - start:.1f} s")
    print(summary)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zzstrips" / "cli.py").is_file():
        print(f"error: no zzstrips sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
