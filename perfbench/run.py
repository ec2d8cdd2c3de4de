"""linbins benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload sim-small --seed 1 --seconds 20 --trace 0

Workloads: sim-small, sim-large, table, audit (see workloads.json).  The run
sets up, runs one warm-up round, then runs rounds for --seconds seconds and
checks every output.  It prints a report, then as its last line one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones declared in BENCHMARK.json; with
--trace 1 rounds alternate untraced and traced, and the metrics are the
declared per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# per-layer metric -> (span name, statistic over that span's calls)
SPAN_METRICS = {
    "ballsbins.substream.us_per_call": ("ballsbins.substream", "us"),
    "ballsbins.substream.calls": ("ballsbins.substream", "calls"),
    "gf2.sample_uniform_linear.us_per_call": ("gf2.sample_uniform_linear", "us"),
    "gf2.sample_uniform_linear.calls": ("gf2.sample_uniform_linear", "calls"),
    "gf2.apply_bits.us_per_call": ("gf2.apply_bits", "us"),
    "gf2.apply_bits.calls": ("gf2.apply_bits", "calls"),
    "gf2.batch_apply_bits.ns_per_ball": ("gf2.batch_apply_bits", "ns_per_unit"),
    "gf2.batch_apply_bits.balls": ("gf2.batch_apply_bits", "units"),
    "gf2.byte_apply_tables.us_per_call": ("gf2.byte_apply_tables", "us"),
    "ballsbins.estimate_tail.self_s": ("ballsbins.estimate_tail", "self_s"),
    "ballsbins.generate_set.s": ("ballsbins.generate_set", "s"),
    "ballsbins.summarize_trials.s": ("ballsbins.summarize_trials", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "hashtable.insert.us_per_call": ("hashtable.insert", "us"),
    "hashtable.insert.self_us_per_call": ("hashtable.insert", "self_us"),
    "hashtable.get.us_per_call": ("hashtable.get", "us"),
    "hashtable.remove.us_per_call": ("hashtable.remove", "us"),
    "gf2.sample_uniform_affine.calls": ("gf2.sample_uniform_affine", "calls"),
    "ballsbins.event_e2.ms_per_call": ("ballsbins.event_e2", "ms"),
    "ballsbins.event_e2.self_ms_per_call": ("ballsbins.event_e2", "self_ms"),
    "bounds.tail_bound_parameters.us_per_call": ("bounds.tail_bound_parameters", "us"),
}
TIME_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: default_seed in workloads.json)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_times(workload: str, seed: int) -> list[float]:
    """Cold set-up times, each from a fresh process started after the last ended."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop of about 10 ms.

    On a shared host the interpreter's speed drifts by tens of percent over
    seconds to minutes.  The loop runs before, between and after the steps of
    every round, and the gated round cost divides each step's time by the
    mean of the loop times beside it, which cancels most of that drift.  The
    loop never changes, so a change in linbins moves the ratio as it moves
    the step's time.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= (x & 0x5555).bit_count()
        table[x & 1023] = table.get(x & 1023, 0) + 1
    return time.perf_counter() - start


def time_steps(steps) -> tuple[dict[str, float], dict]:
    """Run a round's steps; return each step's seconds and reference ratio, and its result."""
    timings, results = {}, {}
    before = reference_s()
    for name, step in steps:
        start = time.perf_counter()
        results[name] = step()
        seconds = time.perf_counter() - start
        after = reference_s()
        timings[name] = seconds
        timings[f"{name}/ref"] = seconds / ((before + after) / 2)
        before = after
    return timings, results


def ref_cost(timings: dict[str, list[float]]) -> float:
    """A round's cost in reference-loop units: the sum of its steps' median ratios."""
    return sum(statistics.median(v) for k, v in timings.items() if k.endswith("/ref"))


def one_round(wl, tracer) -> dict[str, float] | None:
    """Run and check one round; a raising round counts all its operations as failed."""
    if tracer is not None:
        tracer.install()
    try:
        run = time_steps if tracer is None else tracer.span("perfbench.round", time_steps)
        phases, results = run(wl.steps(tracer))
    except Exception:
        if not wl.failures:
            traceback.print_exc()
        wl.attempted += wl.ops_per_round
        wl.fail(wl.ops_per_round, "a round raised")
        return None
    finally:
        if tracer is not None:
            tracer.remove()
    wl.finish(results, tracer)
    return phases


def run_rounds(wl, seconds: float, tracer) -> tuple[dict, dict]:
    """Warm-up round, then rounds for `seconds`; traced runs alternate plain and traced."""
    one_round(wl, None)
    plain: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    start = time.perf_counter()
    i = 0
    minimum = 1 if tracer is None else 2
    while time.perf_counter() - start < seconds or i < minimum:
        use = tracer if i % 2 == 1 else None
        phases = one_round(wl, use)
        for key, value in (phases or {}).items():
            (plain if use is None else traced).setdefault(key, []).append(value)
        i += 1
    return plain, traced


def layer_metrics(wl, tracer, plain, traced) -> dict[str, float]:
    import workloads

    stats = tracer.stats()
    rounds = stats["perfbench.round"].calls
    span_metrics = dict(SPAN_METRICS)
    for check in workloads.VERIFY_CHECKS:
        span_metrics[f"cli.verify.{check}_s"] = (f"cli.verify.{check}", "s")
    values = {}
    for metric, (span, kind) in span_metrics.items():
        if span in tracer.absent:
            continue
        s = stats.get(span)
        if s is None or s.calls == 0:
            values[metric] = 0
        elif kind == "calls":
            values[metric] = s.calls / rounds
        elif kind == "units":
            values[metric] = s.units / rounds
        elif kind == "ns_per_unit":
            values[metric] = s.total_ns / s.units
        elif kind.startswith("self_"):
            values[metric] = s.self_ns * TIME_SCALE[kind[5:]] / s.calls
        else:
            values[metric] = s.total_ns * TIME_SCALE[kind] / s.calls
    if "gf2.sample_surjective" not in tracer.absent:
        draws = tracer.child_calls("gf2.sample_surjective", "gf2.sample_uniform_linear")
        accepted = stats.get("gf2.sample_surjective")
        values["gf2.sample_surjective.accept_ratio"] = accepted.calls / draws if draws else 0
    for metric in ("cli.rows", "hashtable.resizes", "hashtable.mean_probes_hit",
                   "hashtable.mean_probes_miss", "hashtable.max_chain"):
        values[metric] = wl.layer.get(metric, 0)
    values["trace_overhead_frac"] = ref_cost(traced) / ref_cost(plain) - 1
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "linbins" / "__init__.py").is_file():
        print(f"perfbench: no linbins sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(spec['workloads'])})", file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)

    setups = [] if args.trace else setup_times(args.workload, seed)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    wl = workloads.make(args.workload, spec, seed, outdir)
    tracer = Tracer(f"{args.workload}/{seed}/{os.getpid()}") if args.trace else None
    wl.setup()
    plain, traced = run_rounds(wl, args.seconds, tracer)
    if not plain or (tracer is not None and not traced):
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check(spec["default_seed"])

    print(f"perfbench {args.workload} seed={seed} trace={args.trace}: "
          f"{len(next(iter(plain.values())))} untraced rounds, "
          f"{len(next(iter(traced.values()), []))} traced")
    if args.trace:
        values = layer_metrics(wl, tracer, plain, traced)
        trace_file = outdir / f"trace-{args.workload}.jsonl.gz"
        tracer.write(trace_file)
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "round_ref_ratio": ref_cost(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = declared["end_to_end"]
        print(f"  setup_s samples: {', '.join(f'{t:.4f}' for t in setups)}")
        for key, xs in plain.items():
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            unit = "ratio" if key.endswith("/ref") else "s"
            print(f"  step {key:<14} quartiles {q[0]:.5g} {q[1]:.5g} {q[2]:.5g} {unit}")
        for name, value, unit in wl.report(plain):
            print(f"  {name:<22} {value:.6g} {unit}")
    fail_frac = wl.failed / wl.attempted if wl.attempted else 1.0
    print(f"  {'fail_frac':<22} {fail_frac:.6g} ratio ({wl.failed} of {wl.attempted})")
    for what, times in wl.failures.items():
        print(f"  FAILED ({times}x): {what}")

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
        else:
            print(f"  {m['name']:<40} absent", file=sys.stderr)
    print(json.dumps({
        "correct": wl.failed == 0 and wl.attempted > 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
