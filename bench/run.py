"""The univoque benchmark.

    python3 bench/run.py --workload certify|oracle|queries --seed N \\
        --seconds S --trace 0|1

Runs repetitions of one workload's fixed work, each in a fresh
interpreter (bench/worker.py), one after another, until S seconds have
passed.  Every result is checked against an independent reference
outside the timed region.  Lines before the last describe the run; the
last line is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones (set-up
time and memory as the median over repetitions, wall time from the
fastest repetition, latency percentiles over the operations' fastest
runs); with
--trace 1 repetitions alternate between traced and untraced, and the
metrics are the per-layer ones (median over the traced repetitions) plus
the tracing overhead.  The spans of the last traced
repetition go to bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = tuple(metrics.OP_UNIT)
MIN_REPS = 3            # per kind of repetition
REP_TIMEOUT_S = 120


def run_rep(workload: str, seed: int, traced: bool, spans_path: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"), workload,
           str(seed), "1" if traced else "0", repr(time.monotonic())]
    if traced:
        cmd.append(spans_path)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "univoque", "__init__.py")):
        print(f"no univoque sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    spans = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.json")
    plain, traced = [], []
    while True:
        want_trace = bool(args.trace) and len(traced) <= len(plain)
        (traced if want_trace else plain).append(
            run_rep(args.workload, args.seed, want_trace, spans))
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if enough and time.monotonic() >= deadline:
            break

    reps = plain + traced
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    undecided = {}
    for r in reps:
        for cls, n in r["undecided"].items():
            undecided[cls] = undecided.get(cls, 0) + n
    # Contention from outside the benchmark only ever slows work down, in
    # bursts from seconds to minutes long: take the fastest repetition, and
    # for each operation (the same ones in every repetition) its fastest run.
    per_op = sorted(min(runs) for runs in zip(*(r["latencies"] for r in plain)))
    p99 = _percentile(per_op, 99)
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": min(r["wall_s"] for r in plain),
        "op_p50_ms": 1e3 * _percentile(per_op, 50),
        "op_p99_ms": 1e3 * p99,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    e2e["ops_per_s"] = reps[0]["ops"] / e2e["wall_s"]
    e2e = {name: e2e[name] for name, _, _ in metrics.END_TO_END}
    units = {name: unit for name, unit, _ in metrics.END_TO_END + metrics.PER_LAYER}

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, each in a fresh interpreter; "
          f"one process at a time, no threads")
    print(f"operation = {metrics.OP_UNIT[args.workload]}; {len(per_op)} per "
          f"repetition, {sum(v > p99 for v in per_op)} latency samples beyond p99")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("wall_s by repetition: " + " ".join(f"{r['wall_s']:.4g}" for r in plain))
    und = sum(undecided.values())
    print(f"undecided_ratio {und / attempted:.6g} ({und}/{attempted}; by class {undecided})")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead"] = min(r["wall_s"] for r in traced) / e2e["wall_s"]
        repeat = all(r["layers"][n] == traced[0]["layers"][n]
                     for r in traced for n, u, _ in metrics.PER_LAYER if u != "s"
                     and n in r["layers"])
        print(f"work counts identical across traced repetitions: {repeat}")
        for name, value in layers.items():
            print(f"{name} {value:.6g} {units[name]}")
        shown = layers
    else:
        shown = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
