"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so no cached state
(certified intervals that shrink in place, cached expansions of 1, the
Komornik-Loreti bracket) carries from one repetition into the next.

    python3 bench/worker.py WORKLOAD SEED TRACE SPAWNED [SPANS_PATH]

SPAWNED is the time.monotonic() reading taken just before the process
was started; set-up time runs from there to the first timed operation.
The last line of standard output is one JSON record.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list) -> int:
    workload, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    sys.path[:0] = [SRC, HERE]
    import univoque
    if os.path.dirname(os.path.dirname(os.path.abspath(univoque.__file__))) != SRC:
        print(f"univoque imported from {univoque.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import metrics
    import tracing
    import workloads

    tr = tracing.Tracer() if trace else tracing.NULL
    work = workloads.BUILDERS[workload](seed, tr)
    setup_s = time.monotonic() - spawned

    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for rid, op in enumerate(work.ops):
        t0 = clock()
        with tr.request(op.cls, rid):
            try:
                results.append((True, op.run()))
            except workloads.UNDECIDED:
                results.append((None, None))
            except Exception as exc:  # every other failure is counted, not fatal
                results.append((False, repr(exc)))
        latencies.append(clock() - t0)
    wall_s = clock() - start

    undecided, failed = {}, 0
    for op, (status, value) in zip(work.ops, results):
        if status is None:
            undecided[op.cls] = undecided.get(op.cls, 0) + 1
            continue
        try:
            ok = status and op.check(value)
        except Exception as exc:  # a reference that cannot decide is a failure too
            ok, value = False, (value, repr(exc))
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"failed {op.cls}: {value!r}", file=sys.stderr)

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": len(work.ops),
        "latencies": latencies,  # seconds, in operation order
        "undecided": undecided,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        work.after()
        record["layers"] = metrics.layer_values(tr.self_times(), tr.counts)
        record["spans"] = len(tr.spans)
        if len(argv) > 4:
            os.makedirs(os.path.dirname(argv[4]), exist_ok=True)
            tr.write(argv[4])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
