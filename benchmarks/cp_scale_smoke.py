"""Control-plane scale smoke: drain deep queues, print digests.

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/cp_scale_smoke.py 1000 4000

Runs the throughput bench (``bench_controlplane.run_throughput``) once
per size and prints one line per size: the job count, SHA-256 digests
of the dispatch order ``(name, started, finished)`` and of the summary,
and the scheduler's ``Cloud.capacity`` queries per job.  The lines
depend on nothing but the code, so runs under different
``PYTHONHASHSEED`` values must print the same bytes (compare them with
``cmp``).  Wall times go to standard error.

Exits non-zero if a lease leaked, if capacity queries per job exceed
``MAX_QUERIES_PER_JOB``, or if they grow by more than ``MAX_GROWTH``
from the smallest size to the largest — a scheduling pass must not
re-query capacity per queued job.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_controlplane import run_throughput  # noqa: E402

MAX_QUERIES_PER_JOB = 8.0
MAX_GROWTH = 1.25


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def main(sizes) -> int:
    per_job = []
    for n in sizes:
        t0 = time.perf_counter()
        result = run_throughput(n)  # asserts completion and no leaks
        wall = time.perf_counter() - t0
        stats = result["stats"]
        q = stats["capacity_queries"] / n
        per_job.append(q)
        print(f"n={n} order={_sha(result['order'])} "
              f"summary={_sha(result['summary'])} "
              f"leaked={result['summary']['leases_leaked']} "
              f"capacity_queries_per_job={q:.3f}")
        print(f"n={n} wall={wall:.2f}s stats={stats}", file=sys.stderr)
        if result["summary"]["leases_leaked"]:
            print(f"FAIL: {n} jobs leaked leases", file=sys.stderr)
            return 1
        if q > MAX_QUERIES_PER_JOB:
            print(f"FAIL: {q:.2f} capacity queries per job at {n} jobs "
                  f"(bound {MAX_QUERIES_PER_JOB})", file=sys.stderr)
            return 1
    growth = per_job[-1] / per_job[0]
    if growth > MAX_GROWTH:
        print(f"FAIL: capacity queries per job grew {growth:.2f}x from "
              f"{sizes[0]} to {sizes[-1]} jobs (bound {MAX_GROWTH}x)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [1000, 4000]))
