"""Record the reference outputs ``run.py`` checks every run against.

    python3 perfbench/record_reference.py

Runs each workload once per seed in ``SEEDS``, under two different
``PYTHONHASHSEED`` values, and writes ``reference.json``.  The two runs
must agree; a seed whose runs disagree is an error, not a reference.
Re-record only for a change that is meant to move the simulated
outputs, and say so in its description.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run

#: The seed the workload sizes were tuned on.
TUNED_ON_SEED = 0
#: A seed never run while the sizes were chosen.
HELD_OUT_SEED = 101
SEEDS = tuple(range(32)) + (HELD_OUT_SEED,)
#: Workers run side by side; their timings are not kept.
PARALLEL = 2


def record(workload: str, seed: int) -> dict:
    outputs = []
    for attempt in range(2):
        doc, error = run.run_worker(workload, seed, False, attempt,
                                    run.HARD_LIMIT_S)
        if error or doc["problems"]:
            raise RuntimeError(f"{workload} seed {seed}: "
                               f"{error or doc['problems']}")
        outputs.append(doc["outputs"])
    if outputs[0] != outputs[1]:
        raise RuntimeError(f"{workload} seed {seed}: runs disagree: "
                           f"{outputs}")
    return outputs[0]


def main() -> int:
    tasks = [(w, s) for w in run.WORKLOADS for s in SEEDS]
    with ThreadPoolExecutor(max_workers=PARALLEL) as pool:
        results = list(pool.map(lambda t: record(*t), tasks))
    outputs = {w: {} for w in run.WORKLOADS}
    for (workload, seed), out in zip(tasks, results):
        outputs[workload][str(seed)] = out
    run.REFERENCE.write_text(json.dumps({
        "tuned_on_seed": TUNED_ON_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "outputs": outputs,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tasks)} references to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
