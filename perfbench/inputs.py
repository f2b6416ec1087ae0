"""Seeded input generation for the end-to-end benchmark.

Everything random a workload feeds the program comes from here, drawn
from the workload seed: BLAST query batches, control-plane job streams
(with Poisson arrival times and the VM killer's generator for
``cp_churn``), and guest memory / disk contents for ``wan_migrate``.
The program itself never sees the seed.  Same seed, same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cloud import make_image
from repro.workloads import blast_job, generate_disk_fingerprints, web_server

TENANTS = (("alice", 1.0), ("bob", 2.0), ("carol", 1.0))
#: Job widths, drawn uniformly: mostly small jobs, a few wide ones.
JOB_WIDTHS = (1, 1, 2, 2, 4, 8)
#: Job runtimes are uniform integers in [RUNTIME_LO, RUNTIME_HI].
RUNTIME_LO, RUNTIME_HI = 30, 120


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, stream])


@dataclass(frozen=True)
class JobSpec:
    tenant: str
    n_nodes: int
    runtime: float
    priority: int
    #: Simulated seconds after the plane starts when the job arrives.
    arrival: float = 0.0


def blast_batches(seed: int, n_nodes: int):
    """Weak-scaling BLAST: four query batches per node."""
    return blast_job(_rng(seed, 1), n_query_batches=4 * n_nodes,
                     mean_batch_seconds=60, db_shard_bytes=1e6)


def job_stream(seed: int, n_jobs: int, rate: float = 0.0) -> List[JobSpec]:
    """A mixed three-tenant job stream.

    ``rate == 0`` submits every job at once (a deep queue); otherwise
    arrivals are Poisson with ``rate`` jobs per simulated second.
    """
    rng = _rng(seed, 2)
    names = [name for name, _ in TENANTS]
    gaps = (rng.exponential(1.0 / rate, n_jobs) if rate > 0
            else np.zeros(n_jobs))
    arrivals = np.cumsum(gaps)
    return [
        JobSpec(tenant=names[int(rng.integers(len(names)))],
                n_nodes=int(rng.choice(JOB_WIDTHS)),
                runtime=float(rng.integers(RUNTIME_LO, RUNTIME_HI + 1)),
                priority=int(rng.integers(3)),
                arrival=float(arrivals[i]))
        for i in range(n_jobs)
    ]


def open_loop_rate(capacity_nodes: int, load: float) -> float:
    """Arrival rate (jobs per simulated second) that asks for ``load``
    of ``capacity_nodes`` on average."""
    mean_nodes = sum(JOB_WIDTHS) / len(JOB_WIDTHS)
    mean_runtime = (RUNTIME_LO + RUNTIME_HI) / 2
    return load * capacity_nodes / (mean_nodes * mean_runtime)


def killer_rng(seed: int) -> np.random.Generator:
    """The Poisson VM killer's draws."""
    return _rng(seed, 3)


def app_image(seed: int, name: str, n_blocks: int, memory_pages: int):
    """The tenants' customized image, built at one site and replicated
    to the others at the start of a control-plane run."""
    return make_image(name, _rng(seed, 4), n_blocks=n_blocks,
                      default_memory_pages=memory_pages)


def web_cluster(seed: int, n_vms: int, pages: int, disk_blocks: int
                ) -> Tuple[object, list, np.random.Generator]:
    """Memory and disk contents of a web-server cluster.

    Returns the memory profile (it also drives guest writes), one
    ``(memory image, disk fingerprints)`` pair per VM, and the
    generator the guests' dirtiers draw from.
    """
    rng = _rng(seed, 5)
    profile = web_server()
    guests = [(profile.generate_memory(rng, pages),
               generate_disk_fingerprints(rng, disk_blocks))
              for _ in range(n_vms)]
    return profile, guests, _rng(seed, 6)
