"""The benchmark's workloads, each driven through ``repro``'s public API.

A workload offers the runner (``run.py``):

- ``setup_round()``: build the machine, set the workload up and create
  its threads, stopped at the first simulated event (the runner arms
  :class:`layers.SetupClock`);
- ``run_pass()``: one pass, timed by the runner, returning its raw
  result;
- ``check(result)``: the untimed part, turning the raw result into a
  :class:`PassOutput` (output digest, run statistics, and any problem
  the program itself can detect).

The pass outputs known in advance are pinned in :data:`PINNED`.  All
load comes from one process and one thread: one shard per machine and,
where the exec layer runs jobs, serial ``JobRunner(jobs=1)``.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from typing import Dict, List, NamedTuple, Optional

from repro.analysis import reportgen
from repro.exec import JobRunner, ResultCache
from repro.exec.jobs import job_key, make_job
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.obs.export import dumps_json
from repro.sim.stats import RunStats
from repro.workloads.tsp import TSP
from repro.workloads.worker import WorkerBenchmark

from layers import FirstEvent

#: The paper's TSP seed (Figure 5's job).
PAPER_SEED = 7

PROTOCOL = "DirnH1SNB,ACK"

#: sha256 of a pass's output: ``RunStats.digest()`` for tsp256, the
#: ``repro analyze`` document bytes for worker-overflow-analyze.  Both
#: workloads run fixed paper inputs, so one digest holds for every
#: seed.  A workload without a pin is checked against the first pass
#: of its run.
PINNED: Dict[str, str] = {
    "tsp256": "258f599b78281bbbcc9b4d7b0993c787"
              "a84e0c4197e38c7f8033b2e9be91723b",
    "worker-overflow-analyze": "126ef063dba13c4c27e65b455aa48db8"
                               "b075366d45b932db6a9331556a75f56b",
}


class PassOutput(NamedTuple):
    """What one pass produced, once checked."""

    #: sha256 hex digest of the pass's output
    digest: str
    #: the run statistics of every job the pass simulated
    stats: List[RunStats]
    #: a problem the program itself can detect, or ``None``
    problem: Optional[str] = None


class Tsp256:
    """Figure 5's largest job: TSP on 256 nodes, observers off.

    The input is the paper's (TSP seed 7) whatever the benchmark seed:
    a new distance matrix changes the search tree under the seeded
    optimal bound from 33 k to 4.2 M expansions over seeds 1-12, and
    even relabeling the paper's cities, which keeps the tree, moved run
    cycles by up to 21 % over seeds 1-5.  Either would make the seed,
    not the simulator, set the numbers.
    """

    name = "tsp256"

    NODES = 256
    CITIES = 13
    PREFIX_DEPTH = 4

    #: no result cache, so no replay
    replay_lookups = replay_hits = 0

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def setup_round(self) -> None:
        try:
            self.run_pass()
        except FirstEvent:
            pass

    def run_pass(self):
        machine = Machine(MachineParams(n_nodes=self.NODES,
                                        victim_cache_enabled=True),
                          protocol=PROTOCOL, shards=1)
        tsp = TSP(n_cities=self.CITIES, prefix_depth=self.PREFIX_DEPTH,
                  seed=PAPER_SEED)
        return machine.run(tsp), tsp

    def check(self, result) -> PassOutput:
        stats, tsp = result
        problem = None
        # The search is seeded with the Held-Karp optimum, so it must
        # find a tour of exactly that length.
        if tsp.best_found != tsp.optimal:
            problem = (f"best tour {tsp.best_found} != Held-Karp "
                       f"optimum {tsp.optimal}")
        return PassOutput(stats.digest(), [stats], problem)


class WorkerOverflowAnalyze:
    """``repro analyze`` on WORKER (64 nodes, worker sets of 16, 4
    iterations), run as a job through the exec layer the way
    ``repro serve``'s ``/analyze`` runs it: span collection, simulation,
    attribution build and a result-cache write, then the report
    document.  The untimed check replays the job from the warm cache.
    """

    name = "worker-overflow-analyze"

    NODES = 64
    SIZE = 16
    ITERATIONS = 4

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.job = make_job(
            WorkerBenchmark,
            {"worker_set_size": self.SIZE, "iterations": self.ITERATIONS},
            protocol=PROTOCOL, n_nodes=self.NODES, victim_cache=True,
            software="flexible", attribution=True)
        self.config = reportgen.analyze_config(
            "worker", PROTOCOL, self.NODES, "flexible", "parallel",
            worker_set_size=self.SIZE, iterations=self.ITERATIONS)
        #: result-cache lookups and hits of the last warm replay
        self.replay_lookups = 0
        self.replay_hits = 0

    def setup_round(self) -> None:
        try:
            self._run(None)
        except FirstEvent:
            pass

    def run_pass(self):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        return cache_dir, self._run(ResultCache(cache_dir))

    def check(self, result) -> PassOutput:
        cache_dir, (data, stats) = result
        cache = ResultCache(cache_dir)
        try:
            replay, _ = self._run(cache)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.replay_lookups = cache.hits + cache.misses
        self.replay_hits = cache.hits
        residual = (stats.attribution or {}).get("residual")
        problem = None
        if residual != 0:
            problem = f"attribution residual {residual} != 0"
        elif cache.hits != 1:
            problem = "warm replay missed the result cache"
        elif replay != data:
            problem = "warm replay document differs from the cold one"
        return PassOutput(hashlib.sha256(data).hexdigest(), [stats], problem)

    def _run(self, cache: Optional[ResultCache]):
        runner = JobRunner(jobs=1, cache=cache, shards=1)
        stats = runner.run([self.job])[job_key(self.job)]
        doc = reportgen.analyze_doc(stats.attribution, self.config,
                                    stats.run_cycles, stats.speedup)
        return dumps_json(doc).encode("utf-8"), stats


WORKLOADS = {cls.name: cls for cls in (Tsp256, WorkerOverflowAnalyze)}
