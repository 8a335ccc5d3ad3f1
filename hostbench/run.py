#!/usr/bin/env python3
"""Host-time benchmark of the ``repro`` simulator.

Run from the root of a checkout::

    python3 hostbench/run.py --workload tsp256 --seed 7 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer table.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Progress and failures go to standard error.  See README.md in this
directory for the workloads, the metrics and how to read the table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (result caches, the span window)
WORKDIR = ROOT / ".hostbench"

#: share of a run spent on set-up-only rounds, and the fewest and most
#: rounds in each batch (one batch before every pass)
SETUP_SHARE = 0.2
SETUP_BATCH = (4, 16)

#: interpreter start plus the imports the benchmark's workloads need
IMPORT_PROBE = ("import repro, repro.exec, repro.analysis.reportgen, "
                "repro.obs.attribution, repro.workloads")
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "host_s": "s",
    "sim_accesses_per_s": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_run_cycles": "cycles",
}

MODEL_FIELDS = ("accesses", "cache_hits", "cache_misses", "victim_hits",
                "evictions", "messages", "traps", "handler_cycles",
                "invalidations_hw", "invalidations_sw", "stall_cycles",
                "busy_replies", "retries", "watchdog_activations")


def ensure_repro_importable() -> bool:
    """Put the checkout's ``src`` first on the path; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Passes and their checks
# ----------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed, and the expected output digest.

    Every pass is one operation.  A pass fails when it raises, when the
    program reports a problem with its own output, or when its digest
    differs from the pinned one (without a pin, from the run's first
    pass).
    """

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def verdict(self, output) -> Optional[str]:
        """Record one pass; returns why it failed, or ``None``."""
        self.attempted += 1
        reason = output.problem
        if reason is None:
            if self.expected is None:
                self.expected = output.digest
            elif output.digest != self.expected:
                reason = (f"output digest {output.digest} != expected "
                          f"{self.expected}")
        if reason is not None:
            self.failed += 1
        return reason

    def crashed(self) -> None:
        self.attempted += 1
        self.failed += 1


def timed_pass(workload, clock, ledger: Ledger):
    """Run, time and check one pass.

    Returns ``(host_s, digest, counts)``, all ``None`` if the pass
    raised; ``host_s`` excludes the machines' set-up (construction to
    first event).  Only these numbers outlive the call, so no pass holds
    memory while the next one runs and peak RSS is one pass's.
    """
    clock.total = 0.0
    started = time.perf_counter()
    try:
        result = workload.run_pass()
    except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
        traceback.print_exc()
        ledger.crashed()
        return None, None, None
    host_s = time.perf_counter() - started - clock.total
    output = workload.check(result)
    del result
    reason = ledger.verdict(output)
    log(f"{workload.name}: pass {ledger.attempted} host {host_s:.3f} s "
        f"digest {output.digest}"
        + ("" if reason is None else f" FAILED: {reason}"))
    return host_s, output.digest, model_counts(output.stats)


def warm_up(workload, clock) -> None:
    """One set-up-only round, discarded: it pays one-off costs
    (protocol-table compilation, memoised Held-Karp) that later passes
    and rounds do not."""
    clock.stop_at_first_event = True
    try:
        workload.setup_round()
    finally:
        clock.stop_at_first_event = False


def setup_batch(workload, clock, budget_s: float,
                samples: List[float]) -> None:
    """Append set-up-only round times to ``samples`` for ``budget_s``
    seconds, within :data:`SETUP_BATCH` rounds.  Each round starts from
    a collected heap, so rounds do not pay for each other's garbage."""
    low, high = SETUP_BATCH
    started = time.perf_counter()
    clock.stop_at_first_event = True
    try:
        for done in range(high):
            if done >= low and time.perf_counter() - started >= budget_s:
                break
            gc.collect()
            clock.total = 0.0
            workload.setup_round()
            samples.append(clock.total)
    finally:
        clock.stop_at_first_event = False


def model_counts(stats_list) -> Dict[str, int]:
    """:data:`MODEL_FIELDS` and ``run_cycles``, summed over nodes and
    jobs."""
    counts = dict.fromkeys(MODEL_FIELDS, 0)
    counts["run_cycles"] = sum(stats.run_cycles for stats in stats_list)
    for stats in stats_list:
        for ns in stats.per_node:
            for field in MODEL_FIELDS:
                if field == "messages":
                    counts[field] += sum(ns.messages_sent.values())
                elif field == "traps":
                    counts[field] += sum(ns.traps.values())
                else:
                    counts[field] += getattr(ns, field)
    return counts


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def run_untraced(workload, ledger: Ledger, seconds: float) -> Dict:
    from layers import SetupClock
    from reference import REFERENCE_S, reference_seconds

    clock = SetupClock()
    clock.install()
    try:
        warm_up(workload, clock)
        deadline = time.perf_counter() + seconds
        setup: List[float] = []
        host: List[float] = []
        raw: List[float] = []
        walls: List[float] = []
        counts = None
        peak_rss_mb = 0.0
        before: Optional[float] = None
        # Set-up rounds go in batches between passes, so that both
        # sample the whole run; another pass starts while at least half
        # of one fits.  Each batch and pass is scaled to the reference
        # speed measured just before and just after it.  The first pass
        # has no reference before it: the reference's own memory would
        # otherwise count in the peak RSS, which is read after that pass.
        while not walls or (time.perf_counter()
                            + statistics.median(walls) / 2 < deadline):
            budget = SETUP_SHARE * statistics.median(walls) if walls else 0
            batch: List[float] = []
            setup_batch(workload, clock, budget, batch)
            gc.collect()
            pass_started = time.perf_counter()
            host_s, _digest, pass_counts = timed_pass(workload, clock,
                                                      ledger)
            walls.append(time.perf_counter() - pass_started)
            if before is None:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            after = reference_seconds()
            speed = after if before is None else (before + after) / 2
            scale = REFERENCE_S / speed
            log(f"  reference {speed:.3f} s: scale {scale:.3f}")
            before = after
            setup.extend(sample * scale for sample in batch)
            if host_s is not None:
                raw.append(host_s)
                host.append(host_s * scale)
                counts = counts or pass_counts
    finally:
        clock.uninstall()
    if counts is None:
        raise RuntimeError(f"{workload.name}: every pass failed")
    host_s = statistics.median(host)
    log(f"{workload.name}: {len(host)} passes, {len(setup)} set-up rounds, "
        f"median uncalibrated host {statistics.median(raw):.3f} s")
    values = {
        "host_s": host_s,
        "sim_accesses_per_s": counts["accesses"] / host_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "sim_run_cycles": counts["run_cycles"],
    }
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------

def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``repro``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                       check=True, cwd=str(ROOT))
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_traced(workload, ledger: Ledger) -> Dict:
    from layers import LAYERS, OTHER, SetupClock, Tracer
    from reference import reference_seconds

    clock = SetupClock()
    clock.install()
    tracer = Tracer()
    try:
        warm_up(workload, clock)
        speed = [reference_seconds()]
        untraced_s, untraced, counts = timed_pass(workload, clock, ledger)
        speed.append(reference_seconds())
        tracer.install()
        tracer.start()
        traced_s, traced, _counts = timed_pass(workload, clock, ledger)
        pass_s = tracer.stop()
    finally:
        tracer.uninstall()
        clock.uninstall()
    speed.append(reference_seconds())
    if untraced_s is None or traced_s is None:
        raise RuntimeError(f"{workload.name}: a pass failed")
    if traced != untraced:
        # The wrappers must not perturb the simulation.
        ledger.failed += 1
        log(f"{workload.name}: traced digest {traced} != untraced "
            f"{untraced}")
    write_spans(workload.name, tracer)

    values: Dict[str, tuple] = {}
    for layer in LAYERS + (OTHER,):
        self_s = tracer.self_s.get(layer, 0.0)
        if layer != OTHER:
            values[f"{layer}.calls"] = (tracer.calls.get(layer, 0), "count")
        values[f"{layer}.self_s"] = (self_s, "s")
        values[f"{layer}.share"] = (self_s / pass_s, "ratio")
    values["import.self_s"] = (import_seconds(), "s")
    values["trace.pass_s"] = (pass_s, "s")

    for field in MODEL_FIELDS:
        values[f"model.{field}"] = (
            counts[field], "cycles" if field.endswith("_cycles") else "count")
    lookups = counts["cache_hits"] + counts["cache_misses"]
    values["cache.hit_ratio"] = (
        counts["cache_hits"] / lookups if lookups else 0.0, "ratio")
    # Misses served per request sent: a refused request (BUSY) is
    # retried, so requests = misses + retries.
    requests = counts["cache_misses"] + counts["retries"]
    values["home.first_try_ratio"] = (
        counts["cache_misses"] / requests if requests else 1.0, "ratio")
    lookups = workload.replay_lookups
    values["exec.cache_hit_ratio"] = (
        workload.replay_hits / lookups if lookups else 0.0, "ratio")
    # Each pass is taken at the reference speed measured around it.
    untraced_ref = (speed[0] + speed[1]) / 2
    traced_ref = (speed[1] + speed[2]) / 2
    values["tracing.overhead_ratio"] = (
        (traced_s / traced_ref) / (untraced_s / untraced_ref), "ratio")

    print_table(workload.name, tracer, pass_s)
    return {name: metric(value, unit)
            for name, (value, unit) in values.items()}


def write_spans(name: str, tracer) -> None:
    """Keep the bounded window of raw spans for inspection."""
    path = WORKDIR / f"spans-{name}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for layer, parent, start, end in tracer.recent:
            fh.write(json.dumps({"layer": layer, "parent": parent,
                                 "start_s": start, "end_s": end}) + "\n")


def print_table(name: str, tracer, pass_s: float) -> None:
    from layers import LAYERS, OTHER

    print(f"{name}: traced pass {pass_s:.3f} s")
    print(f"{'layer':<14}{'calls':>12}{'self_s':>11}{'share':>8}")
    rows = sorted(LAYERS + (OTHER,),
                  key=lambda layer: -tracer.self_s.get(layer, 0.0))
    for layer in rows:
        self_s = tracer.self_s.get(layer, 0.0)
        calls = "" if layer == OTHER else tracer.calls.get(layer, 0)
        print(f"{layer:<14}{calls:>12}{self_s:>11.3f}"
              f"{self_s / pass_s:>8.1%}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ensure_repro_importable():
        log(f"error: no repro package under {SRC}; run from the root of "
            f"a checkout")
        return 2
    # Execution knobs from the environment would change what is run.
    for var in ("REPRO_DISPATCH", "REPRO_SHARDS"):
        os.environ.pop(var, None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}")
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        # Both workloads run fixed paper inputs (see README.md), so the
        # seed is only recorded.
        log(f"{args.workload}: seed {args.seed}")
        workload = workloads.WORKLOADS[args.workload](workdir)
        ledger = Ledger(workloads.PINNED.get(args.workload))
        if args.trace:
            metrics = run_traced(workload, ledger)
        else:
            metrics = run_untraced(workload, ledger, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
