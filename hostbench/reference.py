"""A fixed pure-Python reference workload that calibrates host speed.

On a shared 2-vCPU sandbox the host's speed drifts by tens of percent
over minutes, so raw wall seconds of the same pass differ more between
runs than any regression bound could tolerate.  The runner times this
reference before and after every pass, in the same process, and scales
the pass's seconds by how much slower or faster the reference ran than
:data:`REFERENCE_S`: a time in "seconds on a host where the reference
takes :data:`REFERENCE_S`".  The reference shares no code with
``repro``, so a change to the simulator cannot move it.

It exercises what the simulator's hot loop does: a heap of timed
events, closures, dict lookups, slot-attribute updates and small
allocations.
"""

from __future__ import annotations

import heapq
import time

#: The reference's wall seconds on the host the benchmark was defined
#: on (2-vCPU KVM sandbox, Python 3.11): the median over about 200 runs
#: was 0.35-0.37 s.  Only the scale of the calibrated times depends on
#: it.
REFERENCE_S = 0.35

EVENTS = 40_000
#: Cells touched at random: a working set of some 20 MB, because the
#: simulator's own (tens to hundreds of MB) makes it sensitive to
#: memory contention from other tenants as well as to CPU speed.  A
#: reference of 1,024 cells tracked the simulator's passes half as well.
CELLS = 1 << 17


class _Cell:
    __slots__ = ("state", "count")

    def __init__(self) -> None:
        self.state = 0
        self.count = 0


def reference_work() -> int:
    """Run the reference once; returns a checksum of its result."""
    cells = {(i * 2654435761) & 0xFFFFFFFF: _Cell() for i in range(CELLS)}
    keys = list(cells)
    heap: list = []

    def event(i: int):
        def fire() -> int:
            cell = cells[keys[(i * 40503) % CELLS]]
            cell.count += 1
            cell.state = (cell.state * 31 + i) & 0xFFFF
            return cell.state

        return fire

    for i in range(EVENTS):
        heapq.heappush(heap, ((i * 7919) % 10007, i, event(i)))
    total = 0
    while heap:
        _time, _i, fire = heapq.heappop(heap)
        total += fire()
    return total


#: :func:`reference_work`'s checksum; a different value means the
#: reference no longer does the same work.
CHECKSUM = 799980000


def reference_seconds() -> float:
    """Wall seconds of one run of the reference."""
    started = time.perf_counter()
    total = reference_work()
    elapsed = time.perf_counter() - started
    if total != CHECKSUM:
        raise RuntimeError(f"reference checksum {total} != {CHECKSUM}")
    return elapsed
