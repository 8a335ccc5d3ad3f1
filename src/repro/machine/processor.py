"""Processor model.

Each node's processor executes a *workload thread* — a Python generator
yielding architectural operations:

- ``("compute", cycles)`` or ``("compute", cycles, code_ref)`` — spin the
  ALU; with a code reference, first fetch that code's instruction lines
  through the cache (unless the *perfect ifetch* simulator option is on);
- ``("read", addr)`` / ``("write", addr)`` — a data access;
- ``("barrier",)`` — wait at the machine-wide barrier;
- ``("lock", id)`` / ``("unlock", id)`` — the FIFO lock (Section 7);
- ``("reduce", id, value)`` — a combining-tree global reduction;
- ``("checkin", addr)`` — a CICO check-in annotation (Sections 2.5/7).

The processor is a blocking (Sparcle-style) core: one outstanding memory
transaction, and protocol software pre-empts user code.  Handlers queue
FIFO on the node's single software context; user compute resumes when the
context drains.  Short operations (cache hits, small computes) are batched
into one event to keep the simulation fast; the batch window is small
enough (tens of cycles) that the timing error is negligible relative to
handler and network latencies.

The livelock watchdog of Section 4.1 is implemented here: for protocols
that trap on every acknowledgement, a node whose user code has made no
progress for a threshold period defers further asynchronous traps for a
grace window so user code can run "unmolested".
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.common.errors import WorkloadError
from repro.common.types import AccessType, TrapKind
from repro.core.software.costmodel import HandlerCost
from repro.obs.events import HandlerSpan, StallSpan, UserSpan
from repro.sim.stats import HandlerSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import CodeRef
    from repro.machine.node import Node

#: Cycles of cheap work folded into a single simulation event.
BATCH_LIMIT = 48


class ProcState(enum.Enum):
    """What a processor is doing at this instant."""

    IDLE = "idle"
    RUNNING = "running"
    COMPUTING = "computing"  # long preemptible compute in progress
    PREEMPTED = "preempted"  # compute interrupted by a handler
    STALLED = "stalled"  # blocked on a memory transaction
    WAIT_SW = "wait_sw"  # ready to run, software context busy
    BARRIER = "barrier"
    DONE = "done"


class Processor:
    """One node's processor: user thread + protocol software context."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.machine = node.machine
        self.sim = node.machine.sim
        self.params = node.machine.params
        self.state = ProcState.IDLE
        self._thread: Optional[Iterator[tuple]] = None
        #: pending micro-operations of the current architectural op
        self._micro: List[tuple] = []
        self._gen = 0  # invalidates stale scheduled user events
        self._compute_started = 0
        self._compute_remaining = 0
        self._stall_started = 0
        self._stall_kind = ""
        self._stall_block: Optional[int] = None
        self._stall_txn: Optional[int] = None
        # Software context (protocol handlers serialise here).
        self.sw_busy_until = 0
        self._traps_deferred_until = 0
        self._last_progress = 0
        self.watchdog_enabled = False
        self.done_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, thread: Iterator[tuple]) -> None:
        self._thread = thread
        self.state = ProcState.RUNNING
        self._last_progress = self.sim.now
        # The start event is owned by this node, not by whatever context
        # called start() (workload setup runs as node 0), so each node's
        # sequence numbers depend only on its own history.
        self.sim.after(0, self._guarded(self._step), owner=self.node.id)

    @property
    def done(self) -> bool:
        return self.state is ProcState.DONE

    def _guarded(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Wrap a user-side event so stale schedules are ignored."""
        gen = self._gen

        def run() -> None:
            if gen == self._gen:
                fn()

        return run

    def _invalidate_user_events(self) -> None:
        self._gen += 1

    # ------------------------------------------------------------------
    # User execution
    # ------------------------------------------------------------------

    def _next_micro(self) -> Optional[tuple]:
        if self._micro:
            return self._micro.pop(0)
        assert self._thread is not None
        try:
            op = next(self._thread)
        except StopIteration:
            return None
        self._expand(op)
        if not self._micro:
            raise WorkloadError(f"workload yielded empty op {op!r}")
        return self._micro.pop(0)

    def _expand(self, op: tuple) -> None:
        """Translate an architectural op into micro-ops."""
        kind = op[0]
        machine = self.machine
        if kind == "compute":
            cycles = op[1]
            if cycles < 0:
                raise WorkloadError(f"negative compute {op!r}")
            code_ref: Optional["CodeRef"] = op[2] if len(op) > 2 else None
            if code_ref is not None:
                machine.seq_ifetches += len(code_ref.offsets)
                if not self.params.perfect_ifetch:
                    for block in code_ref.blocks(self.node.id):
                        self._micro.append(("ifetch", block))
            machine.seq_compute += cycles
            if cycles:
                self._micro.append(("compute", cycles))
            elif not self._micro:
                self._micro.append(("compute", 0))
        elif kind in ("read", "write"):
            machine.seq_mem_ops += 1
            access = (AccessType.WRITE if kind == "write"
                      else AccessType.READ)
            self._micro.append(("access", access, op[1]))
        elif kind == "barrier":
            self._micro.append(("barrier",))
        elif kind == "lock":
            self._micro.append(("lock", op[1]))
        elif kind == "unlock":
            self._micro.append(("unlock", op[1]))
        elif kind == "reduce":
            self._micro.append(("reduce", op[1], op[2]))
        elif kind == "checkin":
            self._micro.append(("checkin", op[1]))
        else:
            raise WorkloadError(f"unknown workload op {op!r}")

    def _step(self) -> None:
        """Run user micro-ops from ``sim.now``, batching cheap work."""
        now = self.sim.now
        if self.sw_busy_until > now:
            # The software context owns the core; try again when it frees.
            self.state = ProcState.WAIT_SW
            self.node.stats.stall_cycles += self.sw_busy_until - now
            obs = self.machine.obs
            if obs is not None and obs.on_stall:
                obs.stall(StallSpan(self.node.id, now, self.sw_busy_until,
                                    "sw_wait"))
            self.sim.at(self.sw_busy_until, self._guarded(self._step))
            return
        self.state = ProcState.RUNNING
        acc = 0
        stats = self.node.stats
        while True:
            micro = self._next_micro()
            if micro is None:
                self._finish(now + acc, acc)
                return
            kind = micro[0]
            if kind == "compute":
                cycles = micro[1]
                if cycles <= BATCH_LIMIT - acc:
                    acc += cycles
                else:
                    self._consume(acc)
                    self._begin_compute(now + acc, cycles)
                    return
            elif kind == "access":
                _tag, access, addr = micro
                block = addr >> self.params.block_shift
                if access is AccessType.WRITE:
                    stats.stores += 1
                else:
                    stats.loads += 1
                latency = self.node.cache_ctrl.try_hit(access, block)
                if latency is None:
                    self._consume(acc)
                    self._begin_miss(now + acc, access, block)
                    return
                acc += latency
            elif kind == "ifetch":
                block = micro[1]
                stats.ifetches += 1
                latency = self.node.cache_ctrl.try_hit(
                    AccessType.IFETCH, block)
                if latency is None:
                    self._consume(acc)
                    self._begin_ifetch_miss(now + acc, block)
                    return
                acc += latency
            elif kind == "barrier":
                self._consume(acc)
                self._begin_barrier(now + acc)
                return
            elif kind == "lock":
                self._consume(acc)
                self._begin_lock(now + acc, micro[1])
                return
            elif kind == "reduce":
                self._consume(acc)
                self._begin_reduce(now + acc, micro[1], micro[2])
                return
            elif kind == "checkin":
                addr = micro[1]
                block = addr >> self.params.block_shift
                at = now + acc

                def do_checkin(b=block) -> None:
                    self.node.cache_ctrl.check_in(b)

                if at > self.sim.now:
                    self.sim.at(at, do_checkin)
                else:
                    do_checkin()
                acc += 2  # the CICO instruction itself
            elif kind == "unlock":
                lock_id = micro[1]
                at = now + acc

                def send_release(lid=lock_id, t=at) -> None:
                    self.machine.locks.release(self.node.id, lid)

                if at > self.sim.now:
                    self.sim.at(at, send_release)
                else:
                    send_release()
                acc += 2  # compose-and-launch cost
            if acc >= BATCH_LIMIT:
                self._consume(acc)
                self.sim.at(now + acc, self._guarded(self._step))
                return

    def _consume(self, cycles: int,
                 span_start: Optional[int] = None) -> None:
        if cycles:
            self.node.stats.user_cycles += cycles
            self._last_progress = self.sim.now + cycles
            obs = self.machine.obs
            if obs is not None and obs.on_user:
                start = self.sim.now if span_start is None else span_start
                obs.user(UserSpan(self.node.id, start, start + cycles))

    def _finish(self, at: int, acc: int) -> None:
        self._consume(acc)
        self.state = ProcState.DONE
        self.done_at = at
        self.machine.note_processor_done(self.node.id, at)

    # ------------------------------------------------------------------
    # Long (preemptible) compute
    # ------------------------------------------------------------------

    def _begin_compute(self, at: int, cycles: int) -> None:
        """Schedule a preemptible compute burst starting at ``at``."""
        self.state = ProcState.COMPUTING
        self._compute_remaining = cycles

        def begin() -> None:
            self._resume_compute()

        if at > self.sim.now:
            self.sim.at(at, self._guarded(begin))
        else:
            begin()

    def _resume_compute(self) -> None:
        now = self.sim.now
        if self.sw_busy_until > now:
            self.state = ProcState.PREEMPTED
            return  # _on_sw_idle will resume us
        self.state = ProcState.COMPUTING
        self._compute_started = now
        remaining = self._compute_remaining
        self._invalidate_user_events()
        self.sim.at(now + remaining, self._guarded(self._finish_compute))

    def _finish_compute(self) -> None:
        self._consume(self._compute_remaining,
                      span_start=self._compute_started)
        self._compute_remaining = 0
        self.state = ProcState.RUNNING
        self._step()

    def _preempt_compute(self) -> None:
        """A handler arrived while computing: split the burst."""
        now = self.sim.now
        consumed = now - self._compute_started
        self._consume(consumed if consumed > 0 else 0,
                      span_start=self._compute_started)
        self._compute_remaining -= consumed
        self._invalidate_user_events()
        self.state = ProcState.PREEMPTED

    # ------------------------------------------------------------------
    # Memory stalls
    # ------------------------------------------------------------------

    def _begin_miss(self, at: int, access: AccessType, block: int) -> None:
        self.state = ProcState.STALLED
        self._stall_started = at
        self._stall_kind = ("write" if access is AccessType.WRITE
                            else "read")
        self._stall_block = block
        # Every data miss opens a coherence transaction; the id follows
        # the miss through every message/trap/handler it causes.  Ids
        # are allocated from a per-node counter (interleaved modulo
        # n_nodes), so a node's ids depend only on its own deterministic
        # history — identical across runs.
        txn = self.machine.next_txn(self.node.id)
        self._stall_txn = txn

        def issue() -> None:
            self.node.cache_ctrl.start_miss(access, block,
                                            self._memory_done, txn=txn)

        if at > self.sim.now:
            self.sim.at(at, self._guarded(issue))
        else:
            issue()

    def _begin_ifetch_miss(self, at: int, block: int) -> None:
        self.state = ProcState.STALLED
        self._stall_started = at
        self._stall_kind = "ifetch"
        self._stall_block = block
        self._stall_txn = None

        def issue() -> None:
            self.node.cache_ctrl.start_ifetch_miss(block, self._memory_done)

        if at > self.sim.now:
            self.sim.at(at, self._guarded(issue))
        else:
            issue()

    def _memory_done(self) -> None:
        now = self.sim.now
        self.node.stats.stall_cycles += now - self._stall_started
        obs = self.machine.obs
        if obs is not None and obs.on_stall:
            obs.stall(StallSpan(self.node.id, self._stall_started, now,
                                self._stall_kind, self._stall_block,
                                self._stall_txn))
        self.state = ProcState.RUNNING
        self._invalidate_user_events()
        self._step()

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def _begin_barrier(self, at: int) -> None:
        self.state = ProcState.BARRIER

        def arrive() -> None:
            self.machine.barrier.arrive(self.node.id)

        if at > self.sim.now:
            self.sim.at(at, self._guarded(arrive))
        else:
            arrive()

    def _begin_lock(self, at: int, lock_id: int) -> None:
        self.state = ProcState.STALLED
        self._stall_started = at
        self._stall_kind = "lock"
        self._stall_block = None
        self._stall_txn = None

        def request() -> None:
            self.machine.locks.acquire(self.node.id, lock_id,
                                       self._memory_done)

        if at > self.sim.now:
            self.sim.at(at, self._guarded(request))
        else:
            request()

    def _begin_reduce(self, at: int, reduce_id: int,
                      value: object) -> None:
        self.state = ProcState.STALLED
        self._stall_started = at
        self._stall_kind = "reduce"
        self._stall_block = None
        self._stall_txn = None

        def contribute() -> None:
            self.machine.reductions.contribute(
                self.node.id, reduce_id, value, self._memory_done)

        if at > self.sim.now:
            self.sim.at(at, self._guarded(contribute))
        else:
            contribute()

    def barrier_release(self) -> None:
        if self.state is not ProcState.BARRIER:
            return
        self.state = ProcState.RUNNING
        self._invalidate_user_events()
        self._step()

    # ------------------------------------------------------------------
    # Protocol software context
    # ------------------------------------------------------------------

    def post_trap(self, kind: TrapKind, cost: HandlerCost,
                  completion: Callable[[], None], pointers: int = 0,
                  implementation: str = "flexible",
                  txn: Optional[int] = None) -> None:
        """Queue a protocol handler on this node's processor."""
        now = self.sim.now
        if self.state is ProcState.COMPUTING:
            self._preempt_compute()
        start = max(now, self.sw_busy_until, self._traps_deferred_until)

        if (self.watchdog_enabled
                and self.state in (ProcState.PREEMPTED, ProcState.WAIT_SW,
                                   ProcState.RUNNING)
                and start - self._last_progress
                > self.params.watchdog_threshold):
            # Livelock watchdog: shut off asynchronous events for a
            # window so user code can make progress (Section 4.1).
            self._traps_deferred_until = max(
                self._traps_deferred_until,
                now + self.params.watchdog_window,
            )
            start = max(start, self._traps_deferred_until)
            self.node.stats.watchdog_activations += 1
            if self.sw_busy_until <= now:
                self._on_sw_idle()

        latency = cost.latency + self.params.trap_dispatch_overhead
        self.sw_busy_until = start + latency
        stats = self.node.stats
        stats.traps[kind.value] += 1
        stats.handler_cycles += latency
        self.machine.record_handler_sample(HandlerSample(
            kind=_sample_kind(kind),
            implementation=implementation,
            node=self.node.id,
            pointers=pointers,
            latency=cost.latency,
            breakdown=cost.breakdown,
        ))
        obs = self.machine.obs
        if obs is not None and obs.on_handler:
            obs.handler(HandlerSpan(
                node=self.node.id, start=start,
                end=self.sw_busy_until, kind=_sample_kind(kind),
                implementation=implementation, pointers=pointers,
                latency=cost.latency, txn=txn,
            ))

        def complete() -> None:
            completion()
            if self.sw_busy_until <= self.sim.now:
                self._on_sw_idle()

        self.sim.at(self.sw_busy_until, complete)

    def _on_sw_idle(self) -> None:
        """The software context drained; resume pre-empted user work."""
        if self.state is ProcState.PREEMPTED:
            if self._compute_remaining > 0:
                self._resume_compute()
            else:
                self.state = ProcState.RUNNING
                self._invalidate_user_events()
                self._step()
        elif self.state is ProcState.WAIT_SW:
            self._invalidate_user_events()
            self._step()


_SAMPLE_KINDS = {
    TrapKind.READ_OVERFLOW: "read",
    TrapKind.WRITE_EXTENDED: "write",
    TrapKind.ACK_SOFTWARE: "ack",
    TrapKind.ACK_LAST: "last_ack",
    TrapKind.LOCAL_FAULT: "local",
    TrapKind.REMOTE_REQUEST: "remote",
}


def _sample_kind(kind: TrapKind) -> str:
    return _SAMPLE_KINDS[kind]
