"""Tests for the machine driver, processor accounting, barriers, heap
integration, and deadlock detection."""

import pytest

from repro.common.errors import ConfigurationError, DeadlockError
from repro.machine.machine import Machine
from repro.machine.params import MachineParams
from repro.workloads.base import Workload
from repro.workloads.worker import WorkerBenchmark

from tests.helpers import ScriptWorkload


def machine(n=4, protocol="DirnH2SNB", **overrides):
    return Machine(MachineParams(n_nodes=n, **overrides), protocol=protocol)


class TestRunLifecycle:
    def test_machine_is_single_use(self):
        m = machine()
        m.run(ScriptWorkload({0: [("compute", 10)]}))
        with pytest.raises(ConfigurationError):
            m.run(ScriptWorkload({0: [("compute", 10)]}))

    def test_run_cycles_is_last_processor_finish(self):
        m = machine()
        stats = m.run(ScriptWorkload(
            {0: [("compute", 100)], 1: [("compute", 350)]},
        ))
        assert stats.run_cycles == 350

    def test_pure_compute_accounting(self):
        m = machine()
        stats = m.run(ScriptWorkload({0: [("compute", 123)]}))
        assert stats.per_node[0].user_cycles == 123
        assert stats.sequential_cycles == 123

    def test_memory_ops_count_into_sequential_time(self):
        m = machine()
        addr = m.heap.alloc_block(0)
        stats = m.run(ScriptWorkload(
            {1: [("read", addr), ("write", addr), ("compute", 10)]},
        ))
        assert stats.sequential_cycles == (
            10 + 2 * m.params.cache_hit_latency)

    def test_cache_hits_after_fill(self):
        m = machine()
        addr = m.heap.alloc_block(0)
        ops = [("read", addr)] * 10
        stats = m.run(ScriptWorkload({1: ops}))
        assert stats.per_node[1].cache_misses == 1
        assert stats.per_node[1].cache_hits == 9

    def test_stall_cycles_recorded_for_misses(self):
        m = machine()
        addr = m.heap.alloc_block(0)
        stats = m.run(ScriptWorkload({2: [("read", addr)]}))
        assert stats.per_node[2].stall_cycles > 0

    def test_speedup_and_utilization(self):
        m = machine()
        stats = m.run(ScriptWorkload(
            {node: [("compute", 1000)] for node in range(4)},
        ))
        assert stats.speedup == pytest.approx(4.0, rel=0.05)
        assert stats.processor_utilization == pytest.approx(1.0, rel=0.05)

    def test_deadlock_detected_on_barrier_mismatch(self):
        class Unbalanced(Workload):
            name = "unbalanced"

            def setup(self, machine):
                pass

            def thread(self, machine, node_id):
                if node_id == 0:
                    yield ("barrier",)
                else:
                    yield ("compute", 5)

        m = machine()
        with pytest.raises(DeadlockError):
            m.run(Unbalanced())

    def test_max_cycles_cuts_run_short(self):
        m = machine()
        with pytest.raises(DeadlockError):
            m.run(ScriptWorkload({0: [("compute", 10_000)]}),
                  max_cycles=100)


class TestBarriers:
    def test_barrier_counts(self):
        m = machine(n=16)
        m.run(ScriptWorkload({}, barriers=3))
        assert m.barrier.barriers_completed == 3

    def test_barrier_joins_all_nodes(self):
        m = machine(n=9)
        finish = {}

        scripts = {node: [("compute", 100 * node), ("barrier",),
                          ("compute", 1)]
                   for node in range(9)}
        stats = m.run(ScriptWorkload(scripts))
        # No node can finish its tail compute before the slowest node
        # reaches the barrier.
        assert stats.run_cycles >= 800

    def test_tree_shape(self):
        m = machine(n=16)
        bar = m.barrier
        assert bar.parent(1) == 0
        assert bar.parent(4) == 0
        assert bar.parent(5) == 1
        assert bar.children(0) == [1, 2, 3, 4]
        assert bar.children(3) == [13, 14, 15]
        assert bar.expected(0) == 5


class TestCodeRegions:
    def test_register_code_assigns_disjoint_lines(self):
        m = machine()
        a = m.register_code("a", lines=2)
        b = m.register_code("b", lines=3)
        assert not set(a.offsets) & set(b.offsets)

    def test_register_code_idempotent(self):
        m = machine()
        a = m.register_code("a", lines=2)
        again = m.register_code("a", lines=2)
        assert a is again

    def test_code_blocks_are_per_node_and_same_colour(self):
        m = machine()
        a = m.register_code("a", lines=1)
        blocks = [a.blocks(node)[0] for node in range(4)]
        assert len(set(blocks)) == 4
        colours = {m.params.cache_set_of_block(b) for b in blocks}
        assert len(colours) == 1

    def test_is_code_block(self):
        m = machine()
        a = m.register_code("a", lines=1)
        assert m.is_code_block(a.blocks(2)[0])
        heap_addr = m.heap.alloc_block(2)
        assert not m.is_code_block(heap_addr >> m.params.block_shift)

    def test_code_region_exhaustion(self):
        m = machine(code_region_blocks=4)
        m.register_code("a", lines=4)
        with pytest.raises(ConfigurationError):
            m.register_code("b", lines=1)


class TestIfetch:
    def test_compute_with_code_fetches_instructions(self):
        m = machine()
        code = m.register_code("loop", lines=2)
        stats = m.run(ScriptWorkload({0: [("compute", 10, code)] * 3}))
        ns = stats.per_node[0]
        assert ns.ifetches == 6
        assert ns.cache_misses == 2  # cold misses only; then hits

    def test_perfect_ifetch_skips_the_cache(self):
        m = machine(perfect_ifetch=True)
        code = m.register_code("loop", lines=2)
        stats = m.run(ScriptWorkload({0: [("compute", 10, code)] * 3}))
        assert stats.per_node[0].ifetches == 0
        # Sequential accounting still charges them, so comparisons
        # between ifetch modes stay fair.
        assert m.seq_ifetches == 6

    def test_ifetch_conflicts_with_data(self):
        m = machine()
        code = m.register_code("loop", lines=1)
        addr = m.heap.alloc_block(0, color=code.cache_colors[0])
        ops = []
        for _ in range(5):
            ops.append(("compute", 5, code))
            ops.append(("read", addr))
        stats = m.run(ScriptWorkload({1: ops}))
        # Every iteration thrashes: code evicts data and vice versa.
        assert stats.per_node[1].cache_misses == 10


class TestHandlerSampleCollection:
    def test_samples_recorded(self):
        m = machine(n=16, protocol="DirnH1SNB,LACK")
        addr = m.heap.alloc_block(0)
        scripts = {node: [("compute", 50 * node), ("read", addr)]
                   for node in range(1, 4)}
        stats = m.run(ScriptWorkload(scripts))
        kinds = {s.kind for s in stats.handler_samples}
        assert "read" in kinds

    def test_collection_can_be_disabled(self):
        m = Machine(MachineParams(n_nodes=16), protocol="DirnH1SNB,LACK",
                    collect_handler_samples=False)
        stats = m.run(WorkerBenchmark(worker_set_size=4, iterations=1))
        assert stats.handler_samples == []
        assert stats.total_traps > 0


class TestSerialOnly:
    """The engine is serial; ``shards`` survives only as a keyword that
    callers may pin to 1."""

    def test_shards_one_is_accepted(self):
        from repro.exec import JobRunner

        stats = Machine(MachineParams(n_nodes=4), protocol="DirnH2SNB",
                        shards=1).run(ScriptWorkload({0: [("compute", 7)]}))
        assert stats.run_cycles == 7
        assert JobRunner(jobs=1, shards=1).n_workers == 1

    @pytest.mark.parametrize("shards", [0, 2, "auto"])
    def test_other_shard_counts_are_rejected(self, shards):
        from repro.exec import JobRunner

        with pytest.raises(ConfigurationError, match="sharded execution "
                                                     "was removed"):
            Machine(MachineParams(n_nodes=4), shards=shards)
        with pytest.raises(ConfigurationError, match="sharded execution "
                                                     "was removed"):
            JobRunner(jobs=1, shards=shards)
