"""Unit tests for cache, write buffer, memory module and directory."""

import pytest

from repro.config import MachineConfig
from repro.engine import Simulator
from repro.memsys import (
    Cache, CacheState, Directory, DirState, MemoryModule, WriteBuffer,
)
from repro.memsys.writebuffer import PendingWrite


class TestCache:
    def make(self, lines=16):
        return Cache(lines, 64)

    def test_miss_on_empty(self):
        c = self.make()
        assert c.lookup(0) is None
        assert not c.contains(0)

    def test_install_and_lookup(self):
        c = self.make()
        c.install(5, CacheState.SHARED, {320: 7})
        line = c.lookup(5)
        assert line is not None
        assert line.state is CacheState.SHARED
        assert line.data[320] == 7

    def test_direct_mapped_conflict_evicts(self):
        c = self.make(lines=16)
        c.install(3, CacheState.MODIFIED, {0: 1})
        evicted = c.install(19, CacheState.SHARED, {})  # 19 % 16 == 3
        assert evicted is not None
        assert evicted.block == 3
        assert evicted.state is CacheState.MODIFIED
        assert evicted.data == {0: 1}
        assert c.lookup(3) is None
        assert c.contains(19)

    def test_reinstall_same_block_no_eviction(self):
        c = self.make()
        c.install(3, CacheState.SHARED, {})
        assert c.install(3, CacheState.MODIFIED, {}) is None

    def test_invalidate(self):
        c = self.make()
        c.install(2, CacheState.SHARED, {128: 9})
        old = c.invalidate(2)
        assert old.data[128] == 9
        assert c.lookup(2) is None
        assert c.invalidate(2) is None

    def test_write_word(self):
        c = self.make()
        assert c.write_word(1, 64, 5) is False  # not cached
        c.install(1, CacheState.VALID, {})
        assert c.write_word(1, 64, 5) is True
        assert c.read_word(1, 64) == 5

    def test_read_word_default_zero(self):
        c = self.make()
        c.install(1, CacheState.VALID, {})
        assert c.read_word(1, 68) == 0

    def test_watchers_fire_once_per_change(self):
        c = self.make()
        c.install(1, CacheState.VALID, {})
        hits = []
        c.watch(1, lambda: hits.append("a"))
        c.write_word(1, 64, 2)
        assert hits == ["a"]
        c.write_word(1, 64, 3)      # watcher is one-shot
        assert hits == ["a"]

    def test_watchers_fire_on_invalidate_and_install(self):
        c = self.make()
        c.install(1, CacheState.VALID, {})
        hits = []
        c.watch(1, lambda: hits.append("inv"))
        c.invalidate(1)
        assert hits == ["inv"]
        c.watch(1, lambda: hits.append("fill"))
        c.install(1, CacheState.VALID, {})
        assert hits == ["inv", "fill"]

    def test_occupancy_and_resident_blocks(self):
        c = self.make()
        c.install(1, CacheState.VALID, {})
        c.install(2, CacheState.VALID, {})
        assert sorted(c.resident_blocks()) == [1, 2]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Cache(0, 64)


class TestWriteBuffer:
    def make(self, cap=4):
        return WriteBuffer(cap)

    def pw(self, word, value=0):
        return PendingWrite(word, word, word // 64, value)

    def test_fifo_order(self):
        wb = self.make()
        a, b = self.pw(0, 1), self.pw(4, 2)
        wb.enqueue(a)
        wb.enqueue(b)
        assert wb.head() is a
        assert wb.pop() is a
        assert wb.pop() is b

    def test_capacity(self):
        wb = self.make(2)
        wb.enqueue(self.pw(0))
        wb.enqueue(self.pw(4))
        assert wb.full
        with pytest.raises(RuntimeError):
            wb.enqueue(self.pw(8))

    def test_writes_to_oldest_first(self):
        wb = self.make()
        assert wb.writes_to(8) == ()        # empty buffer: no list built
        a, b = self.pw(8, 1), self.pw(8, 2)
        wb.enqueue(a)
        wb.enqueue(self.pw(12, 3))
        wb.enqueue(b)
        assert wb.writes_to(8) == [a, b]
        assert wb.writes_to(16) == []

    def test_space_waiters_woken_on_pop(self):
        wb = self.make(1)
        wb.enqueue(self.pw(0))
        woken = []
        wb.on_space(lambda: woken.append(1))
        assert not woken
        wb.pop()
        assert woken == [1]

    def test_pending_blocks(self):
        wb = self.make()
        wb.enqueue(PendingWrite(100, 100, 1, 0))
        wb.enqueue(PendingWrite(200, 200, 3, 0))
        assert wb.pending_blocks() == [1, 3]

    def test_write_ids_unique(self):
        ids = {self.pw(0).write_id for _ in range(100)}
        assert len(ids) == 100


class TestMemoryModule:
    def make(self):
        sim = Simulator()
        cfg = MachineConfig(num_procs=4)
        return sim, MemoryModule(sim, cfg, 0)

    def test_uninitialized_reads_zero(self):
        _, mem = self.make()
        assert mem.read_word(64) == 0

    def test_word_roundtrip(self):
        _, mem = self.make()
        mem.write_word(64, 42)
        assert mem.read_word(64) == 42

    def test_block_roundtrip(self):
        _, mem = self.make()
        mem.write_block(1, {64: 1, 68: 2})
        assert mem.read_block(1) == {64: 1, 68: 2}
        assert mem.read_block(2) == {}

    def test_block_access_timing(self):
        _, mem = self.make()
        # 20 cycles first word + 15 more words at 1/cycle
        assert mem.block_access_cycles() == 35

    def test_reserve_fifo_occupancy(self):
        sim, mem = self.make()
        t1 = mem.reserve(10)
        t2 = mem.reserve(10)
        assert t1 == 10
        assert t2 == 20
        assert mem.wait_cycles == 10
        sim.now = 50
        t3 = mem.reserve(5)
        assert t3 == 55
        assert mem.accesses == 3


class TestDirectory:
    def test_entry_creation_lazy(self):
        d = Directory(0)
        assert d.peek(7) is None
        ent = d.entry(7)
        assert ent.state is DirState.UNOWNED
        assert d.peek(7) is ent

    def test_acquire_runs_when_free(self):
        d = Directory(0)
        ran = []
        d.acquire(1, lambda: ran.append("a"))
        assert ran == ["a"]
        assert d.entry(1).busy

    def test_acquire_queues_when_busy(self):
        d = Directory(0)
        ran = []
        d.acquire(1, lambda: ran.append("a"))
        d.acquire(1, lambda: ran.append("b"))
        d.acquire(1, lambda: ran.append("c"))
        assert ran == ["a"]
        d.release(1)
        assert ran == ["a", "b"]
        d.release(1)
        assert ran == ["a", "b", "c"]
        d.release(1)
        assert not d.entry(1).busy

    def test_independent_blocks_do_not_queue(self):
        d = Directory(0)
        ran = []
        d.acquire(1, lambda: ran.append("a"))
        d.acquire(2, lambda: ran.append("b"))
        assert ran == ["a", "b"]

    def test_release_non_busy_raises(self):
        d = Directory(0)
        with pytest.raises(RuntimeError):
            d.release(3)

    def test_seq_monotonic(self):
        d = Directory(0)
        ent = d.entry(1)
        assert ent.next_seq() < ent.next_seq() < ent.next_seq()


class TestSetAssociativity:
    def test_two_way_holds_conflicting_pair(self):
        c = Cache(16, 64, associativity=2)   # 8 sets, 2 ways
        c.install(0, CacheState.SHARED, {})
        assert c.install(8, CacheState.SHARED, {}) is None  # same set
        assert c.contains(0) and c.contains(8)

    def test_lru_victim_selection(self):
        c = Cache(16, 64, associativity=2)
        c.install(0, CacheState.SHARED, {})
        c.install(8, CacheState.SHARED, {})
        c.lookup(0)                          # touch 0: 8 becomes LRU
        evicted = c.install(16, CacheState.SHARED, {})
        assert evicted.block == 8
        assert c.contains(0) and c.contains(16)

    def test_fully_associative(self):
        c = Cache(4, 64, associativity=4)    # one set
        for b in range(4):
            assert c.install(b, CacheState.VALID, {}) is None
        evicted = c.install(99, CacheState.VALID, {})
        assert evicted.block == 0            # LRU

    def test_direct_mapped_unchanged(self):
        c = Cache(16, 64)                    # associativity=1
        c.install(3, CacheState.MODIFIED, {0: 1})
        evicted = c.install(19, CacheState.SHARED, {})
        assert evicted.block == 3

    def test_eviction_fires_victim_watchers(self):
        c = Cache(16, 64, associativity=2)
        c.install(0, CacheState.SHARED, {})
        c.install(8, CacheState.SHARED, {})
        woken = []
        c.watch(0, lambda: woken.append(0))
        c.lookup(8)                          # make 0 the LRU
        c.install(16, CacheState.SHARED, {})
        assert woken == [0]

    def test_invalid_associativity(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            Cache(16, 64, associativity=3)   # does not divide 16
        with _pytest.raises(ValueError):
            Cache(16, 64, associativity=0)

    def test_invalidate_specific_way(self):
        c = Cache(16, 64, associativity=2)
        c.install(0, CacheState.SHARED, {0: 5})
        c.install(8, CacheState.SHARED, {512: 6})
        line = c.invalidate(0)
        assert line.data == {0: 5}
        assert not c.contains(0)
        assert c.contains(8)
