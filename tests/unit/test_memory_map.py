"""Unit tests for the home-aware shared-memory allocator."""

import pytest

from repro.config import MachineConfig, Protocol
from repro.runtime import MemoryMap


def make(num_procs=8):
    cfg = MachineConfig(num_procs=num_procs)
    return cfg, MemoryMap(cfg)


class TestPlacement:
    def test_word_homed_where_requested(self):
        cfg, mm = make()
        for home in range(8):
            addr = mm.alloc_word(home)
            assert mm.home_of(addr) == home

    def test_block_homed_where_requested(self):
        cfg, mm = make()
        addr = mm.alloc_block(5)
        assert mm.home_of(addr) == 5
        assert addr % cfg.block_size_bytes == 0

    def test_home_out_of_range(self):
        _, mm = make()
        with pytest.raises(ValueError):
            mm.alloc_word(8)

    def test_unpacked_words_get_own_blocks(self):
        cfg, mm = make()
        a = mm.alloc_word(0)
        b = mm.alloc_word(0)
        assert cfg.block_of(a) != cfg.block_of(b)

    def test_packed_words_share_a_block(self):
        cfg, mm = make()
        a = mm.alloc_word(0, pack=True)
        b = mm.alloc_word(0, pack=True)
        assert cfg.block_of(a) == cfg.block_of(b)
        assert a != b

    def test_packed_overflow_starts_new_block(self):
        cfg, mm = make()
        addrs = [mm.alloc_word(0, pack=True)
                 for _ in range(cfg.words_per_block + 1)]
        blocks = {cfg.block_of(a) for a in addrs}
        assert len(blocks) == 2

    def test_no_overlap_across_allocations(self):
        cfg, mm = make()
        seen = set()
        for i in range(100):
            a = mm.alloc_word(i % 8, pack=(i % 2 == 0))
            assert a not in seen
            seen.add(a)


class TestStructsAndArrays:
    def test_struct_fields_contiguous_same_block(self):
        cfg, mm = make()
        s = mm.alloc_struct(3, ["next", "locked"])
        assert s["locked"] - s["next"] == cfg.word_size_bytes
        assert cfg.block_of(s["next"]) == cfg.block_of(s["locked"])
        assert mm.home_of(s["next"]) == 3

    def test_struct_too_big(self):
        cfg, mm = make()
        with pytest.raises(ValueError):
            mm.alloc_struct(0, [f"f{i}" for i in range(17)])

    def test_alloc_words_packed_and_homed(self):
        cfg, mm = make()
        addrs = mm.alloc_words(2, 20)
        assert len(addrs) == 20
        for a in addrs:
            assert mm.home_of(a) == 2
        blocks = {cfg.block_of(a) for a in addrs}
        assert len(blocks) == 2  # 20 words -> 2 blocks of 16

    def test_region_contiguous_and_interleaved(self):
        cfg, mm = make()
        base = mm.alloc_region(8 * cfg.block_size_bytes)
        homes = [mm.home_of(base + i * cfg.block_size_bytes)
                 for i in range(8)]
        assert homes == list(range(8))

    def test_region_rejects_zero(self):
        _, mm = make()
        with pytest.raises(ValueError):
            mm.alloc_region(0)


class TestInitialValuesAndLabels:
    def test_initial_value_recorded(self):
        cfg, mm = make()
        addr = mm.alloc_word(0, init=42)
        assert mm.initial_values[cfg.word_of(addr)] == 42

    def test_set_initial(self):
        cfg, mm = make()
        addr = mm.alloc_word(0)
        mm.set_initial(addr, 7)
        assert mm.initial_values[cfg.word_of(addr)] == 7

    def test_find_by_label(self):
        _, mm = make()
        addr = mm.alloc_word(1, label="ticket")
        found = mm.find("ticket")
        assert found is not None and found.addr == addr
        assert mm.find("nope") is None


class TestProtocolTags:
    def test_a_hybrid_machine_takes_no_mesi_tag(self):
        mm = MemoryMap(MachineConfig(num_procs=2, protocol=Protocol.HYBRID))
        with pytest.raises(ValueError, match="cannot run MESI blocks"):
            with mm.use_protocol(Protocol.MESI):
                mm.alloc_word(0)
        assert not mm.block_policy
        with mm.use_protocol(Protocol.CU):
            addr = mm.alloc_word(0)
        assert mm.protocol_of_block(mm.config.block_of(addr)) is \
            Protocol.CU

    def test_single_protocol_machines_record_any_tag(self):
        mm = MemoryMap(MachineConfig(num_procs=2, protocol=Protocol.MESI))
        with mm.use_protocol(Protocol.MESI):
            mm.alloc_word(0)
