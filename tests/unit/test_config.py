"""Unit tests for machine configuration."""

import pytest

from repro.config import (
    ALL_PROTOCOLS, ExperimentScale, MachineConfig, PAPER_MACHINE_SIZES,
    Protocol, mesh_shape,
)


class TestProtocol:
    def test_update_based(self):
        assert not Protocol.WI.is_update_based
        assert Protocol.PU.is_update_based
        assert Protocol.CU.is_update_based

    def test_short_labels_match_paper(self):
        assert Protocol.WI.short == "i"
        assert Protocol.PU.short == "u"
        assert Protocol.CU.short == "c"

    @pytest.mark.parametrize("text,expected", [
        ("wi", Protocol.WI), ("WI", Protocol.WI), ("i", Protocol.WI),
        ("invalidate", Protocol.WI),
        ("pu", Protocol.PU), ("u", Protocol.PU), ("update", Protocol.PU),
        ("cu", Protocol.CU), ("c", Protocol.CU),
        ("competitive", Protocol.CU),
        ("mesi", Protocol.MESI), ("e", Protocol.MESI),
    ])
    def test_parse(self, text, expected):
        assert Protocol.parse(text) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            Protocol.parse("dragon")

    def test_all_protocols_ordering(self):
        assert ALL_PROTOCOLS == (Protocol.WI, Protocol.PU, Protocol.CU)


class TestMeshShapes:
    @pytest.mark.parametrize("n,shape", [
        (1, (1, 1)), (2, (2, 1)), (4, (2, 2)), (8, (4, 2)),
        (16, (4, 4)), (32, (8, 4)), (64, (8, 8)),
    ])
    def test_paper_shapes(self, n, shape):
        assert mesh_shape(n) == shape

    def test_non_power_of_two(self):
        w, h = mesh_shape(6)
        assert w * h == 6

    def test_prime_degenerates_to_line(self):
        assert mesh_shape(7) == (7, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mesh_shape(0)


class TestMachineConfig:
    def test_paper_defaults(self):
        cfg = MachineConfig()
        assert cfg.num_procs == 32
        assert cfg.cache_size_bytes == 64 * 1024
        assert cfg.block_size_bytes == 64
        assert cfg.write_buffer_entries == 4
        assert cfg.mem_first_word_cycles == 20
        assert cfg.switch_delay_cycles == 2
        assert cfg.flit_bytes == 2
        assert cfg.update_threshold == 4

    def test_derived_quantities(self):
        cfg = MachineConfig()
        assert cfg.words_per_block == 16
        assert cfg.num_cache_lines == 1024
        assert cfg.mesh == (8, 4)
        assert cfg.data_msg_bytes == cfg.header_bytes + 64

    def test_block_and_word_arithmetic(self):
        cfg = MachineConfig()
        assert cfg.block_of(0) == 0
        assert cfg.block_of(63) == 0
        assert cfg.block_of(64) == 1
        assert cfg.word_of(5) == 4
        assert cfg.word_of(4) == 4
        assert cfg.block_base(130) == 128

    def test_home_interleaving(self):
        cfg = MachineConfig(num_procs=8)
        homes = [cfg.home_of_block(b) for b in range(16)]
        assert homes == list(range(8)) * 2

    def test_with_protocol_and_procs(self):
        cfg = MachineConfig()
        cfg2 = cfg.with_protocol(Protocol.PU).with_procs(4)
        assert cfg2.protocol is Protocol.PU
        assert cfg2.num_procs == 4
        assert cfg.protocol is Protocol.WI  # frozen original untouched

    @pytest.mark.parametrize("kw", [
        dict(num_procs=0),
        dict(block_size_bytes=60),          # not multiple of word
        dict(cache_size_bytes=100),         # not multiple of block
        dict(write_buffer_entries=0),
        dict(update_threshold=0),
        dict(block_size_bytes=0),
        dict(word_size_bytes=0),
        dict(block_size_bytes=-64),
        dict(cache_size_bytes=0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            MachineConfig(**kw)

    def test_paper_machine_sizes(self):
        assert PAPER_MACHINE_SIZES == (1, 2, 4, 8, 16, 32)


class TestExperimentScale:
    def test_paper_counts(self):
        s = ExperimentScale.paper()
        assert s.lock_total_acquires == 32000
        assert s.barrier_episodes == 5000
        assert s.reduction_iters == 5000

    def test_scaled(self):
        s = ExperimentScale.scaled(0.1)
        assert s.lock_total_acquires == 3200
        assert s.barrier_episodes == 500
        assert s.reduction_iters == 500

    def test_scaled_floor_is_one(self):
        s = ExperimentScale.scaled(1e-9)
        assert s.lock_total_acquires >= 1
        assert s.barrier_episodes >= 1

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            ExperimentScale.scaled(0)

    @pytest.mark.parametrize("factor", [1e308, float("inf")])
    def test_scaled_overflow_is_value_error(self, factor):
        with pytest.raises(ValueError, match="overflows"):
            ExperimentScale.scaled(factor)
