"""Device catalogs: the Figure 1 facts and spec validation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hw.specs import (
    AMD_MI100,
    GPUSpec,
    NVIDIA_A100,
    NVIDIA_V100,
    get_spec,
    known_devices,
)


class TestFigure1Facts:
    """The frequency tables the paper reports in Figure 1."""

    def test_v100_has_196_core_configs(self):
        assert len(NVIDIA_V100.core_freqs_mhz) == 196

    def test_v100_core_range(self):
        assert NVIDIA_V100.min_core_mhz == 135
        assert NVIDIA_V100.max_core_mhz == 1530

    def test_v100_memory_fixed_at_877(self):
        assert NVIDIA_V100.mem_freqs_mhz == (877,)

    def test_a100_has_81_core_configs(self):
        assert len(NVIDIA_A100.core_freqs_mhz) == 81

    def test_a100_core_range(self):
        assert NVIDIA_A100.min_core_mhz == 210
        assert NVIDIA_A100.max_core_mhz == 1410

    def test_a100_memory_fixed_at_1215(self):
        assert NVIDIA_A100.mem_freqs_mhz == (1215,)

    def test_mi100_has_16_core_configs(self):
        assert len(AMD_MI100.core_freqs_mhz) == 16

    def test_mi100_core_range(self):
        assert AMD_MI100.min_core_mhz == 300
        assert AMD_MI100.max_core_mhz == 1502

    def test_mi100_memory_fixed_at_1200(self):
        assert AMD_MI100.mem_freqs_mhz == (1200,)

    def test_v100_default_is_near_1312_not_max(self):
        # The paper's baseline is 1312 MHz; our table snaps to the nearest
        # entry, which must stay below the maximum (speedup > 1 possible).
        assert abs(NVIDIA_V100.default_core_mhz - 1312) <= 4
        assert NVIDIA_V100.default_core_mhz < NVIDIA_V100.max_core_mhz

    def test_mi100_default_is_max(self):
        # AMD auto mode behaves like the top performance level.
        assert AMD_MI100.default_core_mhz == AMD_MI100.max_core_mhz


class TestSpecValidation:
    def test_tables_are_ascending_unique(self):
        for spec in (NVIDIA_V100, NVIDIA_A100, AMD_MI100):
            table = spec.core_freqs_mhz
            assert list(table) == sorted(set(table))

    def test_validate_clocks_accepts_default(self):
        NVIDIA_V100.validate_clocks(
            NVIDIA_V100.default_mem_mhz, NVIDIA_V100.default_core_mhz
        )

    def test_validate_clocks_rejects_unknown_core(self):
        with pytest.raises(ConfigurationError):
            NVIDIA_V100.validate_clocks(877, 1312)  # 1312 itself not in table

    def test_validate_clocks_rejects_unknown_memory(self):
        with pytest.raises(ConfigurationError):
            NVIDIA_V100.validate_clocks(900, NVIDIA_V100.max_core_mhz)

    def test_bad_default_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(
                name="bogus",
                vendor="nvidia",
                compute_units=1,
                core_freqs_mhz=(100, 200),
                mem_freqs_mhz=(500,),
                default_core_mhz=150,  # not in table
                default_mem_mhz=500,
                peak_bandwidth_gbs=100.0,
                idle_power_w=10.0,
                core_power_w=100.0,
                mem_power_w=20.0,
            )

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(
                name="bogus",
                vendor="nvidia",
                compute_units=1,
                core_freqs_mhz=(),
                mem_freqs_mhz=(500,),
                default_core_mhz=100,
                default_mem_mhz=500,
                peak_bandwidth_gbs=100.0,
                idle_power_w=10.0,
                core_power_w=100.0,
                mem_power_w=20.0,
            )


class TestCatalog:
    def test_known_devices(self):
        assert set(known_devices()) == {"v100", "a100", "mi100", "titanx"}

    def test_titanx_has_four_memory_clocks(self):
        """§2.1: a few NVIDIA models select one of four memory clocks."""
        spec = get_spec("titanx")
        assert len(spec.mem_freqs_mhz) == 4
        assert spec.default_mem_mhz == max(spec.mem_freqs_mhz)

    def test_get_spec_case_insensitive(self):
        assert get_spec("V100") is NVIDIA_V100
        assert get_spec("mi100") is AMD_MI100

    def test_get_spec_unknown(self):
        with pytest.raises(ConfigurationError):
            get_spec("h100")

    def test_vendors(self):
        assert NVIDIA_V100.vendor == "nvidia"
        assert AMD_MI100.vendor == "amd"
