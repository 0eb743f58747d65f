"""Simulated GPU device state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.core.sweepcache import cache_report
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw import cache as hw_cache
from repro.hw.cache import clear_model_cache, operating_points_for
from repro.hw.device import ClockPermissionError, SimulatedGPU
from repro.hw.specs import NVIDIA_A100, NVIDIA_TITAN_X, NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.validate.reference import throttled_operating_point_reference


def test_initial_clocks_are_defaults(v100):
    assert v100.core_mhz == NVIDIA_V100.default_core_mhz
    assert v100.mem_mhz == NVIDIA_V100.default_mem_mhz


def test_execute_advances_clock(v100, compute_kernel):
    record = v100.execute(compute_kernel)
    assert record.end_s > record.start_s
    assert v100.clock.now == pytest.approx(record.end_s)


def test_execute_serializes_kernels(v100, compute_kernel):
    first = v100.execute(compute_kernel)
    second = v100.execute(compute_kernel)
    assert second.start_s >= first.end_s


def test_record_carries_clocks_and_energy(v100, compute_kernel):
    record = v100.execute(compute_kernel)
    assert record.core_mhz == NVIDIA_V100.default_core_mhz
    assert record.energy_j == pytest.approx(record.avg_power_w * record.time_s)
    assert record.energy_j > 0


def test_set_application_clocks(v100):
    target = NVIDIA_V100.core_freqs_mhz[10]
    v100.set_application_clocks(877, target)
    assert v100.core_mhz == target


def test_set_clocks_rejects_unsupported(v100):
    with pytest.raises(ConfigurationError):
        v100.set_application_clocks(877, 1000)  # not a table entry


def test_restricted_device_rejects_unprivileged(v100):
    v100.set_api_restriction(True)
    with pytest.raises(ClockPermissionError):
        v100.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[0])


def test_restricted_device_accepts_privileged(v100):
    v100.set_api_restriction(True)
    v100.set_application_clocks(
        877, NVIDIA_V100.core_freqs_mhz[0], privileged=True
    )
    assert v100.core_mhz == NVIDIA_V100.core_freqs_mhz[0]


def test_reset_restores_defaults(v100):
    v100.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[0])
    v100.reset_application_clocks()
    assert v100.core_mhz == NVIDIA_V100.default_core_mhz


def test_clock_set_calls_counted(v100):
    v100.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[5])
    v100.reset_application_clocks()
    assert v100.clock_set_calls == 2


def test_lower_clock_slows_and_reduces_power(v100, compute_kernel):
    fast = v100.execute(compute_kernel)
    v100.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[40])
    slow = v100.execute(compute_kernel)
    assert slow.time_s > fast.time_s
    assert slow.avg_power_w < fast.avg_power_w


def test_clocks_at_history(v100):
    t0 = v100.clock.now
    v100.clock.advance(1.0)
    v100.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[0])
    assert v100.clocks_at(t0) == (
        NVIDIA_V100.default_core_mhz,
        NVIDIA_V100.default_mem_mhz,
    )
    assert v100.clocks_at(v100.clock.now) == (NVIDIA_V100.core_freqs_mhz[0], 877)


class TestEnergyAccounting:
    def test_busy_energy_matches_record(self, v100, compute_kernel):
        record = v100.execute(compute_kernel)
        measured = v100.energy_between(record.start_s, record.end_s)
        assert measured == pytest.approx(record.energy_j, rel=1e-9)

    def test_idle_energy_uses_idle_power(self, v100):
        v100.clock.advance(2.0)
        energy = v100.energy_between(0.0, 2.0)
        idle_p = v100.power_model.idle_power(v100.core_mhz, v100.mem_mhz)
        assert energy == pytest.approx(idle_p * 2.0)

    def test_window_covers_busy_and_idle(self, v100, compute_kernel):
        record = v100.execute(compute_kernel)
        v100.clock.advance(1.0)
        total = v100.energy_between(0.0, v100.clock.now)
        idle_p = v100.power_model.idle_power(v100.core_mhz, v100.mem_mhz)
        assert total == pytest.approx(record.energy_j + idle_p * 1.0, rel=1e-6)

    def test_energy_is_additive_over_subwindows(self, v100, compute_kernel):
        v100.execute(compute_kernel)
        v100.clock.advance(0.5)
        v100.execute(compute_kernel)
        end = v100.clock.now
        mid = end / 2
        whole = v100.energy_between(0.0, end)
        split = v100.energy_between(0.0, mid) + v100.energy_between(mid, end)
        assert whole == pytest.approx(split, rel=1e-9)

    def test_idle_energy_respects_clock_changes(self, v100):
        v100.clock.advance(1.0)
        v100.set_application_clocks(877, NVIDIA_V100.core_freqs_mhz[0])
        v100.clock.advance(1.0)
        energy = v100.energy_between(0.0, 2.0)
        p_hi = v100.power_model.idle_power(NVIDIA_V100.default_core_mhz, 877)
        p_lo = v100.power_model.idle_power(NVIDIA_V100.core_freqs_mhz[0], 877)
        assert energy == pytest.approx(p_hi + p_lo, rel=1e-9)

    def test_instantaneous_power_busy_vs_idle(self, v100, compute_kernel):
        record = v100.execute(compute_kernel)
        mid = (record.start_s + record.end_s) / 2
        assert v100.instantaneous_power(mid) == pytest.approx(record.avg_power_w)
        after = record.end_s + 1.0
        idle_p = v100.power_model.idle_power(v100.core_mhz, v100.mem_mhz)
        assert v100.instantaneous_power(after) == pytest.approx(idle_p)


# ------------------------------------------------- operating-point memo


_MEMO_SPECS = (NVIDIA_V100, NVIDIA_A100, NVIDIA_TITAN_X)
_MEMO_KERNELS = (
    KernelIR(
        "fma", InstructionMix(float_add=40, float_mul=40, gl_access=2),
        work_items=1 << 22, locality=0.5,
    ),
    KernelIR(
        "stream", InstructionMix(float_add=1, gl_access=8),
        work_items=1 << 24,
    ),
    KernelIR(
        "sfu", InstructionMix(sf=24, float_div=8, gl_access=1),
        work_items=1 << 20, locality=0.3,
    ),
)


def _capped_board(spec, core_mhz, mem_mhz, limit_w, ceiling_mhz=None):
    gpu = SimulatedGPU(spec)
    gpu.set_application_clocks(mem_mhz, core_mhz)
    gpu.set_power_limit(limit_w, privileged=True)
    if ceiling_mhz is not None:
        gpu.fault_injector = FaultPlan(specs=(
            FaultSpec(
                site="hw.thermal_throttle", at_s=0.0, duration_s=1e9,
                param=ceiling_mhz,
            ),
        )).injector()
    return gpu


@st.composite
def _launches(draw):
    spec = draw(st.sampled_from(_MEMO_SPECS))
    core = draw(st.sampled_from(spec.core_freqs_mhz))
    mem = draw(st.sampled_from(spec.mem_freqs_mhz))
    default_w = SimulatedGPU(spec).default_power_limit_w
    limit = draw(st.one_of(
        st.just(float(spec.idle_power_w)),
        st.just(default_w),
        st.floats(spec.idle_power_w, default_w),
    ))
    ceiling = draw(st.one_of(
        st.none(),
        st.integers(1, spec.min_core_mhz - 1),
        st.integers(spec.min_core_mhz, spec.max_core_mhz),
    ))
    kernel = draw(st.sampled_from(_MEMO_KERNELS))
    if draw(st.booleans()):
        kernel = kernel.with_name(f"{kernel.name}@{draw(st.integers(0, 9))}")
    return spec, core, mem, limit, ceiling, kernel


class TestOperatingPointMemo:
    @settings(max_examples=300, deadline=None)
    @given(_launches())
    def test_memo_matches_reference_bitwise(self, launch):
        spec, core, mem, limit, ceiling, kernel = launch
        gpu = _capped_board(spec, core, mem, limit, ceiling)
        want = throttled_operating_point_reference(
            spec, kernel, core if ceiling is None else min(core, ceiling),
            mem, gpu.power_limit_w,
        )
        # First call may miss, the second one hits: both are exact.
        assert repr(gpu._throttled_operating_point(kernel)) == repr(want)
        assert repr(gpu._throttled_operating_point(kernel)) == repr(want)

    def test_cap_no_clock_fits_pins_lowest_clock(self, compute_kernel):
        gpu = _capped_board(
            NVIDIA_V100, NVIDIA_V100.max_core_mhz, 877, NVIDIA_V100.idle_power_w
        )
        core, _, power = gpu._throttled_operating_point(compute_kernel)
        assert core == NVIDIA_V100.min_core_mhz
        assert power > gpu.power_limit_w

    def test_throttle_window_still_logged_on_memo_hits(self, compute_kernel):
        # The second board's launches all hit entries the first one filled.
        for _ in range(2):
            gpu = _capped_board(
                NVIDIA_V100, NVIDIA_V100.max_core_mhz, 877, 250.0, ceiling_mhz=900
            )
            records = [gpu.execute(compute_kernel) for _ in range(3)]
            assert {r.core_mhz for r in records} == {
                max(f for f in NVIDIA_V100.core_freqs_mhz if f <= 900)
            }
            assert gpu.fault_injector.total_faults == 1

    def test_per_event_run_leaves_cache_report_unchanged(self, compute_kernel):
        before = cache_report()
        gpu = _capped_board(NVIDIA_V100, NVIDIA_V100.max_core_mhz, 877, 150.0)
        for i in range(8):
            gpu.execute(compute_kernel.with_name(f"k{i}"))
        assert cache_report() == before

    def test_boards_with_different_caps_never_share_an_entry(self, compute_kernel):
        clear_model_cache()
        tight = _capped_board(NVIDIA_V100, NVIDIA_V100.max_core_mhz, 877, 150.0)
        loose = _capped_board(NVIDIA_V100, NVIDIA_V100.max_core_mhz, 877, 250.0)
        a = tight.execute(compute_kernel)
        b = loose.execute(compute_kernel)
        assert len(operating_points_for(NVIDIA_V100)) == 2
        assert a.core_mhz < b.core_mhz
        for gpu, record in ((tight, a), (loose, b)):
            core, timing, power = throttled_operating_point_reference(
                NVIDIA_V100, compute_kernel, gpu.core_mhz, 877, gpu.power_limit_w
            )
            assert (record.core_mhz, record.avg_power_w) == (core, power)
            assert record.energy_j == power * timing.time_s

    def test_clear_model_cache_empties_memo(self, compute_kernel):
        gpu = SimulatedGPU(NVIDIA_V100)
        gpu.execute(compute_kernel)
        memo = operating_points_for(NVIDIA_V100)
        assert len(memo) >= 1
        clear_model_cache()
        assert len(memo) == 0
        assert operating_points_for(NVIDIA_V100) is not memo

    def test_lru_bound_holds(self, monkeypatch, compute_kernel):
        monkeypatch.setattr(hw_cache, "_OPERATING_POINT_MEMO_MAX", 3)
        clear_model_cache()
        memo = operating_points_for(NVIDIA_V100)
        limits = (150.0, 160.0, 170.0, 180.0, 190.0)
        for limit in limits[:3]:
            memo.lookup(compute_kernel, 1530, 877, limit)
        memo.lookup(compute_kernel, 1530, 877, limits[0])  # refresh the oldest
        for limit in limits[3:]:
            memo.lookup(compute_kernel, 1530, 877, limit)
        assert len(memo) == 3
        kept = sorted(key[-1] for key in memo._memo)
        assert kept == [limits[0], limits[3], limits[4]]
