"""Simulated GPU device state machine."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.sweepcache import cache_report
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw import cache as hw_cache
from repro.hw.cache import clear_model_cache, operating_points_for
from repro.hw.device import ClockPermissionError, SimulatedGPU
from repro.hw.specs import AMD_MI100, NVIDIA_A100, NVIDIA_TITAN_X, NVIDIA_V100
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR
from repro.validate.reference import (
    energy_between_reference,
    throttled_operating_point_reference,
)
from repro.vendor.portable import create_backend


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


    @pytest.mark.parametrize(
        "t0, t1",
        [
            (math.nan, 1.0),
            (0.0, math.nan),
            (math.nan, math.nan),
            (0.0, math.inf),
            (-math.inf, 1.0),
            (1.0, 0.5),
        ],
    )
    def test_bad_window_raises(self, v100, compute_kernel, t0, t1):
        v100.execute(compute_kernel)
        with pytest.raises(SimulationError, match="energy window"):
            v100.energy_between(t0, t1)

    @pytest.mark.parametrize("spec", [NVIDIA_V100, AMD_MI100])
    def test_total_energy_counters_take_the_window_path(self, spec, compute_kernel):
        gpu = SimulatedGPU(spec)
        gpu.execute(compute_kernel)
        gpu.clock.advance(0.25)
        total = gpu.energy_between(0.0, gpu.clock.now)
        # NVML counts whole millijoules; ROCm SMI integrates the timeline.
        if spec is NVIDIA_V100:
            total = int(round(total * 1000.0)) / 1000.0
        assert create_backend(gpu).read_energy_j() == total
        # A clock driven to NaN no longer yields a plausible-looking total.
        gpu.clock.advance_to(math.nan)
        with pytest.raises(SimulationError, match="not finite"):
            create_backend(gpu).read_energy_j()


# ------------------------------------------- window integral vs the oracle

_CLOCK_PAIRS = tuple(
    (core, mem)
    for core in NVIDIA_V100.core_freqs_mhz[::24]
    for mem in NVIDIA_V100.mem_freqs_mhz
)
_DURATIONS = st.one_of(st.just(0.0), st.floats(1e-6, 0.05))


@st.composite
def _timelines(draw):
    """A V100 with a random power timeline and a window into it.

    Busy segments with idle gaps (either may be zero-length), clock
    changes on segment boundaries, inside gaps and inside busy segments,
    and windows that may start before the first clock record, end past
    the history or have zero width.
    """
    gpu = SimulatedGPU(NVIDIA_V100)
    starts, ends, powers = [], [], []
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(_DURATIONS)
        starts.append(t)
        t += draw(_DURATIONS)
        ends.append(t)
        powers.append(draw(st.floats(40.0, 300.0)))
    gpu.extend_power_timeline(starts, ends, powers)
    horizon = t + 0.01
    instant = st.one_of(st.floats(0.0, horizon), st.sampled_from(starts + ends + [0.0]))
    times = sorted(set(draw(st.lists(instant, max_size=8))))
    if times:
        gpu.apply_clock_plan(
            times, [draw(st.sampled_from(_CLOCK_PAIRS)) for _ in times]
        )
    bound = st.one_of(
        st.floats(-0.02, horizon + 0.02), st.sampled_from(starts + ends + times + [0.0])
    )
    t0 = draw(bound)
    t1 = t0 if draw(st.booleans()) and draw(st.booleans()) else draw(bound)
    return gpu, min(t0, t1), max(t0, t1)


class TestWindowIntegral:
    @settings(max_examples=300, deadline=None)
    @given(_timelines())
    def test_matches_reference_walk(self, case):
        gpu, t0, t1 = case
        got = gpu.energy_between(t0, t1)
        want = energy_between_reference(gpu, t0, t1)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(_timelines(), _DURATIONS, st.sampled_from(_CLOCK_PAIRS))
    def test_bitwise_independent_of_later_history(self, case, gap, pair):
        gpu, t0, t1 = case
        before = gpu.energy_between(t0, t1)
        after = max(t1, gpu.busy_until, gpu._clock_times[-1]) + gap
        gpu.extend_power_timeline([after], [after + 0.01], [250.0])
        gpu.apply_clock_plan([after + 0.005, after + 0.02], [pair, pair])
        assert gpu.energy_between(t0, t1) == before

    @settings(max_examples=200, deadline=None)
    @given(_timelines())
    def test_bitwise_on_board_rebuilt_from_window_slice(self, case):
        gpu, t0, t1 = case
        keep = [
            i for i, (s, e) in enumerate(zip(gpu._seg_start, gpu._seg_end))
            if e > t0 and s < t1
        ]
        in_effect = max(
            [i for i, t in enumerate(gpu._clock_times) if t <= t0], default=0
        )
        clocks = [in_effect] + [
            i for i, t in enumerate(gpu._clock_times) if i > in_effect and t < t1
        ]
        fresh = SimulatedGPU(NVIDIA_V100)
        fresh._seg_start = [gpu._seg_start[i] for i in keep]
        fresh._seg_end = [gpu._seg_end[i] for i in keep]
        fresh._seg_power = [gpu._seg_power[i] for i in keep]
        fresh._clock_times = [gpu._clock_times[i] for i in clocks]
        fresh._clock_values = [gpu._clock_values[i] for i in clocks]
        assert fresh.energy_between(t0, t1) == gpu.energy_between(t0, t1)

    @staticmethod
    def _assert_split_adds_up(gpu, t0, t1, frac):
        m = min(max(t0 + frac * (t1 - t0), t0), t1)
        whole = gpu.energy_between(t0, t1)
        split = gpu.energy_between(t0, m) + gpu.energy_between(m, t1)
        # 4 ulps relative, and 4 subnormal ulps absolute: a window short
        # enough to give subnormal energies has coarser relative precision
        # than any normal-range energy, and there the ``rel`` term alone
        # rounds below one ulp.
        assert split == pytest.approx(
            whole,
            rel=4 * sys.float_info.epsilon,
            abs=4 * sys.float_info.min * sys.float_info.epsilon,
        )

    @settings(max_examples=200, deadline=None)
    @given(_timelines(), st.floats(0.0, 1.0))
    def test_split_window_adds_up(self, case, frac):
        gpu, t0, t1 = case
        self._assert_split_adds_up(gpu, t0, t1, frac)

    def test_split_subnormal_window_adds_up(self):
        """An idle V100 over a subnormal window: the whole and the split
        integrals differ by one subnormal ulp (5e-324)."""
        gpu = SimulatedGPU(NVIDIA_V100)
        self._assert_split_adds_up(gpu, 0.0, 2.2250738585e-313, 0.90625)


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
            assert len(gpu.fault_injector.log.faults) == 1

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
