"""The adaptive plane: drift detection, the degradation ladder, chaos.

Unit tests for the CUSUM detector and the monotone ladder machine,
guard-rail tests for :class:`~repro.adapt.controller.AdaptiveController`,
property tests for the SLA-guarded deadline selection rule, and the
seeded thermal-drift chaos acceptance criteria (adaptive misses nothing
while the stale static plan does, and recovers at least half of the
pre-drift energy saving).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt.chaos import (
    DEADLINE_SLACK,
    WINDOW1,
    WINDOW2,
    release_times,
    run_thermal_drift_comparison,
    scenario_kernels,
)
from repro.adapt.controller import AdaptiveController
from repro.adapt.drift import DriftDetector
from repro.adapt.ladder import DegradationLadder, LadderLevel
from repro.apps import get_benchmark
from repro.common.errors import ValidationError
from repro.core.compiler import SynergyCompiler
from repro.core.queue import SynergyQueue
from repro.core.sweepcache import scoped_cache
from repro.experiments.training import make_bundle, microbench_training_set
from repro.hw.device import SimulatedGPU
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import (
    DEADLINE,
    DEADLINE_RTOL,
    MIN_EDP,
    SLA_SLACK,
    EnergyTarget,
    deadline_index,
)

pytestmark = pytest.mark.adapt


# ------------------------------------------------------------ drift detector

class TestDriftDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            DriftDetector(slack=0.0)
        with pytest.raises(ValidationError):
            DriftDetector(threshold=-1.0)
        with pytest.raises(ValidationError):
            DriftDetector(min_samples=0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            DriftDetector().observe(0.0, "k", "power", 1.0, 1.0)

    def test_non_positive_values_rejected(self):
        detector = DriftDetector()
        with pytest.raises(ValidationError):
            detector.observe(0.0, "k", "time", 0.0, 1.0)
        with pytest.raises(ValidationError):
            detector.observe(0.0, "k", "time", 1.0, -2.0)

    def test_sustained_slowdown_fires_up(self):
        detector = DriftDetector()
        # ln 2 per sample is far beyond the dead-band: min_samples gates
        # the first observation, the second crosses the threshold.
        assert detector.observe(1.0, "k", "time", 2.0, 1.0) is None
        event = detector.observe(2.0, "k", "time", 2.0, 1.0)
        assert event is not None
        assert (event.direction, event.samples, event.metric) == ("up", 2, "time")
        assert event.statistic > event.threshold

    def test_pessimistic_model_fires_down(self):
        detector = DriftDetector()
        detector.observe(1.0, "k", "energy", 0.5, 1.0)
        event = detector.observe(2.0, "k", "energy", 0.5, 1.0)
        assert event is not None and event.direction == "down"

    def test_stream_resets_after_firing(self):
        detector = DriftDetector()
        detector.observe(1.0, "k", "time", 2.0, 1.0)
        assert detector.observe(2.0, "k", "time", 2.0, 1.0) is not None
        # The stream restarted: one more residual is again min_samples-gated.
        assert detector.observe(3.0, "k", "time", 2.0, 1.0) is None

    def test_dead_band_absorbs_shape_bias(self):
        detector = DriftDetector(slack=0.08)
        # A constant +5% bias sits inside the dead-band and never accrues.
        for i in range(50):
            assert detector.observe(float(i), "k", "time", 1.05, 1.0) is None
        assert detector.events == []

    def test_streams_are_independent(self):
        detector = DriftDetector()
        detector.observe(1.0, "a", "time", 2.0, 1.0)
        detector.observe(2.0, "b", "time", 1.0, 1.0)
        event = detector.observe(3.0, "a", "time", 2.0, 1.0)
        assert event is not None and event.kernel == "a"

    def test_reset_clears_streams_but_keeps_events(self):
        detector = DriftDetector()
        detector.observe(1.0, "k", "time", 2.0, 1.0)
        assert detector.observe(2.0, "k", "time", 2.0, 1.0) is not None
        detector.reset()
        assert len(detector.events) == 1
        assert detector.observe(3.0, "k", "time", 2.0, 1.0) is None

    def test_event_log_is_json_ready(self):
        detector = DriftDetector()
        detector.observe(1.0, "k", "time", 2.0, 1.0)
        detector.observe(2.0, "k", "time", 2.0, 1.0)
        doc = json.dumps([e.as_dict() for e in detector.events])
        assert "\"direction\": \"up\"" in doc


# --------------------------------------------------------- degradation ladder

class TestDegradationLadder:
    def test_starts_at_model(self):
        assert DegradationLadder().level is LadderLevel.MODEL

    def test_escalate_to_refuses_to_move_down(self):
        ladder = DegradationLadder()
        assert ladder.escalate_to(1.0, LadderLevel.STATIC, "drift") is not None
        assert ladder.escalate_to(2.0, LadderLevel.REFRESHED, "drift") is None
        assert ladder.escalate_to(3.0, LadderLevel.STATIC, "drift") is None
        assert ladder.level is LadderLevel.STATIC
        assert len(ladder.transitions) == 1

    def test_escalate_walks_one_rung_and_saturates(self):
        ladder = DegradationLadder()
        for expected in (
            LadderLevel.REFRESHED, LadderLevel.STATIC, LadderLevel.MAX_PERF
        ):
            transition = ladder.escalate(1.0, "deadline-miss")
            assert transition is not None and transition.to_level is expected
        assert ladder.escalate(2.0, "deadline-miss") is None
        assert ladder.level is LadderLevel.MAX_PERF

    def test_transition_log_is_monotone_and_contiguous(self):
        ladder = DegradationLadder()
        ladder.escalate_to(1.0, LadderLevel.REFRESHED, "drift", "k/time/up")
        ladder.escalate_to(2.0, LadderLevel.MAX_PERF, "refresh-failed")
        rows = [t.as_dict() for t in ladder.transitions]
        assert [r["from"] for r in rows] == ["MODEL", "REFRESHED"]
        assert [r["to"] for r in rows] == ["REFRESHED", "MAX_PERF"]
        assert rows[0]["detail"] == "k/time/up"


# ------------------------------------------------- deadline target semantics

class TestDeadlineSelection:
    def test_picks_min_energy_among_feasible(self):
        times = [1.0, 2.0, 3.0, 4.0]
        energies = [40.0, 20.0, 10.0, 5.0]
        assert deadline_index(times, energies, 3.0) == 2

    def test_infeasible_falls_back_to_fastest(self):
        assert deadline_index([2.0, 1.0, 3.0], [1.0, 9.0, 1.0], 0.5) == 1

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValidationError):
            deadline_index([], [], 1.0)

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            DEADLINE(0.0)
        with pytest.raises(ValidationError):
            DEADLINE(-1.0)
        with pytest.raises(ValidationError):
            SLA_SLACK(0.9)
        with pytest.raises(ValidationError):
            EnergyTarget(MIN_EDP.kind, value=1.0)

    def test_parse_roundtrip(self):
        for target in (DEADLINE(0.25), SLA_SLACK(1.35)):
            assert EnergyTarget.parse(target.name) == target


@st.composite
def _noisy_deadline_case(draw):
    """A smooth time/energy curve pair under multiplicative sensor noise."""
    n = draw(st.integers(min_value=2, max_value=24))
    t_fastest = draw(st.floats(min_value=1e-3, max_value=2.0))
    spread = draw(st.floats(min_value=1.0, max_value=6.0))
    noise_t = draw(
        st.lists(
            st.floats(min_value=0.7, max_value=1.4), min_size=n, max_size=n
        )
    )
    noise_e = draw(
        st.lists(
            st.floats(min_value=0.7, max_value=1.4), min_size=n, max_size=n
        )
    )
    # Times grow toward low clocks, energy shrinks; the noise breaks
    # monotonicity exactly the way real sensor windows do.
    times = [
        t_fastest * (1.0 + spread * i / n) * noise_t[i] for i in range(n)
    ]
    energies = [
        (10.0 + 50.0 * (n - i) / n) * noise_e[i] for i in range(n)
    ]
    slack = draw(st.floats(min_value=0.5, max_value=8.0))
    return times, energies, slack * t_fastest


class TestDeadlineFeasibilityProperty:
    @given(_noisy_deadline_case())
    @settings(max_examples=120, deadline=None)
    def test_never_exceeds_deadline_when_feasible_clock_exists(self, case):
        """The ladder's selection rule under noise: SLA before saving.

        Whatever the noise does to the curves, if *any* clock meets the
        deadline the selected one must, and among the feasible clocks it
        must be the cheapest; with no feasible clock the selection is the
        fastest clock — never slower than the MAX_PERF plan.
        """
        times, energies, deadline_s = case
        idx = deadline_index(times, energies, deadline_s)
        tolerant = deadline_s * (1.0 + DEADLINE_RTOL)
        t = np.asarray(times)
        feasible = np.flatnonzero(t <= tolerant)
        if feasible.size:
            assert times[idx] <= tolerant
            assert energies[idx] == min(energies[i] for i in feasible)
        else:
            assert idx == int(np.argmin(t))


# ----------------------------------------------------------- controller rails

@pytest.fixture(scope="module")
def adapt_setup():
    """A small Linear bundle + compiled static plan for guard-rail tests."""
    with scoped_cache():
        training = microbench_training_set(
            NVIDIA_V100, freq_stride=24, random_count=2
        )
        bundle = make_bundle("Linear", seed=11).fit(training)
        kernels = [get_benchmark("gemm").kernel]
        compiled = SynergyCompiler(bundle, NVIDIA_V100).compile(
            kernels, [SLA_SLACK(1.35)]
        )
    return bundle, compiled.plan, kernels


def _controller(adapt_setup) -> AdaptiveController:
    bundle, plan, _kernels = adapt_setup
    queue = SynergyQueue(SimulatedGPU(NVIDIA_V100, index=0))
    return AdaptiveController(queue, bundle, plan, SLA_SLACK(1.35))


class TestControllerGuards:
    def test_run_stream_validation(self, adapt_setup):
        controller = _controller(adapt_setup)
        kernels = adapt_setup[2]
        with pytest.raises(ValidationError):
            controller.run_stream([], deadline_s=1.0)
        with pytest.raises(ValidationError):
            controller.run_stream(kernels, deadline_s=0.0)
        with pytest.raises(ValidationError):
            controller.run_stream(kernels, deadline_s=1.0, rounds=0)

    def test_first_sighting_calibrates_at_top_clock(self, adapt_setup):
        controller = _controller(adapt_setup)
        kernels = adapt_setup[2]
        with scoped_cache():
            report = controller.run_stream(kernels, deadline_s=60.0, rounds=2)
        first, second = report.launches
        assert first.calibration and not second.calibration
        assert first.core_mhz == NVIDIA_V100.max_core_mhz
        # The calibrated second launch carries a prediction and a budget.
        assert second.predicted_s is not None and second.allocated_s > 0.0

    def test_missing_static_plan_entry_pins_max_perf(self, adapt_setup):
        controller = _controller(adapt_setup)
        controller.ladder.escalate_to(0.0, LadderLevel.STATIC, "drift", "test")
        unknown = get_benchmark("sobel3").kernel
        with scoped_cache():
            report = controller.run_stream([unknown], deadline_s=60.0)
        assert report.final_level is LadderLevel.MAX_PERF
        assert controller.ladder.transitions[-1].reason == "static-plan-missing"
        assert report.launches[0].core_mhz == NVIDIA_V100.max_core_mhz


# ------------------------------------------------------ thermal-drift chaos

@pytest.fixture(scope="module")
def comparison():
    with scoped_cache():
        return run_thermal_drift_comparison(seed=7)


class TestThermalDriftChaos:
    def test_clean_baselines_meet_every_deadline(self, comparison):
        assert comparison.max_perf.streams_missed == 0
        assert comparison.static_clean.streams_missed == 0
        assert comparison.static_saving > 0.2

    def test_static_goes_stale_adaptive_does_not(self, comparison):
        assert comparison.static_fault.streams_missed >= 1
        assert comparison.adaptive_fault.streams_missed == 0

    def test_each_window_throttles_only_its_streams_opening_launch(
        self, comparison
    ):
        # Streams are released one deadline apart and each window opens
        # at a release, then closes before the opening launch can finish
        # under its cap (a lower requested clock only runs longer): which
        # launch a window hits cannot depend on any clock chosen earlier.
        deadlines = comparison.deadlines_s
        assert release_times(deadlines) == pytest.approx(
            [k * deadlines[0] for k in range(len(deadlines))]
        )
        stream_s = deadlines[0] / DEADLINE_SLACK
        opening = scenario_kernels()[0]
        timing = SimulatedGPU(NVIDIA_V100, index=0).timing_model
        for window in (WINDOW1, WINDOW2):
            capped = timing.execute(
                opening, window["cap_mhz"], NVIDIA_V100.default_mem_mhz
            )
            assert window["duration"] * stream_s < capped.time_s

    def test_recovers_half_the_pre_drift_saving(self, comparison):
        assert comparison.adaptive_saving > 0.0
        assert comparison.recovery_fraction >= 0.5

    def test_full_ladder_traversal_with_refresh(self, comparison):
        assert len(comparison.drift_events) >= 1
        assert comparison.refreshes >= 1
        reached = {t["to"] for t in comparison.transitions}
        assert {"REFRESHED", "STATIC", "MAX_PERF"} <= reached

    def test_transition_log_monotone_and_contiguous(self, comparison):
        order = {"MODEL": 0, "REFRESHED": 1, "STATIC": 2, "MAX_PERF": 3}
        rows = comparison.transitions
        assert rows[0]["from"] == "MODEL"
        assert all(order[r["to"]] > order[r["from"]] for r in rows)
        assert all(
            b["from"] == a["to"] and b["t"] >= a["t"]
            for a, b in zip(rows, rows[1:])
        )

    def test_same_seed_replays_logs_byte_identically(self, comparison):
        with scoped_cache():
            replay = run_thermal_drift_comparison(seed=7)
        assert json.dumps(list(replay.drift_events)) == json.dumps(
            list(comparison.drift_events)
        )
        assert json.dumps(list(replay.transitions)) == json.dumps(
            list(comparison.transitions)
        )

    def test_as_dict_shape(self, comparison):
        doc = comparison.as_dict()
        assert {r["label"] for r in doc["runs"]} == {
            "max-perf", "static-clean", "static-fault", "adaptive-fault",
        }
        assert doc["recovery_fraction"] == comparison.recovery_fraction
        json.dumps(doc)  # must be JSON-serializable end to end
