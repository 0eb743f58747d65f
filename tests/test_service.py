"""Multi-tenant service-plane tests: tenancy invariants, job store, loadgen.

The Hypothesis suite pins down the plane's contractual invariants:

- **quota conservation** — under arbitrary admit/reject/drain streams, a
  tenant's pending queue never exceeds its quota, and the job store's
  independent fold agrees with the live plane;
- **admission monotonicity** — raising every quota never rejects a
  stream that was previously admitted (budget-free tenants: energy
  budgets are deliberately non-monotone, a rejected submission saves
  joules for a later one);
- **priority non-starvation** — every admitted submission drains in the
  next cycle regardless of band, and batches within one (shard, cycle)
  drain in priority order;
- **batch-order permutation invariance** — a tenant's aggregate modeled
  kernel energy depends on the multiset of its kernels, not on
  submission interleaving.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.syclbench.definitions import get_benchmark
from repro.common.errors import ConfigurationError, ValidationError
from repro.common.rng import make_rng
from repro.core.sweepcache import scoped_cache
from repro.engine.payload import plan_from_sweeps
from repro.hw.specs import NVIDIA_V100
from repro.metrics.targets import MAX_PERF, MIN_EDP, MIN_ENERGY
from repro.obs.session import TraceSession
from repro.service import (
    AdmissionDecision,
    JobStore,
    RejectReason,
    SchedulingService,
    Tenant,
    TenantRegistry,
    fold_events,
    run_service_session,
)
from repro.service.loadgen import baseline_energies, seeded_tenants
from repro.service.plane import shard_of

pytestmark = pytest.mark.service

KERNEL_NAMES = ("vec_add", "gemm", "median")
TENANT_NAMES = ("alpha", "bravo", "charlie", "delta")


@pytest.fixture(scope="module")
def setup():
    """Kernels, a shared frequency plan and MAX_PERF baselines.

    Module-scoped with the sweep cache held open, so every Hypothesis
    example reuses the same warmed physics instead of re-sweeping.
    """
    with scoped_cache():
        kernels = [get_benchmark(n).kernel for n in KERNEL_NAMES]
        plan = plan_from_sweeps(
            NVIDIA_V100, kernels, (MIN_EDP, MIN_ENERGY, MAX_PERF)
        )
        baseline = baseline_energies(NVIDIA_V100, kernels)
        yield kernels, plan, baseline


def _make_service(setup, tenants, **kwargs):
    _, plan, baseline = setup
    service = SchedulingService(
        NVIDIA_V100, n_partitions=2, plan=plan, baseline_j=baseline, **kwargs
    )
    for tenant in tenants:
        service.register(tenant)
    return service


# ----------------------------------------------------------- property suite

ops = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        st.just("drain"),
    ),
    max_size=40,
)


@settings(max_examples=25, deadline=None)
@given(ops=ops)
def test_quota_conservation(setup, ops):
    kernels = setup[0]
    tenants = [
        Tenant(name=TENANT_NAMES[i], priority=i % 2, quota=i + 1)
        for i in range(4)
    ]
    service = _make_service(setup, tenants)
    t = 0.0
    for op in ops:
        if op == "drain":
            t += 1.0
            service.drain(t)
            assert all(service.tenant_report(x.name)["pending"] == 0 for x in tenants)
            continue
        ti, ki = op
        tenant = tenants[ti]
        before = service.tenant_report(tenant.name)["pending"]
        decision = service.submit(tenant.name, kernels[ki], t)
        if before >= tenant.quota:
            assert not decision
            assert decision.reason is RejectReason.QUOTA_EXCEEDED
        else:
            assert decision
        assert service.tenant_report(tenant.name)["pending"] <= tenant.quota
    # The fold re-derives state from the log alone and raises if any
    # admit/drain event ever violated the quota.
    folded = fold_events(service.store.events)
    for tenant in tenants:
        st_ = folded[tenant.name]
        assert st_["pending"] == service.tenant_report(tenant.name)["pending"]
        assert st_["admitted"] == st_["pending"] + st_["drained"]


@settings(max_examples=15, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.booleans()),
        max_size=30,
    ),
    raise_by=st.integers(1, 4),
)
def test_admission_monotonicity(setup, stream, raise_by):
    """Raising every quota never rejects a previously admitted stream."""
    kernels = setup[0]

    def run(extra: int) -> list[bool]:
        tenants = [
            Tenant(name=TENANT_NAMES[i], priority=i % 3, quota=2 + extra)
            for i in range(4)
        ]
        service = _make_service(setup, tenants)
        decisions = []
        t = 0.0
        for ti, ki, drain_after in stream:
            decisions.append(
                bool(service.submit(TENANT_NAMES[ti], kernels[ki], t))
            )
            if drain_after:
                t += 1.0
                service.drain(t)
        return decisions

    for was_admitted, still_admitted in zip(run(0), run(raise_by)):
        if was_admitted:
            assert still_admitted


@settings(max_examples=15, deadline=None)
@given(n_subs=st.integers(1, 24), seed=st.integers(0, 2**16))
def test_priority_non_starvation(setup, n_subs, seed):
    kernels = setup[0]
    tenants = [
        Tenant(name=TENANT_NAMES[i], priority=i % 3, quota=64)
        for i in range(4)
    ]
    service = _make_service(setup, tenants)
    rng = make_rng(seed)
    for _ in range(n_subs):
        service.submit(
            TENANT_NAMES[int(rng.integers(0, 4))],
            kernels[int(rng.integers(0, len(kernels)))],
            0.0,
        )
    service.drain(1.0)
    folded = fold_events(service.store.events)
    for tenant in tenants:
        assert service.tenant_report(tenant.name)["pending"] == 0
        assert folded[tenant.name]["drained"] == folded[tenant.name]["admitted"]
    # Within each (shard, cycle), batches drain in priority-band order.
    bands = {t.name: t.priority for t in tenants}
    last_band: dict[tuple[int, int], int] = {}
    for event in service.store.select("batch"):
        key = (event["shard"], event["cycle"])
        band = bands[event["tenant"]]
        assert band >= last_band.get(key, band)
        last_band[key] = band


@settings(max_examples=10, deadline=None)
@given(
    subs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        min_size=1,
        max_size=24,
    ),
    perm_seed=st.integers(0, 2**16),
)
def test_batch_order_permutation_invariance(setup, subs, perm_seed):
    """Per-tenant aggregate energy ignores submission interleaving."""
    kernels = setup[0]

    def run(order):
        tenants = [Tenant(name=TENANT_NAMES[i], quota=64) for i in range(4)]
        service = _make_service(setup, tenants)
        for ti, ki in order:
            service.submit(TENANT_NAMES[ti], kernels[ki], 0.0)
        service.drain(1.0)
        return {x.name: service.tenant_report(x.name)["energy_j"] for x in tenants}

    rng = make_rng(perm_seed)
    permuted = [subs[i] for i in rng.permutation(len(subs))]
    a, b = run(subs), run(permuted)
    for name in a:
        assert math.isclose(a[name], b[name], rel_tol=1e-9, abs_tol=1e-12)


# ------------------------------------------------------------- tenant model

class TestTenantModel:
    def test_tenant_validation(self):
        with pytest.raises(ValidationError):
            Tenant(name="")
        with pytest.raises(ValidationError):
            Tenant(name="x", priority=-1)
        with pytest.raises(ValidationError):
            Tenant(name="x", quota=0)
        with pytest.raises(ValidationError):
            Tenant(name="x", energy_budget_j=0.0)
        with pytest.raises(ValidationError):
            Tenant(name="x", target="MIN_EDP")

    def test_registry_rejects_duplicates_and_unknowns(self):
        registry = TenantRegistry()
        registry.register(Tenant(name="a"))
        with pytest.raises(ConfigurationError):
            registry.register(Tenant(name="a"))
        with pytest.raises(ConfigurationError):
            registry.get("b")
        assert "a" in registry and "b" not in registry
        assert len(registry) == 1

    def test_registry_iterates_in_name_order(self):
        registry = TenantRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(Tenant(name=name))
        assert [t.name for t in registry] == ["alpha", "mid", "zeta"]

    def test_admission_decision_invariants(self):
        assert AdmissionDecision(admitted=True, sub_id=1)
        assert not AdmissionDecision(
            admitted=False, reason=RejectReason.QUOTA_EXCEEDED
        )
        with pytest.raises(ValidationError):
            AdmissionDecision(admitted=True, reason=RejectReason.QUOTA_EXCEEDED)
        with pytest.raises(ValidationError):
            AdmissionDecision(admitted=False)

    def test_shard_placement_is_stable_and_in_range(self):
        for n in (1, 2, 8):
            for name in TENANT_NAMES:
                s = shard_of(name, n)
                assert 0 <= s < n
                assert s == shard_of(name, n)


# -------------------------------------------------------- admission control

class TestAdmission:
    def test_unknown_tenant_is_rejected_not_raised(self, setup):
        kernels = setup[0]
        service = _make_service(setup, [Tenant(name="alpha")])
        decision = service.submit("ghost", kernels[0], 0.0)
        assert not decision
        assert decision.reason is RejectReason.UNKNOWN_TENANT
        rejects = service.store.select("reject")
        assert rejects and rejects[-1]["reason"] == "unknown_tenant"

    def test_energy_budget_exhaustion(self, setup):
        kernels = setup[0]
        tenant = Tenant(name="alpha", quota=8, energy_budget_j=1e-6)
        service = _make_service(setup, [tenant])
        assert service.submit("alpha", kernels[0], 0.0)
        service.drain(1.0)
        assert service.tenant_report("alpha")["energy_j"] > 1e-6
        decision = service.submit("alpha", kernels[0], 2.0)
        assert not decision
        assert decision.reason is RejectReason.ENERGY_BUDGET_EXHAUSTED

    def test_drain_frees_quota(self, setup):
        kernels = setup[0]
        service = _make_service(setup, [Tenant(name="alpha", quota=2)])
        assert service.submit("alpha", kernels[0], 0.0)
        assert service.submit("alpha", kernels[1], 0.0)
        assert not service.submit("alpha", kernels[2], 0.0)
        service.drain(1.0)
        assert service.submit("alpha", kernels[2], 2.0)

    def test_owner_attribute_lands_on_kernel_spans(self, setup):
        kernels = setup[0]
        trace = TraceSession()
        service = _make_service(setup, [Tenant(name="alpha")], trace=trace)
        service.submit("alpha", kernels[0], 0.0)
        service.drain(1.0)
        owned = [
            sp for sp in trace.tracer.spans
            if sp.category == "queue.kernel"
        ]
        assert owned
        assert all(sp.attrs.get("owner") == "alpha" for sp in owned)


# ----------------------------------------------------------------- job store

class TestJobStore:
    def test_rejects_unknown_event_kinds(self):
        store = JobStore()
        with pytest.raises(ValidationError):
            store.append("meteor", tenant="x")
        with pytest.raises(ValidationError):
            store.select("meteor")

    def test_save_load_roundtrip_is_byte_identical(self, tmp_path):
        store = JobStore()
        store.append("tenant", tenant="a", priority=0, quota=4,
                     energy_budget_j=None, target="MIN_EDP", shard=0)
        store.append("admit", t=0.5, sub=0, tenant="a", kernel="gemm",
                     target="MIN_EDP")
        path = store.save(tmp_path / "store.json")
        assert JobStore.load(path).canonical_bytes() == store.canonical_bytes()

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "metrics"}')
        with pytest.raises(ValidationError):
            JobStore.load(path)

    def test_fold_detects_quota_violation(self):
        store = JobStore()
        store.append("tenant", tenant="a", priority=0, quota=1,
                     energy_budget_j=None, target="MIN_EDP", shard=0)
        store.append("admit", t=0.0, sub=0, tenant="a", kernel="gemm",
                     target="MIN_EDP")
        store.append("admit", t=0.1, sub=1, tenant="a", kernel="gemm",
                     target="MIN_EDP")
        with pytest.raises(ValidationError):
            fold_events(store.events)

    def test_fold_detects_overdrain(self):
        store = JobStore()
        store.append("tenant", tenant="a", priority=0, quota=4,
                     energy_budget_j=None, target="MIN_EDP", shard=0)
        store.append("batch", t=1.0, cycle=0, shard=0, tenant="a", job_id=1,
                     n=1, state="COMPLETED", energy_j=0.1, board_energy_j=0.1)
        with pytest.raises(ValidationError):
            fold_events(store.events)


# ------------------------------------------------------------------ sessions

class TestSeededSessions:
    def test_same_seed_sessions_are_byte_identical(self):
        def run():
            with scoped_cache():
                return run_service_session(
                    seed=11, n_tenants=4, n_submissions=100,
                    n_partitions=2, n_cycles=2,
                )

        a, b = run(), run()
        assert a.store.canonical_bytes() == b.store.canonical_bytes()

    def test_a_session_builds_no_record(self, monkeypatch):
        """The job payload sums each board's queue from the record columns:
        a smoke session builds no record and no bulk event."""
        import repro.hw.records as records_module
        import repro.sycl.event as event_module

        made = []

        class CountingRecord(records_module.KernelExecutionRecord):
            def __init__(self, *args):
                made.append("record")
                super().__init__(*args)

        class CountingEvent(event_module.BlockEvent):
            def __init__(self, *args):
                made.append("event")
                super().__init__(*args)

        monkeypatch.setattr(records_module, "KernelExecutionRecord", CountingRecord)
        monkeypatch.setattr(event_module, "BlockEvent", CountingEvent)
        with scoped_cache():
            service = run_service_session(
                seed=7, n_tenants=4, n_submissions=200, n_partitions=2,
                n_cycles=2,
            )
        assert service.store.select("batch")
        assert made == []

    def test_different_seeds_diverge(self):
        def run(seed):
            with scoped_cache():
                return run_service_session(
                    seed=seed, n_tenants=4, n_submissions=100,
                    n_partitions=2, n_cycles=2,
                )

        assert (
            run(1).store.canonical_bytes() != run(2).store.canonical_bytes()
        )

    def test_seeded_tenants_are_diverse_and_deterministic(self):
        fleet = seeded_tenants(64, seed=7)
        assert [t.name for t in fleet] == [f"t{i:03d}" for i in range(64)]
        assert {t.priority for t in fleet} == {0, 1, 2}
        assert any(t.quota == 32 for t in fleet)
        assert any(t.energy_budget_j is not None for t in fleet)
        again = seeded_tenants(64, seed=7)
        assert fleet == again
        with pytest.raises(ConfigurationError):
            seeded_tenants(0)

    def test_session_rejects_degenerate_configs(self):
        with pytest.raises(ConfigurationError):
            run_service_session(n_submissions=0)
        with pytest.raises(ConfigurationError):
            SchedulingService(NVIDIA_V100, n_partitions=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cycles": 0},
            {"n_tenants": 0},
            {"n_partitions": 0},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v!r}" for k, v in kwargs.items()),
    )
    def test_session_arguments_raise_configuration_error(self, kwargs):
        """Every bad session argument raises the one boundary error type."""
        small = {"n_tenants": 2, "n_submissions": 8, "n_partitions": 1, "n_cycles": 1}
        with pytest.raises(ConfigurationError):
            run_service_session(**{**small, **kwargs})
