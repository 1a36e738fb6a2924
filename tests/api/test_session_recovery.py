"""Session self-healing primitives: consistency checking, recovery
actions, kernel snapshot guards, and the fault hook."""

import numpy as np
import pytest

from repro.api import Problem, Session
from repro.instances import random_uniform_instance
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultSpec, InjectedFault


def make_session(n=10, seed=5):
    return Session(
        Problem(random_uniform_instance(n, rng=np.random.default_rng(seed)))
    )


def session_plan(phase, at=(0,)):
    return FaultPlan(
        specs=(FaultSpec(site="session", phase=phase, at=at),)
    )


class TestCheckConsistency:
    def test_healthy_session_is_consistent(self):
        session = make_session()
        assert session.check_consistency() is None
        session.add_requests([(0, 3)])
        session.remove_requests([session.handles[-1]])
        assert session.check_consistency() is None

    def test_interrupted_admission_is_detected(self):
        session = make_session()
        session.set_fault_hook(session_plan("add_requests:grown"))
        with pytest.raises(InjectedFault):
            session.add_requests([(0, 3)])
        damage = session.check_consistency()
        assert damage is not None
        assert "interrupted" in damage


class TestRecover:
    def test_rebuild_after_half_mutation_matches_cold(self):
        session = make_session()
        session.ensure_live()
        session.add_requests([(0, 3)])
        session.set_fault_hook(
            session_plan("add_requests:grown"), key="cell"
        )
        snap = session.live_kernel.snapshot()
        with pytest.raises(InjectedFault):
            session.add_requests([(1, 4)])
        assert session.recover(snap) == "rebuild"
        assert session.check_consistency() is None

        # Subsequent admissions color bit-identically to a session
        # that never saw the fault.
        session.set_fault_hook(None)
        session.add_requests([(1, 4)])
        session.add_requests([(2, 5)])
        cold = make_session()
        for pairs in ([(0, 3)], [(1, 4)], [(2, 5)]):
            cold.add_requests(pairs)
        assert np.array_equal(
            session.live_result().schedule.colors,
            cold.live_result().schedule.colors,
        )

    def test_snapshot_restore_when_state_intact(self):
        session = make_session()
        session.ensure_live()
        session.set_fault_hook(session_plan("add_requests:pre"))
        snap = session.live_kernel.snapshot()
        colors_before = np.array(session.live_kernel.colors)
        with pytest.raises(InjectedFault):
            session.add_requests([(0, 3)])
        assert session.recover(snap) == "snapshot"
        assert np.array_equal(
            np.array(session.live_kernel.colors), colors_before
        )

    def test_stale_snapshot_falls_back_to_rekernel(self):
        session = make_session()
        session.ensure_live()
        snap = session.live_kernel.snapshot()
        session.add_requests([(0, 3)])  # grows the kernel
        assert session.recover(snap) == "rekernel"
        assert session.live_kernel is None
        # The kernel replays lazily and consistently on next use.
        assert session.live_result().schedule.n == session.active_requests

    def test_recover_without_snapshot(self):
        session = make_session()
        session.ensure_live()
        assert session.recover() == "rekernel"
        assert session.check_consistency() is None

    def test_recovered_removal_state_survives(self):
        # Damage after a departure: recovery must keep the free-slot
        # bookkeeping intact.
        session = make_session()
        session.ensure_live()
        handles = session.add_requests([(0, 3), (1, 4)])
        session.remove_requests([handles[0]])
        session.set_fault_hook(session_plan("add_requests:grown"))
        with pytest.raises(InjectedFault):
            session.add_requests([(2, 5)])
        assert session.recover() == "rebuild"
        assert session.check_consistency() is None
        assert session.active_requests == 11  # 10 initial + 2 - 1


class TestKernelSnapshotGuard:
    def test_restore_across_growth_raises(self):
        session = make_session()
        kernel = session.ensure_live()
        snap = kernel.snapshot()
        session.add_requests([(1, 2)])
        with pytest.raises(ValueError, match="instance growth"):
            session.live_kernel.restore(snap)

    def test_snapshot_records_n(self):
        session = make_session(n=10)
        snap = session.ensure_live().snapshot()
        assert snap["n"] == 10

    def test_same_n_restore_is_bitwise(self):
        session = make_session()
        kernel = session.ensure_live()
        snap = kernel.snapshot()
        colors = np.array(kernel.colors)
        # Mutate: move a request into a fresh class, then restore.
        kernel.remove(0)
        kernel.add(0, kernel.open_class())
        assert not np.array_equal(np.array(kernel.colors), colors)
        kernel.restore(snap)
        assert np.array_equal(np.array(kernel.colors), colors)


class TestFaultHook:
    def test_hook_fires_with_key_and_phase(self):
        session = make_session()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="session",
                    key="cell-a",
                    phase="add_requests:pre",
                    at=(0,),
                ),
            )
        )
        session.set_fault_hook(plan, key="cell-a")
        with pytest.raises(InjectedFault, match="cell-a"):
            session.add_requests([(0, 3)])

    def test_other_key_does_not_fire(self):
        session = make_session()
        plan = FaultPlan(
            specs=(
                FaultSpec(site="session", key="cell-b", at=(0,)),
            )
        )
        session.set_fault_hook(plan, key="cell-a")
        session.add_requests([(0, 3)])  # no fault
        assert plan.fired == 0

    def test_clearing_the_hook(self):
        session = make_session()
        session.set_fault_hook(session_plan("add_requests:pre"))
        session.set_fault_hook(None)
        session.add_requests([(0, 3)])
        assert session.check_consistency() is None

    def test_empty_add_never_fires(self):
        session = make_session()
        session.set_fault_hook(session_plan("add_requests:pre"))
        session.add_requests([])  # early-out before the injection point
        assert session.check_consistency() is None
