"""Unit tests for the supervision layer: policies, containment, quarantine."""

import pytest

from repro.core.dsl import ANY, fn, previously, tesla_within, var
from repro.core.events import EventKind, call_event, return_event
from repro.errors import TemporalAssertionError
from repro.runtime.epoch import interest_epoch
from repro.runtime.faultinject import InjectedFault, injection
from repro.runtime.manager import TeslaRuntime
from repro.runtime.supervisor import (
    CallbackPolicy,
    FailOpen,
    FailStopFaults,
    MonitorFault,
    QuarantinePolicy,
    QuarantineState,
    Supervisor,
)


def mac_assertion(name, bound="syscall"):
    return tesla_within(
        bound, previously(fn("check", ANY("c"), var("vp")) == 0), name=name
    )


ENTER = lambda: call_event("syscall", ())
EXIT = lambda: return_event("syscall", (), 0)
CHECK = lambda vp: return_event("check", ("cred", vp), 0)


class TestPolicies:
    def test_failstop_is_default_and_propagates(self):
        supervisor = Supervisor()
        assert isinstance(supervisor.policy, FailStopFaults)
        assert not supervisor.contain("a", "body", ValueError("x"))
        assert supervisor.propagated == 1
        assert supervisor.contained == 0

    def test_failopen_contains_and_counts(self):
        supervisor = Supervisor(FailOpen())
        assert supervisor.contain("a", "body", ValueError("x"))
        assert supervisor.contained == 1
        assert supervisor.fault_counts["a"] == 1
        assert supervisor.stage_counts["body"] == 1
        assert supervisor.degraded

    def test_injected_faults_counted_separately(self):
        supervisor = Supervisor(FailOpen())
        supervisor.contain("a", "body", InjectedFault("store.insert"))
        supervisor.contain("a", "body", ValueError("organic"))
        assert supervisor.injected_recorded == 1
        assert supervisor.total_faults == 2
        assert supervisor.last_faults[0].injected_site == "store.insert"
        assert "store.insert" in supervisor.last_faults[0].describe()

    def test_callback_policy_veto_and_containment(self):
        seen = []

        def callback(fault):
            seen.append(fault)
            return fault.automaton != "veto-me"

        supervisor = Supervisor(CallbackPolicy(callback))
        assert supervisor.contain("ok", "body", ValueError("x"))
        assert not supervisor.contain("veto-me", "body", ValueError("x"))
        assert len(seen) == 2
        assert all(isinstance(f, MonitorFault) for f in seen)

    def test_raising_callback_is_contained(self):
        def bad_callback(fault):
            raise RuntimeError("callback bug")

        policy = CallbackPolicy(bad_callback)
        supervisor = Supervisor(policy)
        assert supervisor.contain("a", "body", ValueError("x"))
        assert policy.callback_faults == 1

    def test_broken_policy_never_reopens_boundary(self):
        class BrokenPolicy(FailOpen):
            def contain(self, fault):
                raise RuntimeError("policy bug")

        supervisor = Supervisor(BrokenPolicy())
        # A raising policy defaults to propagate (loud), never to a
        # half-decided state.
        assert not supervisor.contain("a", "body", ValueError("x"))

    def test_last_faults_ring_is_bounded(self):
        supervisor = Supervisor(FailOpen(), last_errors=4)
        for index in range(10):
            supervisor.contain("a", "body", ValueError(str(index)))
        assert len(supervisor.last_faults) == 4
        assert supervisor.last_faults[-1].error == "9"


class TestQuarantineUnit:
    def make(self, **kwargs):
        defaults = dict(threshold=3, window=100, cooldown=50, backoff=2.0,
                        max_trips=3, probation=True, probation_ticks=20)
        defaults.update(kwargs)
        return Supervisor(QuarantinePolicy(**defaults))

    def fault(self, supervisor, name="a"):
        supervisor.contain(name, "body", ValueError("boom"))

    def test_trips_at_threshold_within_window(self):
        supervisor = self.make()
        for _ in range(2):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        assert not supervisor.is_shed("a")
        supervisor.begin_dispatch()
        self.fault(supervisor)
        assert supervisor.is_shed("a")
        assert supervisor.quarantine_state("a") is QuarantineState.QUARANTINED

    def test_window_slides_old_faults_out(self):
        supervisor = self.make(threshold=3, window=10)
        supervisor.begin_dispatch()
        self.fault(supervisor)
        supervisor.advance(50)  # first fault ages out of the window
        self.fault(supervisor)
        supervisor.begin_dispatch()
        self.fault(supervisor)
        assert not supervisor.is_shed("a")

    def test_faults_while_shed_do_not_retrip(self):
        supervisor = self.make()
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        record = supervisor.quarantine_rows()[0]
        assert record.trips == 1
        self.fault(supervisor)  # e.g. a mid-flight event on another thread
        assert supervisor.quarantine_rows()[0].trips == 1

    def test_probation_rearm_after_cooldown(self):
        supervisor = self.make(cooldown=50, probation_ticks=20)
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        assert supervisor.is_shed("a")
        supervisor.advance(60)  # past until_tick: probation begins
        assert not supervisor.is_shed("a")
        assert supervisor.quarantine_state("a") is QuarantineState.PROBATION
        supervisor.advance(25)  # clean probation: back to full service
        assert supervisor.quarantine_state("a") is QuarantineState.ARMED

    def test_one_strike_on_probation_retrips_with_backoff(self):
        supervisor = self.make(cooldown=50, backoff=2.0)
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        first_until = supervisor.quarantine_rows()[0].until_tick
        supervisor.advance(60)
        assert supervisor.quarantine_state("a") is QuarantineState.PROBATION
        self.fault(supervisor)  # one strike
        record = supervisor.quarantine_rows()[0]
        assert record.trips == 2
        assert record.state is QuarantineState.QUARANTINED
        # Second cooldown is backoff× the first.
        assert record.until_tick - supervisor.tick == 100
        assert first_until < record.until_tick

    def test_permanent_after_max_trips(self):
        supervisor = self.make(max_trips=2, cooldown=10, probation_ticks=5)
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        supervisor.advance(20)  # probation
        self.fault(supervisor)  # trip 2 == max_trips
        assert supervisor.quarantine_state("a") is QuarantineState.PERMANENT
        assert supervisor.is_shed("a")
        supervisor.advance(10_000)
        assert supervisor.is_shed("a")  # permanent means permanent

    def test_no_probation_means_permanent_first_trip(self):
        supervisor = self.make(probation=False)
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        assert supervisor.quarantine_state("a") is QuarantineState.PERMANENT

    def test_pseudo_labels_and_handlers_never_quarantined(self):
        supervisor = self.make(threshold=1)
        supervisor.begin_dispatch()
        supervisor.contain("(hook)", "dispatch", ValueError("x"))
        supervisor.record_handler_fault("a", object(), ValueError("x"))
        assert not supervisor.shed_classes

    def test_handler_faults_always_contained_regardless_of_policy(self):
        supervisor = Supervisor()  # fail-stop default
        supervisor.record_handler_fault("a", object(), ValueError("x"))
        assert supervisor.handler_faults == 1
        assert supervisor.contained == 1
        assert supervisor.propagated == 0

    def test_change_listener_fires_on_trip_and_rearm(self):
        changes = []
        supervisor = self.make(cooldown=50)
        supervisor.add_listener(lambda: changes.append(supervisor.tick))
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        assert len(changes) == 1  # the trip
        supervisor.advance(60)
        assert len(changes) == 2  # probation re-arm

    def test_reset_lifts_quarantine(self):
        supervisor = self.make()
        for _ in range(3):
            supervisor.begin_dispatch()
            self.fault(supervisor)
        supervisor.reset()
        assert not supervisor.shed_classes
        assert supervisor.total_faults == 0
        assert supervisor.quarantine_state("a") is QuarantineState.ARMED


class TestRuntimeContainment:
    """Containment at the dispatch boundary of a real runtime."""

    def test_default_policy_propagates_injected_faults(self):
        runtime = TeslaRuntime()
        runtime.install_assertion(mac_assertion("sp1"))
        with injection(seed=1, only=["update.step"]):
            runtime.handle_event(ENTER())
            with pytest.raises(InjectedFault):
                runtime.handle_event(CHECK("vp1"))

    def test_failopen_swallows_and_records(self):
        runtime = TeslaRuntime(failure_policy=FailOpen())
        runtime.install_assertion(mac_assertion("sp2"))
        with injection(seed=1, only=["update.step"]) as injector:
            runtime.handle_event(ENTER())
            runtime.handle_event(CHECK("vp1"))  # fault contained
        assert injector.total_fired >= 1
        assert runtime.supervisor.contained == injector.total_fired
        assert runtime.supervisor.injected_recorded == injector.total_fired
        assert runtime.supervisor.fault_counts.get("sp2", 0) >= 1

    def test_violations_never_contained(self):
        runtime = TeslaRuntime(failure_policy=FailOpen())
        runtime.install_assertion(mac_assertion("sp3"))
        runtime.handle_event(ENTER())
        from repro.core.events import assertion_site_event

        with pytest.raises(TemporalAssertionError):
            runtime.handle_event(assertion_site_event("sp3", {"vp": "vpX"}))
        assert runtime.supervisor.contained == 0

    def test_tick_advances_per_event(self):
        runtime = TeslaRuntime()
        runtime.install_assertion(mac_assertion("sp4"))
        runtime.handle_event(ENTER())
        runtime.handle_event(EXIT())
        assert runtime.supervisor.tick == 2


class TestRuntimeQuarantine:
    """Quarantine as observed through a live runtime's dispatch plans."""

    def quarantine_runtime(self, name, **policy_kwargs):
        defaults = dict(threshold=3, window=100, cooldown=10,
                        probation_ticks=5, max_trips=3)
        defaults.update(policy_kwargs)
        runtime = TeslaRuntime(failure_policy=QuarantinePolicy(**defaults))
        runtime.install_assertion(mac_assertion(name))
        return runtime

    def trip(self, runtime, fired_target=3):
        with injection(seed=1, only=["update.step"]) as injector:
            runtime.handle_event(ENTER())
            while injector.total_fired < fired_target:
                runtime.handle_event(CHECK("vp1"))
        return injector

    def test_threshold_trip_sheds_class_from_dispatch(self):
        runtime = self.quarantine_runtime("q1")
        self.trip(runtime)
        assert runtime.supervisor.is_shed("q1")
        # Shed class processes nothing: events flow, instances frozen.
        before = runtime.class_runtime("q1").pool.snapshot()
        runtime.handle_event(CHECK("vp2"))
        assert runtime.class_runtime("q1").pool.snapshot() == before

    def test_trip_bumps_interest_epoch(self):
        runtime = self.quarantine_runtime("q2")
        epoch_before = interest_epoch.value
        self.trip(runtime)
        assert interest_epoch.value > epoch_before

    def test_observes_unaffected_but_plan_filtered(self):
        runtime = self.quarantine_runtime("q3")
        self.trip(runtime)
        # The index still knows the key (installation is intact)…
        assert runtime.observes((EventKind.RETURN, "check"))
        # …but the dispatch plan for the key is empty while shed.
        plan = runtime._plan_for((EventKind.RETURN, "check"))
        assert plan.shared is None and plan.local is None

    def test_probation_rearm_restores_dispatch(self):
        runtime = self.quarantine_runtime("q4", cooldown=10, probation_ticks=5)
        self.trip(runtime)
        # Push the tick clock past the cooldown with harmless events.
        for _ in range(12):
            runtime.handle_event(call_event("unrelated", ()))
        assert not runtime.supervisor.is_shed("q4")
        state = runtime.supervisor.quarantine_state("q4")
        assert state is QuarantineState.PROBATION
        # Dispatch works again: a fresh bound accepts cleanly.
        runtime.handle_event(CHECK("vp9"))
        assert runtime.class_runtime("q4").active

    def test_seed_determinism_of_trip_tick(self):
        def trip_tick(seed):
            runtime = self.quarantine_runtime(f"q5s{seed}")
            with injection(seed=seed, rate=0.5, only=["update.step"]):
                runtime.handle_event(ENTER())
                for _ in range(200):
                    if runtime.supervisor.is_shed(f"q5s{seed}"):
                        break
                    runtime.handle_event(CHECK("vp1"))
            return runtime.supervisor.tick

        # Same seed, fresh runtime: identical trip tick, twice over.
        first = trip_tick(99)
        # Recreate under a different class name but same seed/trace shape.
        second = trip_tick(99)
        assert first == second
