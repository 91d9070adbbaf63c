"""Unit tests for the seedable fault-injection harness."""

import threading

import pytest

from repro.runtime.faultinject import (
    FaultInjector,
    InjectedFault,
    active_injector,
    arm,
    declared_fault_sites,
    disarm,
    fault_point,
    fault_site,
    injection,
)


class TestDeclaration:
    def test_fault_site_returns_name_and_declares(self):
        name = fault_site("test.declare")
        assert name == "test.declare"
        assert "test.declare" in declared_fault_sites()

    def test_core_sites_declared_at_import(self):
        # Importing the runtime + instrumentation modules (the conftest
        # does) must have declared every boundary the issue names.
        sites = declared_fault_sites()
        for expected in (
            "store.step_for",
            "plans.build",
            "update.init",
            "update.step",
            "update.cleanup",
            "prealloc.insert",
            "notify.emit",
            "notify.handler",
            "hooks.dispatch",
            "hooks.site",
        ):
            assert expected in sites


class TestDisarmed:
    def test_fault_point_is_noop_when_disarmed(self):
        disarm()
        fault_point("anything")  # must not raise

    def test_no_active_injector_by_default(self):
        assert active_injector() is None


class TestFiring:
    def test_rate_one_always_fires(self):
        with injection(seed=1) as injector:
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("test.always")
            assert excinfo.value.site == "test.always"
        assert injector.fired["test.always"] == 1
        assert active_injector() is None

    def test_only_filter_counts_but_never_fires_others(self):
        with injection(seed=1, only=["test.a"]) as injector:
            fault_point("test.b")
            with pytest.raises(InjectedFault):
                fault_point("test.a")
        assert injector.checks == {"test.b": 1, "test.a": 1}
        assert injector.fired == {"test.a": 1}

    def test_max_faults_caps_injections(self):
        with injection(seed=1, max_faults=2) as injector:
            for _ in range(5):
                try:
                    fault_point("test.capped")
                except InjectedFault:
                    pass
        assert injector.total_fired == 2
        assert injector.checks["test.capped"] == 5

    def test_rate_rejected_outside_unit_interval(self):
        with pytest.raises(ValueError):
            FaultInjector(seed=1, rate=1.5)


class TestDeterminism:
    def visit_stream(self, seed, rate, visits=200):
        decisions = []
        with injection(seed=seed, rate=rate):
            for index in range(visits):
                try:
                    fault_point(f"test.site{index % 3}")
                    decisions.append(False)
                except InjectedFault:
                    decisions.append(True)
        return decisions

    def test_same_seed_same_decisions(self):
        assert self.visit_stream(42, 0.3) == self.visit_stream(42, 0.3)

    def test_different_seed_different_decisions(self):
        assert self.visit_stream(42, 0.3) != self.visit_stream(43, 0.3)

    def test_only_filter_does_not_shift_remaining_stream(self):
        # Restricting injection to a subset must not change which visits
        # of the surviving site fire: the PRNG is consumed per eligible
        # visit regardless.
        def fires_for_site(only):
            fired = []
            with injection(seed=7, rate=0.5, only=only):
                for index in range(100):
                    site = "test.keep" if index % 2 else "test.drop"
                    try:
                        fault_point(site)
                        fired.append(None)
                    except InjectedFault as fault:
                        fired.append(fault.site)
            return [f for f in fired if f == "test.keep"]

        both = fires_for_site(["test.keep", "test.drop"])
        filtered = fires_for_site(["test.keep"])
        assert both == filtered

    def test_thread_safety_of_counters(self):
        injector = arm(FaultInjector(seed=3, rate=0.0))
        try:
            def worker():
                for _ in range(1000):
                    fault_point("test.threads")

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert injector.checks["test.threads"] == 8000
        finally:
            disarm()


class TestStats:
    def test_stats_shape(self):
        with injection(seed=5, rate=1.0, only=["test.s"]) as injector:
            with pytest.raises(InjectedFault):
                fault_point("test.s")
        stats = injector.stats()
        assert stats["seed"] == 5
        assert stats["only"] == ["test.s"]
        assert stats["total_fired"] == 1
        assert stats["total_checks"] == 1
        assert stats["fired"] == {"test.s": 1}

    def test_injected_fault_is_not_tesla_error(self):
        from repro.errors import TeslaError

        assert not issubclass(InjectedFault, TeslaError)
