"""Phase profiler tests (deterministic via an injected clock)."""

from repro.obs.profile import PhaseProfiler


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPhaseProfiler:
    def test_phase_context_manager_times_block(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("tracegen"):
            clock.now += 1.5
        assert profiler.seconds("tracegen") == 1.5

    def test_reentering_a_phase_accumulates(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        for _ in range(3):
            with profiler.phase("measure"):
                clock.now += 0.25
        assert profiler.seconds("measure") == 0.75
        assert profiler.total == 0.75

    def test_add_records_directly(self):
        profiler = PhaseProfiler()
        profiler.add("warmup", 0.125)
        assert profiler.as_dict() == {"warmup": 0.125}

    def test_as_dict_preserves_entry_order(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        for name in ("tracegen", "warmup", "measure"):
            with profiler.phase(name):
                clock.now += 1.0
        assert list(profiler.as_dict()) == ["tracegen", "warmup", "measure"]

    def test_exception_still_credits_the_phase(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        try:
            with profiler.phase("broken"):
                clock.now += 2.0
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert profiler.seconds("broken") == 2.0

    def test_render(self):
        profiler = PhaseProfiler()
        profiler.add("measure", 1.0)
        text = profiler.render()
        assert "measure" in text and "total" in text
        assert PhaseProfiler().render() == "phases: (none recorded)"


class TestCoreIntegration:
    def test_warmup_measure_split(self):
        from repro.config import SimConfig
        from repro.exec.cache import cached_trace
        from repro.obs.profile import PhaseProfiler
        from repro.sim.runner import build_simulator

        profiler = PhaseProfiler()
        trace = cached_trace("gzip", 1000, 2006, profiler=profiler)
        core, _ = build_simulator(SimConfig(), "decrypt-only")
        core.run(trace, warmup=400, profiler=profiler)
        phases = profiler.as_dict()
        assert phases["tracegen"] >= 0
        assert phases["warmup"] > 0
        assert phases["measure"] > 0
