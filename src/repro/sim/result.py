"""The outcome of one timing-simulation run, whichever path made it."""


class RunResult:
    """Outcome of one timing-simulation run."""

    def __init__(self, name, policy_name, instructions, cycles, stats,
                 miss_summary):
        self.name = name
        self.policy_name = policy_name
        self.instructions = instructions
        self.cycles = cycles
        self.stats = stats
        self.miss_summary = miss_summary
        # Derived RunMetrics, attached by repro.sim.runner.evaluate_trace;
        # None for results produced by driving the core directly.
        self.metrics = None
        # The evaluation path plus, for jobs, resource accounting (wall
        # and tracegen seconds, cache hit, peak RSS); never part of the
        # simulated state, so it stays out of result digests.
        self.accounting = None

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    def __repr__(self):
        return "RunResult(%s/%s, ipc=%.3f)" % (
            self.name, self.policy_name, self.ipc)
