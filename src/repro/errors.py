"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class CircuitError(ReproError):
    """A power-supply circuit is physically invalid for the requested analysis."""


class CalibrationError(ReproError):
    """A calibration search failed to converge or was given impossible bounds."""


class TraceError(ReproError):
    """A synthetic instruction trace is malformed or exhausted unexpectedly."""


class SimulationError(ReproError):
    """The cycle-level simulation reached an inconsistent state."""


class FaultError(ReproError):
    """An injected or detected fault made a run unusable.

    Raised by the fault-injection subsystem (:mod:`repro.faults`) when an
    injected fault is configured to abort the run, by the power models when
    a non-finite current or voltage would otherwise propagate garbage into
    the metrics, and by the resilient runner when a sweep cell exhausts its
    wall-clock timeout or retry budget.  Catching :class:`FaultError`
    separates "this run was (deliberately or accidentally) broken" from
    genuine modelling bugs (:class:`SimulationError`) and bad inputs
    (:class:`ConfigurationError`).
    """


class HarnessError(ReproError):
    """The experiment harness itself (not a simulated run) failed.

    Separates supervision-layer problems -- a closed runner asked to sweep,
    a worker pool that cannot be rebuilt, an unusable checkpoint -- from
    modelling errors: a :class:`HarnessError` means the *infrastructure*
    needs attention, never the physics.
    """


class ResilienceConfigError(ConfigurationError, HarnessError):
    """A :class:`~repro.sim.runner.ResilienceConfig` knob is out of range.

    Raised at *construction* so a bad timeout, retry budget, worker count
    or drain deadline fails immediately with a clear message instead of
    failing (or silently misbehaving) mid-sweep.  Subclasses both
    :class:`ConfigurationError` (it is a bad configuration) and
    :class:`HarnessError` (it concerns the harness, not the physics), so
    either family of handler catches it.
    """


class TraceStoreError(HarnessError):
    """The trace record/replay store was used incorrectly.

    Raised only for programmatic misuse (storing an unvalidated capture,
    replaying under a feedback controller or for the wrong cycle count).
    *Corruption* of store entries is never an error: the guard rejects
    the entry, quarantines the file, records an incident and the caller
    falls back to full simulation.
    """


class CheckpointError(HarnessError):
    """A sweep checkpoint file is missing, corrupt, or unusable.

    Carries the offending ``path`` and an actionable ``hint`` (usually
    ``--resume``-oriented: delete the file, drop the flag, or point at the
    quarantined copy) so CLI users see a recovery path instead of a raw
    ``JSONDecodeError`` traceback.
    """

    def __init__(self, path: str, reason: str, hint: str = ""):
        self.path = path
        self.reason = reason
        self.hint = hint
        message = f"checkpoint {path!r}: {reason}"
        if hint:
            message = f"{message} ({hint})"
        super().__init__(message)


class WorkerLostError(HarnessError):
    """A sweep worker process died or stalled past the heartbeat threshold.

    Used as the ``error_type`` of :class:`~repro.sim.runner.FailureReport`
    entries for cells whose worker-restart budget ran out, and raised
    directly when the pool cannot be rebuilt at all.
    """


class SweepInterrupted(HarnessError):
    """A sweep drained gracefully after SIGTERM/SIGINT.

    Completed cells are flushed to the checkpoint before this is raised,
    so the run is *resumable*: the CLI exits with :attr:`exit_code`
    (``EX_TEMPFAIL``) rather than a crash, and ``--resume`` finishes the
    remaining cells.
    """

    #: BSD sysexits EX_TEMPFAIL: "temporary failure, retry later".
    exit_code = 75

    def __init__(self, message: str, signum: int = 0,
                 completed: int = 0, pending: int = 0):
        self.signum = signum
        self.completed = completed
        self.pending = pending
        super().__init__(message)
