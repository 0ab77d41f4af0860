"""Exception hierarchy for the whole library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch one type at the flow boundary.  Subpackages raise the
most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class SourceLocation:
    """A (line, column) position inside a source text, 1-based.

    Used by both the DSL parser and the mini-C frontend so error messages
    can point at the offending token.
    """

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int, column: int, filename: str = "<input>") -> None:
        self.line = line
        self.column = column
        self.filename = filename

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"SourceLocation({self.line}, {self.column}, {self.filename!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.line, self.column, self.filename) == (
            other.line,
            other.column,
            other.filename,
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))


class LocatedError(ReproError):
    """An error that carries an optional :class:`SourceLocation`."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


# --- DSL ---------------------------------------------------------------
class DslError(LocatedError):
    """Base class for task-graph DSL errors."""


class DslSyntaxError(DslError):
    """The textual DSL did not match the Listing-1 grammar."""


class DslValidationError(DslError):
    """The DSL parsed but describes an inconsistent system."""


# --- HTG ---------------------------------------------------------------
class HtgError(ReproError):
    """Hierarchical task graph model violation (cycles, bad references)."""


# --- applications ------------------------------------------------------
class AppConfigError(ReproError, ValueError):
    """An application was asked for a size or shape it cannot build."""


# --- HLS ---------------------------------------------------------------
class HlsError(LocatedError):
    """Base class for high-level-synthesis errors."""


class CSyntaxError(HlsError):
    """The C source did not parse."""


class CSemanticError(HlsError):
    """The C source parsed but is not synthesizable / not well-typed."""


class ScheduleError(HlsError):
    """Operation scheduling failed (infeasible constraints)."""


# --- SoC integration ----------------------------------------------------
class SocError(ReproError):
    """Base class for system-integration errors."""


class IntegrationError(SocError):
    """Block-design construction failed (unknown ports, bad connection)."""


class AddressMapError(SocError):
    """AXI address allocation failed (overlap, exhaustion, alignment)."""


class DrcError(SocError):
    """A design-rule check failed on the final block design."""


# --- tcl ----------------------------------------------------------------
class TclError(ReproError):
    """Generation or interpretation of tcl scripts failed."""


# --- simulation ---------------------------------------------------------
class SimError(ReproError):
    """The SoC simulator hit an inconsistent state (deadlock, bad access)."""


class SimProcessError(SimError):
    """A simulation process raised; carries the process name and cycle.

    Raised out of :meth:`Environment.run` so a failure inside any
    generator process surfaces as a structured, cycle-stamped diagnostic
    instead of silently aborting mid-simulation.  The original exception
    is chained (``__cause__``) and kept on :attr:`original`.
    """

    def __init__(self, message: str, *, process: str = "?", cycle: int = 0,
                 original: BaseException | None = None) -> None:
        super().__init__(message)
        self.process = process
        self.cycle = cycle
        self.original = original


class SimTimeoutError(SimError):
    """A watchdog deadline expired before the guarded work completed."""

    def __init__(self, message: str, *, cycle: int = 0, budget: int = 0) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.budget = budget


class SimDeadlockError(SimError):
    """The event queue drained while processes remained blocked.

    Carries the blocked process names and the FIFO occupancies at the
    moment of the deadlock so pipelines can be diagnosed structurally.
    """

    def __init__(self, message: str, *, cycle: int = 0,
                 blocked: tuple[str, ...] = (),
                 fifo_occupancy: dict[str, tuple[int, int]] | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.blocked = blocked
        self.fifo_occupancy = dict(fifo_occupancy or {})


class FaultInjectionError(SimError):
    """An injected fault surfaced as an observable hardware error
    (AXI SLVERR/DECERR, failed end-to-end integrity check, ...)."""

    def __init__(self, message: str, *, cycle: int = 0, fault: object = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.fault = fault


# --- flow ---------------------------------------------------------------
class FlowError(ReproError):
    """End-to-end flow orchestration failed."""


class FlowInterrupted(FlowError):
    """The flow process was killed at a crash-point (journal boundary).

    Raised by :func:`repro.flow.crashpoints.crashpoint` when an armed
    :class:`~repro.flow.crashpoints.CrashPlan` fires.  Carries the
    journal *step* the flow died in (e.g. ``hls:histogram:start``) and,
    for per-core steps, the *core* name, so the crash-injection harness
    can assert it killed the flow exactly where it armed the kill.
    """

    def __init__(self, message: str, *, step: str = "?", core: str | None = None) -> None:
        super().__init__(message)
        self.step = step
        self.core = core


class CacheCorrupted(FlowError):
    """A build-cache entry failed its integrity check.

    The cache itself never raises this on the read path — a bad entry is
    quarantined and treated as a miss, so the flow transparently
    rebuilds.  ``repro cachecheck --strict`` raises it to fail CI when a
    scrub found corruption.  Carries the entry *key* and the quarantine
    *path* the bad bytes were moved to.
    """

    def __init__(self, message: str, *, key: str = "?", path: str | None = None) -> None:
        super().__init__(message)
        self.key = key
        self.path = path


class CacheLockTimeout(FlowError):
    """The cross-process build-cache lock could not be acquired in time."""

    def __init__(self, message: str, *, path: str | None = None, timeout_s: float = 0.0) -> None:
        super().__init__(message)
        self.path = path
        self.timeout_s = timeout_s


class WorkspaceTorn(FlowError):
    """A materialized workspace is incomplete or does not match its manifest.

    Raised by :func:`repro.flow.workspace.verify_workspace` in strict
    mode; carries the workspace *root*, the manifest-listed files that
    are *missing* and those whose content digest *mismatched*.
    """

    def __init__(
        self,
        message: str,
        *,
        root: str | None = None,
        missing: tuple[str, ...] = (),
        mismatched: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.root = root
        self.missing = missing
        self.mismatched = mismatched


# --- durability ---------------------------------------------------------
class ForeignLog(ReproError):
    """A JSONL log is malformed before its final line.

    A kill mid-append can only tear the *last* line, so damage earlier
    in the file means some other writer produced it.  Raised by
    :meth:`repro.util.durable.JsonlLog.read`; the flow journal then
    starts fresh, a DSE campaign refuses to resume.
    """
