"""Exception hierarchy for the simulator.

All library-raised failures derive from SimulationError so callers can
catch one base class at the CLI boundary and map it to an exit code.
"""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class UnknownLabelError(SimulationError):
    """A qubit label was requested that the state does not carry."""


class VanishingTraceError(SimulationError):
    """An operation required normalizing by a trace that is numerically zero."""


class DegenerateParameterError(SimulationError):
    """Parameters collapse a quantity whose finite value the caller needs."""


class NonConvergenceError(SimulationError):
    """An iterative routine failed to reach its target tolerance."""


class ConfigFormatError(SimulationError):
    """An apparatus config file is unreadable, malformed or carries unknown keys."""
