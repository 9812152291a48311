"""Exception types raised by the solvers and the CLI."""


class FluxControlError(Exception):
    """Base class for all library errors."""


class InvalidInputError(FluxControlError, ValueError):
    """Malformed or out-of-domain argument."""


class GoalUncontrollableError(FluxControlError):
    """The requested observer cannot be moved by the given input schematic."""


class InfeasibleGoalError(FluxControlError):
    """The goal cannot be met; carries the smallest achievable threshold."""

    def __init__(self, message: str, min_eta: float):
        super().__init__(message)
        self.min_eta = float(min_eta)


class DivergenceError(FluxControlError):
    """Simulated state left the representable range; carries last valid time."""

    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = float(last_valid_time)


class SimulationAccuracyError(FluxControlError):
    """A simulated endpoint misses its closed form by more than the tolerance."""


class PlacementAbortError(FluxControlError):
    """Gradient placement aborted; carries the best iterate found so far."""

    def __init__(self, message: str, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


class EdgeListParseError(InvalidInputError):
    """Bad edge-list line; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number=None):
        super().__init__(message)
        self.line_number = line_number
