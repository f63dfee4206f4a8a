"""Exception types shared across the package."""


class SymbolkitError(Exception):
    """Base class for all symbolkit errors."""


class DimensionMismatch(SymbolkitError):
    """Vector/matrix dimensions are inconsistent with the model."""


class QuadratureFailure(SymbolkitError):
    """A numerical integral did not reach the requested accuracy.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class SectorViolation(SymbolkitError):
    """Re p(xi) = 0 with Im p(xi) != 0: the sector condition fails."""


class NonConvergence(SymbolkitError):
    """Monte Carlo rung estimates are mutually inconsistent.

    ``diagnostics`` holds the per-rung data that triggered the report.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegenerateSymbol(SymbolkitError):
    """|p| vanished on the whole fit window; no index can be read off."""


class BijectivityViolation(SymbolkitError):
    """det Phi(y) fell below threshold where a bijective coefficient is required."""


class SimulationOverflow(SymbolkitError):
    """State norm exceeded the overflow guard during path simulation."""


class ConfigError(SymbolkitError, ValueError):
    """A setting out of its declared range, refused once by the function that takes it;
    ``field`` names the config key or the library argument of the same name."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
