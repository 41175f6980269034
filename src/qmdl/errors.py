"""Exception types shared across the library."""


class QmdlError(Exception):
    """Base class for library errors."""


class InvalidOperator(QmdlError):
    """An operator violates a structural invariant (shape, Hermiticity, ...)."""


class DimensionMismatch(QmdlError):
    """Operands live on incompatible Hilbert spaces."""


class SizeCapExceeded(QmdlError):
    """A dense materialization would exceed the configured dimension cap."""


class ZeroTrace(QmdlError):
    """Normalization of a (numerically) traceless operator was requested."""


class FunctionDomainError(QmdlError):
    """A spectral function was applied outside its domain in strict mode."""


class InconsistentFamily(QmdlError):
    """join/meet requested for projection systems that do not commute."""


class NonMinimalSystem(QmdlError):
    """An operation requires a rank-1 complete projection system."""


class NotRegular(QmdlError):
    """A source level is singular where invertibility is required."""


class SupportMismatch(QmdlError):
    """Conditioning state is not supported inside the marginal's support."""


class InvalidWord(QmdlError):
    """An outcome word holds an index outside the system's outcomes."""


class AllZeroLikelihood(QmdlError):
    """Every candidate assigns exact probability zero to the observed word."""


class ConfigError(QmdlError):
    """An experiment or CLI configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
