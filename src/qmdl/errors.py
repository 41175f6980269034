"""Exception types shared across the library."""


class QmdlError(Exception):
    """Base class for library errors."""


class InvalidOperator(QmdlError):
    """An operator violates a structural invariant (shape, Hermiticity, ...)."""


class DimensionMismatch(QmdlError):
    """Operands live on incompatible Hilbert spaces."""


class SizeCapExceeded(QmdlError):
    """An array refused before it is formed (config.admit): past the bytes of a cap x cap complex
    matrix, whose environment variable `setting` names, or a word length past the int64 value
    that one of its entries holds (setting None)."""

    def __init__(self, message: str, setting: str | None = None):
        super().__init__(message)
        self.setting = setting


class ZeroTrace(QmdlError):
    """Normalization of a (numerically) traceless operator was requested."""


class InconsistentFamily(QmdlError):
    """join/meet requested for projection systems that do not commute."""


class NonMinimalSystem(QmdlError):
    """An operation requires a rank-1 complete projection system."""


class NotRegular(QmdlError):
    """A source level is singular where invertibility is required."""


class SupportMismatch(QmdlError):
    """Conditioning state is not supported inside the marginal's support."""


class InvalidWord(QmdlError, ValueError):
    """An outcome word is empty where one is needed, or holds an out-of-range index."""


class AllZeroLikelihood(QmdlError):
    """Every candidate assigns exact probability zero to the observed word."""


class ConfigError(QmdlError):
    """An experiment or CLI configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
