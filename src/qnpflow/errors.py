"""Exception types shared across the package, and the JSON-file reader that raises them."""
import json
from pathlib import Path


class QnpflowError(Exception):
    """Base class for all package-specific errors. `exit_code` is the exit
    status of a CLI run that ends in the error."""
    exit_code = 4


class ParseError(QnpflowError):
    """Raised when a file cannot be parsed (malformed syntax, missing keys, wrong types)."""


class ValidationError(QnpflowError):
    """Raised when parsed data violates a semantic invariant."""


class DimensionMismatch(QnpflowError):
    """Raised when array dimensions disagree with the network structure."""


class SingularJacobian(QnpflowError):
    """Raised when the Newton-Raphson linear solve hits a pivot below threshold."""
    exit_code = 6


class NotConverged(QnpflowError):
    """Raised when an iterative solver exhausts its iteration budget.

    Carries the per-iteration mismatch norm history in ``history``.
    """
    exit_code = 5

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class InvalidSpin(QnpflowError):
    """Raised when a spin quantum number is not a positive half-integer."""
    exit_code = 8


class InvalidDensityMatrix(QnpflowError):
    """Raised when a density matrix is not square or holds non-finite entries."""
    exit_code = 8


class NoCoupling(QnpflowError):
    """Raised when every reservoir coupling is zero and no steady state is defined."""
    exit_code = 8


class DegenerateCurve(QnpflowError):
    """Raised when a transfer curve carries no usable slope information for fitting."""
    exit_code = 8


class UnknownSpin(QnpflowError):
    """Raised when a spin value has no tabulated steepness entry."""
    exit_code = 8


class ShapeMismatch(QnpflowError):
    """Raised when neural-network array shapes disagree with the topology."""


class NonFinite(QnpflowError):
    """Raised when training produces NaN or Inf values."""
    exit_code = 9


class MapeUndefined(QnpflowError):
    """Raised when MAPE is requested against targets containing exact zeros."""
    exit_code = 8


class TooFewConverged(QnpflowError):
    """Raised when dataset generation loses more than the allowed share of samples."""
    exit_code = 7


class VersionMismatch(QnpflowError):
    """Raised when a serialized model declares an unsupported format version."""


def read_json_object(path: str | Path) -> dict:
    """The JSON object in the file at `path`; ParseError when the file is not
    valid JSON or holds another kind of value at the top level. Undecodable
    text (a ValueError), an integer longer than int() reads (a ValueError) and
    nesting deeper than the recursion limit count as invalid JSON."""
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc
