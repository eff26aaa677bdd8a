"""Exception hierarchy shared by all cartan_ds modules.

InputError subclasses signal bad user input (CLI exit code 2), ResourceError
subclasses signal an exhausted search bound or cap (exit code 3), and
ConsistencyError signals an internal mathematical contradiction (exit code 1).
"""

from __future__ import annotations


class CartanDSError(Exception):
    """Base class for all package errors."""


class InputError(CartanDSError):
    """Invalid input supplied by the caller."""


class ResourceError(CartanDSError):
    """A configured cap or search bound was exceeded."""


class ConsistencyError(CartanDSError):
    """Two independently computed answers disagree; indicates a bug."""


class InvalidType(InputError):
    """Cartan type string or factor list is not a legal finite type."""


class ParseError(InputError):
    """Malformed serialized document or CLI value."""


class RankMismatch(InputError):
    """Operands live in weight spaces of different dimensions."""


class CapExceeded(ResourceError):
    """An orbit or group enumeration grew past the configured cap."""


class NotInvolution(InputError):
    """Candidate involution matrix does not square to the identity."""


class NotIsometric(InputError):
    """Candidate involution does not preserve the invariant pairing."""


class NotRootPreserving(InputError):
    """Candidate involution does not permute the root set."""


class UnknownForm(InputError):
    """Requested real-form id is not in the catalog."""


class BadParameters(InputError):
    """Real-form parameters are out of the supported range."""


class NotDominantIntegral(InputError):
    """Weight is not dominant integral where required."""


class PreconditionFailed(InputError):
    """An operation's stated precondition does not hold for the input."""


class InvalidDatum(InputError):
    """Formal datum violates its orbit-restriction constraint."""


class NoAdmissibleDirection(InputError):
    """No orbit element restricts into the negative open cone."""


class SearchExhausted(ResourceError):
    """Regularization search hit its bounds without success."""

    def __init__(self, message: str, best: object = None):
        super().__init__(message)
        self.best = best
