"""Exception hierarchy shared by all cartan_ds modules.

InputError subclasses signal bad user input, ResourceError subclasses an
exhausted search bound or cap, and ConsistencyError an internal mathematical
contradiction.  Each class carries the CLI exit code of its family as
``exit_code``: 2, 3 and 1, and 1 for any other CartanDSError.
"""

from __future__ import annotations


class CartanDSError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(CartanDSError):
    """Invalid input supplied by the caller."""

    exit_code = 2


class ResourceError(CartanDSError):
    """A configured cap or search bound was exceeded."""

    exit_code = 3


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
