"""Exception types, one per way a caller handles a failure, and their CLI exit codes.

===============  ====  ============================================================
class            exit  special handler
===============  ====  ============================================================
CredeqError      --    ``cds-series`` writes NA for a fit file that raises it
ValidationError  2     --
DomainError      2     ``model_quote`` quotes a price ``implied_vol`` rejects as no vol
NumericalError   3     --
===============  ====  ============================================================
"""


class CredeqError(Exception):
    """Base class for all package errors."""


class ValidationError(CredeqError):
    """Bad input: a malformed CSV row, a violated invariant, mutually inconsistent options."""


class DomainError(CredeqError):
    """Arguments outside the mathematical domain of a formula (from implied_vol: no vol)."""


class NumericalError(CredeqError):
    """A computation or fit degenerated (non-finite value, rank-deficient system)."""
