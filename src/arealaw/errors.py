"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: certificate failures exit 1,
parse and validation problems exit 2, combinatorial-explosion refusals exit 3,
resource guards exit 4, and every other error of this package (an internal
inconsistency) exits 5.
"""


class AreaLawError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AreaLawError):
    """A document could not be parsed (malformed JSON, wrong shape)."""


class ValidationError(AreaLawError):
    """A parsed document or argument violates an invariant."""


class InfeasibleError(ValidationError):
    """A transport instance cannot be realized (e.g. odd particle deficit)."""


class CombinatorialLimitError(AreaLawError):
    """An exact enumeration would exceed its configured size limit."""


class ResourceGuardError(AreaLawError):
    """A dimension guard (state size, Haar size) would be exceeded."""


class InconsistencyError(AreaLawError):
    """An internally inconsistent certificate or flow decomposition."""


class CertificateError(AreaLawError):
    """A rank/spectrum certificate assertion missed its tolerance."""
