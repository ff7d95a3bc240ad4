"""Exception types shared across the package."""


class QstarError(Exception):
    """Base class for all library errors."""


class ValidationError(QstarError):
    """Malformed input data: bad partition, out-of-range element, degree mismatch."""


class ContractError(QstarError):
    """A documented precondition was violated by the caller."""


class ResourceLimitError(QstarError):
    """A configured size bound would be exceeded."""


class InternalConsistencyError(QstarError):
    """Two redundant computations disagreed; results must not be trusted."""
