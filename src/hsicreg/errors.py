"""Exception types shared across the package."""


class SingularDesignError(ValueError):
    """The design matrix is numerically singular.

    Raised when the least-squares design is rank deficient or the condition
    number of the scaled normal-equations matrix exceeds the supported limit.
    """


class DegenerateDataError(ValueError):
    """The sample is degenerate for the requested operation.

    Examples: all points identical when the median pairwise distance is
    needed, or a zero-variance column handed to the standardizer.
    """


class BootstrapAbortError(RuntimeError):
    """A bootstrap replicate produced a singular refit twice in a row."""


class MemoryLimitError(MemoryError):
    """n x n Gram matrices would not fit in the memory this process, or a pool's, may use.

    Raised before the matrix is allocated; the message names n, the bytes
    needed, the limit and where the limit comes from.
    """
