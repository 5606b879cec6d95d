"""Exception hierarchy shared across the library."""


class CourtposeError(Exception):
    """Base class for all library errors."""


class ValidationError(CourtposeError):
    """Malformed input: bad shapes, broken invariants, unreadable files."""


class NumericalError(CourtposeError):
    """Numerical failure: divergence, degeneracy, non-finite values."""


class BehindCameraError(NumericalError):
    """A point required in front of the camera has z <= 0 in camera coordinates."""


class DegenerateGeometryError(NumericalError):
    """Rank-deficient configuration (e.g. collinear calibration points)."""


class StageError(CourtposeError):
    """Failure inside a named pipeline stage; wraps the original error."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # a --jobs worker sends its failure to the parent as a pickle
        return StageError, (self.stage, self.cause)
