"""Exception types and the non-negative-number check shared across the library."""

import math


def check_non_negative(name: str, value: float):
    """Reject a NaN, infinite or negative ``value`` with ValueError naming ``name``."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


class CloudChangeError(Exception):
    """Base class for all library-specific errors."""


class DegenerateInput(CloudChangeError):
    """Correspondence set is too small or too flat to determine a transform."""


class EmptyCloud(CloudChangeError):
    """An operation that requires points received an empty cloud."""


class MisalignedInputs(CloudChangeError):
    """Paired inputs that must be index-aligned have different lengths."""


class TooFewCorrespondences(CloudChangeError):
    """Fewer than three correspondence pairs survived filtering."""


class EmptyStaticSet(CloudChangeError):
    """Translation refinement was asked to run with no static correspondences."""


class LabelMismatch(CloudChangeError):
    """Two trajectories do not carry the same (epoch, frame) labels."""


class TooFewPoses(CloudChangeError):
    """A trajectory metric needs at least two poses per epoch."""


class InvalidSpec(CloudChangeError):
    """A synthetic scene specification violates its own constraints."""


class ParseError(CloudChangeError):
    """A file could not be parsed.

    Carries the 1-based line number (ASCII sections) or byte offset
    (binary sections) where parsing failed, when known.
    """

    def __init__(self, message, line=None, offset=None):
        detail = message
        if line is not None:
            detail += f" (line {line})"
        if offset is not None:
            detail += f" (byte offset {offset})"
        super().__init__(detail)
        self.line = line
        self.offset = offset


class SchemaError(CloudChangeError):
    """A structured input file is missing fields or is internally inconsistent."""


class UnsupportedPropertyWarning(UserWarning):
    """A file carried extra per-vertex properties that were skipped."""
