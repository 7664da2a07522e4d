"""Exception types and the input checks shared across the library: among them
:func:`check_fields`, the one typed-field check of every JSON object read
(specs, reports, trajectories, gt.json, Sim(3) transforms)."""

import math
import reprlib
import sys

import numpy as np

_JSON_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               list: "a list", dict: "an object"}


def check_number(name: str, value, error: type = ValueError) -> float:
    """``value`` as a float; ``error`` naming ``name`` unless an integer or a
    float (no bool or string) that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a number, got {reprlib.repr(value)}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise error(f"{name} must be a number within float range, got {reprlib.repr(value)}")
    return float(value)


def check_non_negative(name: str, value, error: type = ValueError) -> float:
    """``value`` as a float; ``error`` naming ``name`` unless a finite number >= 0."""
    value = check_number(name, value, error)
    if not (math.isfinite(value) and value >= 0.0):
        raise error(f"{name} must be finite and >= 0, got {value}")
    return value


def check_integer(name: str, value, minimum: int = None, error: type = ValueError) -> int:
    """``value`` as an int; ``error`` naming ``name`` unless an integer (no bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_fields(data, types: dict, required: tuple, what: str, error: type) -> dict:
    """The fields of ``types`` that the JSON object ``data`` holds, each of its type.

    A number is a finite JSON number and never a boolean or a string:
    ``int`` means a JSON integer, and ``float`` also takes an integer, which
    it returns as a float.  Keys outside ``types`` are ignored.

    Raises:
        error: naming ``what`` when ``data`` is not an object, misses a key
            of ``required``, or holds a value of the wrong type.
    """
    if not isinstance(data, dict):
        raise error(f"{what}: expected an object, got {reprlib.repr(data)}")
    checked = {}
    for key, kind in types.items():
        if key not in data:
            if key in required:
                raise error(f"{what}: missing field {key!r}")
            continue
        value = data[key]
        if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)
        if type(value) is not kind or (kind is float and not math.isfinite(value)):
            raise error(f"{what}: {key!r} must be {_JSON_NAMES[kind]}, got {reprlib.repr(value)}")
        checked[key] = value
    return checked


def check_numbers(values, name: str) -> np.ndarray:
    """``values`` as a contiguous float64 array; ValueError naming ``name``
    unless they are integers or floats (not booleans, strings or ragged lists)."""
    try:
        array = np.asarray(values)
    except ValueError:  # rows of different lengths
        raise ValueError(f"{name} must be a regular array, got {reprlib.repr(values)}") from None
    # numpy would read a boolean among numbers as 0 or 1.
    mixed = isinstance(values, list) and bool in map(type, np.asarray(values, dtype=object).flat)
    if array.dtype.kind not in "iuf" or mixed:
        raise ValueError(f"{name} must hold numbers, got {reprlib.repr(values)}")
    return np.ascontiguousarray(array, dtype=np.float64)


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
    """Two tracks of the same epoch do not carry the same frame indices."""


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
