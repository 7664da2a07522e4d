"""PLY reading and writing for point clouds.

Supports ASCII and binary-little-endian PLY with the vertex properties
x, y, z (float32), confidence (float32, optional, defaults to 1.0 on read)
and red, green, blue (uint8, optional).  Unknown scalar vertex properties
are skipped with a warning; writing is byte-deterministic for a given
cloud.  Positions and confidences are stored at float32 precision, so a
write-read round trip is lossless exactly for float32-representable input.
An ASCII body writes each float32 value with ``%.9g`` (enough digits to read
back the same float32) and each color with ``%d``, one row per line; it is
formatted by one ``%`` operation per block of rows, not value by value.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from .cloud import PointCloud
from .errors import ParseError, UnsupportedPropertyWarning

_SCALAR_TYPES = {
    "char": "i1",
    "int8": "i1",
    "uchar": "u1",
    "uint8": "u1",
    "short": "i2",
    "int16": "i2",
    "ushort": "u2",
    "uint16": "u2",
    "int": "i4",
    "int32": "i4",
    "uint": "u4",
    "uint32": "u4",
    "float": "f4",
    "float32": "f4",
    "double": "f8",
    "float64": "f8",
}

_KNOWN_PROPERTIES = ("x", "y", "z", "confidence", "red", "green", "blue")

# Rows of an ASCII body formatted by one ``%`` operation: bounds the Python
# values alive at once on large clouds.
_ASCII_BLOCK_ROWS = 65_536

# Largest coordinate magnitude a float32 PLY field holds.
_COORDINATE_LIMIT = float(np.finfo(np.float32).max)


def check_coordinate_range(points, what: str, item: str = "point", error: type = ValueError):
    """``error`` naming ``what`` and the first ``item`` (row) of the finite ``points``
    beyond float32 range, the range of a PLY field, of every cloud and camera centre."""
    limit = _COORDINATE_LIMIT
    if len(points) and not (-limit <= points.min() and points.max() <= limit):
        bad = int(np.argmax((np.abs(points) > limit).any(axis=1)))
        raise error(f"{what}: coordinates beyond float32 range at {item} {bad}")


def write_ply(cloud: PointCloud, path, binary: bool = True):
    """Write ``cloud`` to ``path``.

    The vertex element always carries x, y, z and confidence; red, green,
    blue are appended when the cloud has colors.  A coordinate beyond float32
    range is a ValueError raised before the file is opened.
    """
    check_coordinate_range(cloud.points, str(path))
    has_color = cloud.color is not None
    header = ["ply"]
    header.append("format binary_little_endian 1.0" if binary else "format ascii 1.0")
    header.append(f"element vertex {len(cloud)}")
    header.extend(f"property float {name}" for name in ("x", "y", "z", "confidence"))
    if has_color:
        header.extend(f"property uchar {name}" for name in ("red", "green", "blue"))
    header.append("end_header")

    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("confidence", "<f4")]
    if has_color:
        fields.extend([("red", "u1"), ("green", "u1"), ("blue", "u1")])
    rows = np.empty(len(cloud), dtype=np.dtype(fields))
    rows["x"], rows["y"], rows["z"] = cloud.points.astype("<f4").T
    rows["confidence"] = cloud.confidence.astype("<f4")
    if has_color:
        rows["red"], rows["green"], rows["blue"] = cloud.color.T
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            handle.write(rows.tobytes())
        else:
            # Exact: float32 and uint8 values are all float64-representable.
            table = structured_to_unstructured(rows, dtype=np.float64)
            line = " ".join(["%.9g"] * 4 + ["%d"] * 3 * has_color) + "\n"
            for start in range(0, len(table), _ASCII_BLOCK_ROWS):
                block = table[start : start + _ASCII_BLOCK_ROWS]
                handle.write((line * len(block) % tuple(block.ravel().tolist())).encode("ascii"))


def _parse_header(raw: bytes, path) -> tuple:
    end = raw.find(b"end_header\n")
    if end < 0:
        raise ParseError(f"{path}: no end_header found", offset=len(raw))
    body_offset = end + len(b"end_header\n")
    try:
        lines = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: header is not ASCII", offset=exc.start) from None
    if not lines or lines[0].strip() != "ply":
        raise ParseError(f"{path}: missing 'ply' magic", line=1)

    fmt = None
    elements = []  # (name, count, [(ply_type, prop_name) or ('list', ...)])
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 3 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"{path}: unsupported format {line!r}", line=lineno)
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError(f"{path}: malformed element line {line!r}", line=lineno)
            try:
                count = int(tokens[2])
                if count < 0:
                    raise ValueError(count)
            except ValueError:
                raise ParseError(f"{path}: bad element count in {line!r}", line=lineno) from None
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property":
            if not elements:
                raise ParseError(f"{path}: property before any element", line=lineno)
            # "property <type> <name>" or "property list <count type> <type> <name>".
            if len(tokens) != (5 if tokens[1:2] == ["list"] else 3):
                raise ParseError(f"{path}: malformed property line {line!r}", line=lineno)
            if tokens[-1] in (name for _, name in elements[-1][2]):
                raise ParseError(f"{path}: property {tokens[-1]!r} declared twice in {line!r}",
                                 line=lineno)
            elements[-1][2].append((tokens[1], tokens[-1]))
    if fmt is None:
        raise ParseError(f"{path}: header has no format line", line=1)
    return fmt, elements, body_offset, len(lines) + 1


def _vertex_dtype(properties: list, path) -> np.dtype:
    fields = []
    for i, (ply_type, name) in enumerate(properties):
        if ply_type == "list":
            raise ParseError(f"{path}: list property {name!r} on vertices is not supported")
        np_type = _SCALAR_TYPES.get(ply_type)
        if np_type is None:
            raise ParseError(f"{path}: unknown property type {ply_type!r}")
        fields.append((f"f{i}", "<" + np_type))
    return np.dtype(fields)


def _assemble_cloud(columns: dict, n: int, path) -> PointCloud:
    for axis in ("x", "y", "z"):
        if axis not in columns:
            raise ParseError(f"{path}: vertex element lacks property {axis!r}")
    points = np.stack(
        [columns["x"], columns["y"], columns["z"]], axis=1
    ).astype(np.float64)
    confidence = columns.get("confidence")
    if confidence is None:
        confidence = np.ones(n, dtype=np.float64)
    else:
        confidence = confidence.astype(np.float64)
    color = None
    if all(ch in columns for ch in ("red", "green", "blue")):
        color = np.stack(
            [columns["red"], columns["green"], columns["blue"]], axis=1
        ).astype(np.uint8)
    try:
        cloud = PointCloud(points, confidence, color=color)
    except ValueError as exc:  # a non-finite coordinate or a bad confidence
        raise ParseError(f"{path}: {exc}") from None
    check_coordinate_range(cloud.points, str(path), error=ParseError)  # a double field
    return cloud


def _parse_ascii_rows(lines: list, n_values: int, first_line: int, path) -> np.ndarray:
    """(len(lines), n_values) float64 array of the leading values of each row.

    Values beyond ``n_values`` on a row are ignored.  ``first_line`` is the
    1-based file line of ``lines[0]``, used to name a bad row.
    """
    if not lines:
        return np.empty((0, n_values), dtype=np.float64)
    try:
        with warnings.catch_warnings():
            # loadtxt warns when every row is blank; the scan below reports it.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(
                lines, dtype=np.float64, comments=None, usecols=range(n_values), ndmin=2
            )
    except ValueError:
        data = None
    # loadtxt skips blank rows and names a bad row only in its message, so
    # a failure is located by checking each row in turn.
    if data is not None and data.shape[0] == len(lines):
        return data
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) < n_values:
            raise ParseError(
                f"{path}: vertex row has {len(tokens)} values, expected {n_values}",
                line=first_line + i,
            )
        try:
            for tok in tokens[:n_values]:
                # float() also takes digit separators ("1_0"); PLY and loadtxt do not.
                if "_" in tok:
                    raise ValueError(tok)
                float(tok)
        except ValueError:
            raise ParseError(f"{path}: non-numeric vertex value", line=first_line + i) from None
    raise ParseError(f"{path}: unreadable vertex rows", line=first_line)


def read_ply(path) -> PointCloud:
    """Read a point cloud from an ASCII or binary-little-endian PLY file.

    Raises:
        ParseError: malformed header, truncated data, a short or non-numeric
            ASCII row (the error names the offending line or byte offset), a
            non-finite coordinate or one beyond float32 range, or a confidence
            outside [0, 1] (the error names the 0-based vertex as "point i"),
            or unsupported constructs.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    fmt, elements, body_offset, header_lines = _parse_header(raw, path)

    vertex_spec = None
    leading_elements = []
    for element in elements:
        if element[0] == "vertex":
            vertex_spec = element
            break
        leading_elements.append(element)
    if vertex_spec is None:
        raise ParseError(f"{path}: no vertex element declared")
    _, n_vertices, properties = vertex_spec

    prop_names = [name for _, name in properties]
    for _, name in properties:
        if name not in _KNOWN_PROPERTIES:
            warnings.warn(
                f"{path}: skipping unsupported vertex property {name!r}",
                UnsupportedPropertyWarning,
                stacklevel=2,
            )
    partial_color = {"red", "green", "blue"} & set(prop_names)
    if partial_color and partial_color != {"red", "green", "blue"}:
        warnings.warn(
            f"{path}: incomplete color properties {sorted(partial_color)} skipped",
            UnsupportedPropertyWarning,
            stacklevel=2,
        )

    row_dtype = _vertex_dtype(properties, path)
    if fmt == "binary_little_endian":
        offset = body_offset
        for name, count, props in leading_elements:
            offset += _vertex_dtype(props, path).itemsize * count  # rejects list properties
        needed = row_dtype.itemsize * n_vertices
        if len(raw) - offset < needed:
            raise ParseError(
                f"{path}: truncated vertex data, expected {needed} bytes",
                offset=len(raw),
            )
        rows = np.frombuffer(raw, dtype=row_dtype, count=n_vertices, offset=offset)
        columns = {name: rows[f"f{i}"] for i, (_, name) in enumerate(properties)}
    else:
        try:
            text = raw[body_offset:].decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: non-ASCII byte in ASCII body", offset=body_offset + exc.start
            ) from None
        lines = text.splitlines()
        skip = 0
        for name, count, _ in leading_elements:
            skip += count
        if len(lines) < skip + n_vertices:
            raise ParseError(
                f"{path}: truncated vertex data, expected {n_vertices} rows",
                line=header_lines + len(lines),
            )
        first_line = header_lines + skip + 1
        data = _parse_ascii_rows(lines[skip : skip + n_vertices], len(properties), first_line, path)
        # Route through the declared dtype so ASCII and binary readers
        # deliver identical values.
        columns = {name: data[:, j].astype(row_dtype[j]) for j, (_, name) in enumerate(properties)}

    return _assemble_cloud(columns, n_vertices, path)
