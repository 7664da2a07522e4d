"""PLY reading and writing."""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudchange import CloudChangeError, ParseError, PointCloud, UnsupportedPropertyWarning
from cloudchange import ply
from cloudchange.ply import read_ply, write_ply


def _random_cloud(rng, n=1000, color=False):
    # Positions quantized to float32 so the on-disk encoding is lossless.
    pts = rng.uniform(-50, 50, size=(n, 3)).astype(np.float32).astype(np.float64)
    conf = rng.uniform(0, 1, n).astype(np.float32).astype(np.float64)
    col = rng.integers(0, 256, (n, 3), dtype=np.uint8) if color else None
    return PointCloud(pts, conf, color=col)


class TestRoundTrip:
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
    def test_positions_and_confidence_identical(self, rng, tmp_path, binary):
        cloud = _random_cloud(rng)
        path = tmp_path / "cloud.ply"
        write_ply(cloud, path, binary=binary)
        back = read_ply(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.confidence, cloud.confidence)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
    def test_colors_round_trip(self, rng, tmp_path, binary):
        cloud = _random_cloud(rng, color=True)
        path = tmp_path / "cloud.ply"
        write_ply(cloud, path, binary=binary)
        back = read_ply(path)
        np.testing.assert_array_equal(back.color, cloud.color)

    def test_write_is_byte_deterministic(self, rng, tmp_path):
        cloud = _random_cloud(rng, color=True)
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(cloud, a)
        write_ply(cloud, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", [1e300, -1e39], ids=["huge", "below_float32"])
    def test_coordinate_beyond_float32_is_refused(self, tmp_path, value):
        # It would be written as an infinity, which read_ply rejects.
        points = np.zeros((3, 3))
        points[1, 2] = value
        path = tmp_path / "far.ply"
        with pytest.raises(ValueError, match="far.ply: coordinates beyond float32 range"):
            write_ply(PointCloud(points.copy()), path)
        assert not path.exists()
        # The float32 extremes themselves are written and read back.
        points[1, 2] = np.copysign(float(np.finfo(np.float32).max), value)
        write_ply(PointCloud(points), path)
        np.testing.assert_array_equal(read_ply(path).points, points)

    def test_empty_cloud_round_trip(self, tmp_path):
        cloud = PointCloud(np.zeros((0, 3)))
        path = tmp_path / "empty.ply"
        write_ply(cloud, path)
        assert len(read_ply(path)) == 0

    def test_ascii_binary_agree(self, rng, tmp_path):
        cloud = _random_cloud(rng, n=200)
        pa, pb = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(cloud, pa, binary=False)
        write_ply(cloud, pb, binary=True)
        np.testing.assert_array_equal(read_ply(pa).points, read_ply(pb).points)


def _reference_ascii_body(cloud) -> bytes:
    """The ASCII vertex rows formatted one value at a time: the reference
    for the writer, which formats whole blocks of rows at once."""
    xyz = cloud.points.astype("<f4")
    conf = cloud.confidence.astype("<f4")
    lines = []
    for i in range(len(cloud)):
        parts = [f"{v:.9g}" for v in (*xyz[i], conf[i])]
        if cloud.color is not None:
            parts.extend(str(int(c)) for c in cloud.color[i])
        lines.append(" ".join(parts))
    return ("\n".join(lines) + "\n").encode("ascii") if lines else b""


def _extreme_cloud(color: bool) -> PointCloud:
    points = [[-0.0, 1e-45, 3.4e38], [0.0, -1e-45, -3.4e38], [1 / 3, 2 / 3, 1e-7], [1e6, -2.5, 7.0]]
    col = np.array([[0, 255, 7], [255, 0, 1], [12, 34, 56], [1, 2, 3]], np.uint8) if color else None
    return PointCloud(points, [0.0, 1.0, 0.5, 1 / 3], color=col)


class TestAsciiWrite:
    @pytest.mark.parametrize("color", [False, True], ids=["plain", "color"])
    @pytest.mark.parametrize("n", [0, 1, 7, 3000, None], ids=["0", "1", "7", "3000", "extreme"])
    def test_matches_per_value_reference(self, rng, tmp_path, n, color):
        cloud = _extreme_cloud(color) if n is None else _random_cloud(rng, n=n, color=color)
        path = tmp_path / "a.ply"
        write_ply(cloud, path, binary=False)
        data = path.read_bytes()
        body = data[data.index(b"end_header\n") + len(b"end_header\n") :]
        assert body == _reference_ascii_body(cloud)


# Float32 values, with ±0, the smallest subnormals and ±3.4e38 drawn often.
_EXTREME_F32 = [float(np.float32(v)) for v in (0.0, -0.0, 1e-45, -1e-45, 3.4e38, -3.4e38)]
_F32 = st.sampled_from(_EXTREME_F32) | st.floats(width=32, allow_nan=False, allow_infinity=False)
_CONF32 = st.sampled_from([*_EXTREME_F32[:3], 1.0]) | st.floats(-0.0, 1.0, width=32)


@st.composite
def _float32_clouds(draw, n: int, color: bool) -> PointCloud:
    rows = draw(st.lists(st.tuples(_F32, _F32, _F32, _CONF32), min_size=n, max_size=n))
    table = np.array(rows, dtype=np.float64).reshape(n, 4)
    col = None
    if color:
        col = np.array(draw(st.lists(st.integers(0, 255), min_size=3 * n, max_size=3 * n)))
        col = col.astype(np.uint8).reshape(n, 3)
    return PointCloud(table[:, :3], table[:, 3], color=col)


def _body(path) -> bytes:
    data = path.read_bytes()
    return data[data.index(b"end_header\n") + len(b"end_header\n") :]


def _assert_same_cloud(a: PointCloud, b: PointCloud):
    assert a.points.tobytes() == b.points.tobytes()
    assert a.confidence.tobytes() == b.confidence.tobytes()
    assert (a.color is None) == (b.color is None)
    assert a.color is None or a.color.tobytes() == b.color.tobytes()


@pytest.fixture(scope="module")
def ply_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ply_properties")


class TestAsciiWriteProperties:
    """For float32 clouds of every row count around a block boundary, the
    ASCII body equals the per-value reference, and the ASCII and binary files
    read back to the written cloud, sign of zero included."""

    @given(
        data=st.data(),
        block=st.integers(1, 5),
        n_blocks=st.integers(1, 3),
        offset=st.sampled_from([-1, 0, 1]),
        color=st.booleans(),
    )
    def test_matches_reference_and_binary(self, ply_dir, data, block, n_blocks, offset, color):
        # A small block size puts the boundaries within cheaply drawn clouds.
        cloud = data.draw(_float32_clouds(n_blocks * block + offset, color))
        ascii_path, binary_path = ply_dir / "a.ply", ply_dir / "b.ply"
        with mock.patch.object(ply, "_ASCII_BLOCK_ROWS", block):
            write_ply(cloud, ascii_path, binary=False)
        write_ply(cloud, binary_path, binary=True)
        assert _body(ascii_path) == _reference_ascii_body(cloud)
        _assert_same_cloud(read_ply(ascii_path), cloud)
        _assert_same_cloud(read_ply(binary_path), cloud)

    def test_module_block_size_boundaries(self, rng, ply_dir):
        block = ply._ASCII_BLOCK_ROWS
        cloud = _random_cloud(rng, n=block + 1, color=True)
        points = cloud.points.copy()
        points[-4:] = _extreme_cloud(True).points.astype(np.float32)
        cloud = PointCloud(points, cloud.confidence, color=cloud.color)
        lines = _reference_ascii_body(cloud).splitlines(keepends=True)
        path = ply_dir / "large.ply"
        for n in (block - 1, block, block + 1):
            head = PointCloud(points[:n], cloud.confidence[:n], color=cloud.color[:n])
            write_ply(head, path, binary=False)
            assert _body(path) == b"".join(lines[:n])
        _assert_same_cloud(read_ply(path), cloud)


def _reference_ascii_parse(path, n_values):
    """Per-token float() parse of an ASCII PLY body with no leading elements."""
    text = path.read_text()
    body = text[text.index("end_header\n") + len("end_header\n") :].splitlines()
    return np.array([[float(tok) for tok in row.split()[:n_values]] for row in body])


class TestAsciiParse:
    def test_matches_per_token_float_parse(self, rng, tmp_path):
        cloud = _random_cloud(rng, n=2000, color=True)
        path = tmp_path / "a.ply"
        write_ply(cloud, path, binary=False)
        expected = _reference_ascii_parse(path, 7)
        back = read_ply(path)
        assert (back.points == expected[:, :3].astype("<f4").astype(np.float64)).all()
        assert (back.confidence == expected[:, 3].astype("<f4").astype(np.float64)).all()
        assert (back.color == expected[:, 4:].astype(np.uint8)).all()

    def test_foreign_number_spellings_and_trailing_values(self, rng, tmp_path):
        values = rng.normal(size=(300, 3)) * np.exp(rng.uniform(-20, 20, (300, 1)))
        spellings = ["{!r}", "{:.20e}", "{:+.3f}", "{:.17g}"]
        rows = [
            " ".join(spellings[(i + j) % 4].format(v) for j, v in enumerate(row)) + " 7 extra"
            for i, row in enumerate(values.tolist())
        ]
        path = tmp_path / "d.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {len(rows)}\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n" + "\t\n".join(rows) + "\n"
        )
        expected = _reference_ascii_parse(path, 3)
        assert (read_ply(path).points.view(np.int64) == expected.view(np.int64)).all()


class TestReadForeignFiles:
    def test_missing_confidence_defaults_to_one(self, tmp_path):
        path = tmp_path / "plain.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 2 3\n"
        )
        cloud = read_ply(path)
        assert (cloud.confidence == 1.0).all()
        np.testing.assert_array_equal(cloud.points[1], [1.0, 2.0, 3.0])

    def test_unknown_property_skipped_with_warning(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float curvature\n"
            "end_header\n1 2 3 0.5\n"
        )
        with pytest.warns(UnsupportedPropertyWarning):
            cloud = read_ply(path)
        np.testing.assert_array_equal(cloud.points[0], [1.0, 2.0, 3.0])

    def test_double_precision_properties_accepted(self, tmp_path):
        path = tmp_path / "dbl.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0.25 0.5 0.75\n"
        )
        cloud = read_ply(path)
        np.testing.assert_array_equal(cloud.points[0], [0.25, 0.5, 0.75])

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "comments.ply"
        path.write_text(
            "ply\ncomment made elsewhere\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n4 5 6\n"
        )
        np.testing.assert_array_equal(read_ply(path).points[0], [4.0, 5.0, 6.0])

    def test_trailing_face_element_ignored(self, tmp_path):
        path = tmp_path / "faces.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        assert len(read_ply(path)) == 3


class TestParseErrors:
    def test_truncated_binary_names_offset(self, rng, tmp_path):
        cloud = _random_cloud(rng, n=100)
        path = tmp_path / "trunc.ply"
        write_ply(cloud, path, binary=True)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 37])
        with pytest.raises(ParseError) as info:
            read_ply(path)
        assert info.value.offset is not None

    def test_truncated_ascii_names_line(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(ParseError) as info:
            read_ply(path)
        assert info.value.line == 9

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("2 2", "has 2 values"),
            ("", "has 0 values"),
            ("2 two 2", "non-numeric"),
            ("2 2_0 2", "non-numeric"),
            ("2 # 2", "non-numeric"),
        ],
        ids=["short_row", "blank_row", "word", "digit_separator", "comment_mark"],
    )
    def test_bad_ascii_row_names_its_line(self, tmp_path, bad_row, message):
        # A face element before the vertices shifts the vertex rows by one line.
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int vertex_indices\n"
            "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
            f"end_header\n3 0 1 2\n0 0 0\n1 1 1\n{bad_row}\n3 3 3\n"
        )
        with pytest.raises(ParseError, match=message) as info:
            read_ply(path)
        assert info.value.line == 13

    @pytest.mark.filterwarnings("error")
    def test_all_blank_ascii_body_names_first_row(self, tmp_path):
        path = tmp_path / "blank.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n\n  \n"
        )
        with pytest.raises(ParseError, match="has 0 values") as info:
            read_ply(path)
        assert info.value.line == 8

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_names_vertex(self, rng, tmp_path, binary, value):
        cloud = _random_cloud(rng, n=20)
        path = tmp_path / "nf.ply"
        write_ply(cloud, path, binary=binary)
        if binary:
            data = bytearray(path.read_bytes())
            offset = data.index(b"end_header\n") + len(b"end_header\n") + 13 * 16 + 4
            data[offset : offset + 4] = np.float32(value).tobytes()
            path.write_bytes(bytes(data))
        else:
            lines = path.read_text().splitlines()
            row = lines[-20 + 13].split()
            row[1] = str(value)
            lines[-20 + 13] = " ".join(row)
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"non-finite coordinates \[.*\] at point 13"):
            read_ply(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_confidence_names_vertex(self, tmp_path, value):
        path = tmp_path / "conf.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float confidence\n"
            f"end_header\n0 0 0 0.5\n1 1 1 {value}\n"
        )
        with pytest.raises(ParseError, match=r"outside \[0, 1\] at point 1"):
            read_ply(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize(
        "count, extra, line",
        [("1", "property\n", 7), ("1", "property list\n", 7), ("-2", "", 3)],
        ids=["bare_property", "list_without_types", "negative_count"],
    )
    def test_malformed_header_line_names_it(self, tmp_path, fmt, count, extra, line):
        path = tmp_path / "bad.ply"
        path.write_bytes(
            f"ply\nformat {fmt} 1.0\nelement vertex {count}\n"
            f"property float x\nproperty float y\nproperty float z\n{extra}end_header\n".encode()
            + bytes(12)
        )
        with pytest.raises(ParseError) as info:
            read_ply(path)
        assert info.value.line == line

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_repeated_property_names_its_line(self, tmp_path, fmt):
        # Read by name, a second x column would hide the first.
        path = tmp_path / "twice.ply"
        path.write_bytes(
            f"ply\nformat {fmt} 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
            "property float z\nproperty float x\nproperty float confidence\nend_header\n".encode()
            + (b"0 0 0 1 0.5\n" if fmt == "ascii" else bytes(20))
        )
        with pytest.raises(ParseError, match="property 'x' declared twice") as info:
            read_ply(path)
        assert info.value.line == 7

    def test_missing_end_header(self, tmp_path):
        path = tmp_path / "noend.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(ParseError):
            read_ply(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "notply.ply"
        path.write_text("obj\nformat ascii 1.0\nend_header\n")
        with pytest.raises(ParseError):
            read_ply(path)

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "be.ply"
        path.write_text(
            "ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(ParseError):
            read_ply(path)

    def test_list_property_on_vertices_rejected(self, tmp_path):
        path = tmp_path / "lists.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property list uchar int neighbors\n"
            "end_header\n0 0 0 0\n"
        )
        # The ASCII reader checks property types by the binary reader's rule.
        with pytest.raises(ParseError, match="list property 'neighbors' on vertices"):
            with pytest.warns(UnsupportedPropertyWarning):
                read_ply(path)

    def test_confidence_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "badconf.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float confidence\n"
            "end_header\n0 0 0 1.5\n"
        )
        with pytest.raises(ParseError):
            read_ply(path)

    def test_non_numeric_vertex_value(self, tmp_path):
        path = tmp_path / "nan.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\nfoo 0 0\n"
        )
        with pytest.raises(ParseError) as info:
            read_ply(path)
        assert info.value.line is not None


# Pieces spliced into fuzzed files besides random bytes: number spellings,
# separators and whole header lines, so that edits reach the parser's
# branches rather than only its magic and format checks.
_PLY_PIECES = (
    b"0", b"7", b"-1", b" ", b"\n", b"\r\n", b".", b"e", b"_", b"nan", b"inf", b"1e400",
    b"\x00", b"\xff", b"double", b"uchar", b"list", b"comment ", b"element face 2\n",
    b"element vertex 3\n", b"property float x\n", b"property uchar red\n",
    b"property list uchar int v\n", b"format ascii 1.0\n", b"end_header\n",
)


@st.composite
def _byte_edits(draw, original: bytes) -> bytes:
    """``original`` after one to three replacements, insertions, deletions
    or truncations at random offsets."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        piece = draw(st.one_of(st.sampled_from(_PLY_PIECES), st.binary(min_size=1, max_size=4)))
        if kind == "replace":
            data[at : at + len(piece)] = piece
        elif kind == "insert":
            data[at:at] = piece
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def small_plys(tmp_path_factory) -> dict:
    """The bytes of a small valid binary PLY (with colors) and ASCII PLY."""
    directory = tmp_path_factory.mktemp("ply_fuzz")
    cloud = _random_cloud(np.random.default_rng(9), n=6, color=True)
    files = {}
    for binary in (True, False):
        path = directory / f"valid_{binary}.ply"
        write_ply(cloud, path, binary=binary)
        files[binary] = path.read_bytes()
    return {"dir": directory, **files}


class TestFuzzedPly:
    """A byte-edited valid file either reads or raises a library error."""

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
    @given(data=st.data())
    def test_returns_or_raises_library_error(self, small_plys, binary, data):
        path = small_plys["dir"] / f"edited_{binary}.ply"
        path.write_bytes(data.draw(_byte_edits(small_plys[binary])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                read_ply(path)
            except CloudChangeError:
                pass
