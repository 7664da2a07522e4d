"""Similarity-transform algebra and closed-form alignment.

A :class:`Sim3Transform` is the 7-DoF similarity map p -> s*R*p + t used to
carry a scale-ambiguous reconstruction into another frame.  The closed-form
least-squares estimator :func:`umeyama` recovers such a transform from paired
points via an SVD of the cross-covariance, with the standard sign correction
so the rotation is never a reflection.

All values are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateInput, SchemaError, check_fields, check_number, check_numbers

ROTATION_TOL = 1e-9
# Rows per block in :func:`rotate`.  OpenBLAS hands an (n, 3) @ (3, 3) product
# to its worker threads once it is large enough (from 58,000-60,000 rows with
# numpy 2.4's OpenBLAS 0.3.31 on 2 cores).  After the call returns, the workers
# spin for about 150 ms of CPU, taking a core from the KD-tree builds and
# queries that follow.  Blocks well below that size stay on the calling thread
# and run the same kernel on every row.
ROTATE_BLOCK_ROWS = 16_384
_SIM3_TYPES = {"scale": float, "rotation": list, "translation": list}


def rotate(points, rotation: np.ndarray) -> np.ndarray:
    """``points @ rotation.T`` for one 3-vector or an (n, 3) array.

    Rows go through ``np.matmul`` in near-equal blocks of at most
    ``ROTATE_BLOCK_ROWS`` into one preallocated output, so every row gets the
    bits of a single whole-array product while OpenBLAS stays on the calling
    thread.  A row's bits do not depend on the other rows, so rotating a
    subset of the rows gives the same bits, except for a single row: numpy
    sends a 1-row product (and a 3-vector) to gemv, which rounds differently
    from gemm.  So no block holds a single row.
    """
    p = np.asarray(points, dtype=np.float64)
    r_t = rotation.T
    if p.ndim == 1:
        return p @ r_t
    n = len(p)
    out = np.empty((n, 3))
    blocks = max(1, -(-n // ROTATE_BLOCK_ROWS))
    edges = [n * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(edges, edges[1:]):
        np.matmul(p[start:stop], r_t, out=out[start:stop])
    return out


def rotation_angle_deg(rotation: np.ndarray) -> float:
    """Rotation angle of a rotation matrix, in degrees."""
    r = np.asarray(rotation, dtype=np.float64)
    cos = (np.trace(r) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform p -> scale * rotation @ p + translation.

    Attributes:
        scale: positive uniform scale factor.
        rotation: orthonormal 3x3 matrix with determinant +1.
        translation: 3-vector in target-frame units.
    """

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        s = check_number("scale", self.scale)
        if not (s > 0.0) or not math.isfinite(s):
            raise ValueError(f"scale must be a positive finite number, got {s}")
        # Copies, so the value neither freezes nor follows the caller's arrays.
        r = check_numbers(self.rotation, "rotation").copy()
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be a 3x3 matrix, got shape {r.shape}")
        with np.errstate(all="ignore"):  # huge or infinite entries: err is inf or NaN
            err = np.linalg.norm(r.T @ r - np.eye(3))
        if not err <= ROTATION_TOL:
            raise ValueError(f"rotation is not orthonormal (|R^T R - I|_F = {err:.3e})")
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation has determinant -1 (reflection)")
        t = check_numbers(self.translation, "translation").reshape(3).copy()
        if not np.isfinite(t).all():
            raise ValueError(f"translation must be finite, got {t.tolist()}")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def to_dict(self) -> dict:
        """JSON-ready form: scale, row-major rotation rows, translation."""
        return {
            "scale": self.scale,
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }

    @staticmethod
    def from_dict(data, source: str = "transform") -> "Sim3Transform":
        """Inverse of :meth:`to_dict`.

        Raises:
            SchemaError: naming ``source`` when ``data`` is not an object,
                lacks a field, or holds a value that is not a valid Sim(3).
        """
        fields = check_fields(data, _SIM3_TYPES, tuple(_SIM3_TYPES), source, SchemaError)
        try:
            return Sim3Transform(**fields)
        except ValueError as exc:
            raise SchemaError(f"{source}: bad transform ({exc})") from None

    def apply(self, points) -> np.ndarray:
        """Map one 3-vector or an (n, 3) array through the transform.

        The rotation runs through :func:`rotate`, in row blocks of at most
        ``ROTATE_BLOCK_ROWS`` on the calling thread, with the bits of one
        whole-array product.
        """
        return self.scale * rotate(points, self.rotation) + self.translation

    def inverse(self) -> "Sim3Transform":
        inv_s = 1.0 / self.scale
        inv_r = self.rotation.T
        return Sim3Transform(inv_s, inv_r, -inv_s * (inv_r @ self.translation))

    def compose(self, other: "Sim3Transform") -> "Sim3Transform":
        """Transform equivalent to applying ``other`` first, then ``self``."""
        return Sim3Transform(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * (self.rotation @ other.translation) + self.translation,
        )


def compose_relative(t1: Sim3Transform, t2: Sim3Transform) -> Sim3Transform:
    """Relative transform mapping t1's source frame into t2's source frame.

    Given two transforms into a shared frame, returns inverse(t2) composed
    after t1, in the closed form s = s1/s2, R = R2^T R1,
    t = (1/s2) R2^T (t1 - t2).
    """
    scale = t1.scale / t2.scale
    rotation = t2.rotation.T @ t1.rotation
    translation = (t2.rotation.T @ (t1.translation - t2.translation)) / t2.scale
    return Sim3Transform(scale, rotation, translation)


def apply_transform(transform: Sim3Transform, cloud: PointCloud) -> PointCloud:
    """Map every point of ``cloud``; confidence, color and frames unchanged."""
    return cloud.with_points(transform.apply(cloud.points))


def umeyama(source, target) -> Sim3Transform:
    """Closed-form similarity transform minimizing the residual sum
    ||s*R*source_i + t - target_i||^2.

    Uses the SVD of the cross-covariance; when the candidate rotation would
    be a reflection, the sign of the smallest singular direction is flipped
    so det(R) = +1.  The scale is the variance-ratio form
    trace(D*S) / var(source).

    Args:
        source: (n, 3) source points.
        target: (n, 3) paired target points.

    Raises:
        DegenerateInput: fewer than 3 pairs, near-collinear source points
            (second singular value of the source scatter below 1e-12 of the
            first), moments beyond float range, or a fit whose scale is not
            finite and positive or whose translation is not finite.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if src.shape != tgt.shape:
        raise ValueError(f"source and target shapes differ: {src.shape} vs {tgt.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {n}")

    # Each pair weighs 1/n.  Every fit's output bytes depend on this exact
    # arithmetic; ``.mean()`` would round differently.
    w = np.full(n, 1.0 / n)
    mu_src = w @ src
    mu_tgt = w @ tgt
    src_c = src - mu_src
    tgt_c = tgt - mu_tgt

    src_scatter = (src_c * w[:, None]).T @ src_c
    cov = (tgt_c * w[:, None]).T @ src_c
    # An SVD of a non-finite matrix returns NaNs or fails to converge.
    if not (np.isfinite(src_scatter).all() and np.isfinite(cov).all()):
        raise DegenerateInput("the point moments leave float range")
    scatter_svals = np.linalg.svd(src_scatter, compute_uv=False)
    if scatter_svals[1] < 1e-12 * scatter_svals[0] or scatter_svals[0] == 0.0:
        raise DegenerateInput("source points are (near-)collinear; widen the correspondence set")

    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2] = -1.0
    rotation = u @ np.diag(sign) @ vt

    var_src = float(np.sum(w * np.sum(src_c**2, axis=1)))
    scale = float(np.sum(d * sign)) / var_src
    translation = mu_tgt - scale * (rotation @ mu_src)
    if not (0.0 < scale < math.inf and np.isfinite(translation).all()):
        raise DegenerateInput(f"the fit leaves float range (scale {scale})")
    return Sim3Transform(scale, rotation, translation)
