"""Deterministic synthetic bi-temporal scenes with exact ground truth.

A scene is a room built from axis-aligned box surfaces (walls plus a few
furniture boxes) observed by two epochs.  Both epochs sample the same static
world points, so after mapping one epoch onto the other the static residuals
are exactly the injected noise; changed objects are placed in free interior
cells so their points sit far from all other geometry.  Each epoch lives in
its own private similarity frame, reproducing the scale/pose ambiguity of
independent reconstructions, and carries realistic defects: per-point
Gaussian noise, low-confidence "edge-flying" points elongated along the
viewing ray, and per-epoch camera trajectories: tracks of camera centers on
a circle round the room, from which each point's viewing ray starts.

Everything is a pure function of the scene spec and, when given, the two
epoch transforms; identical inputs produce bitwise-identical scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, robust_extent
from .coarse import JointReconstruction
from .errors import (
    InvalidSpec, check_fields, check_integer, check_non_negative, check_number, check_numbers,
)
from .geometry import Sim3Transform, compose_relative
from .keyframes import KeyframeSet
from .metrics import Trajectory

_CHANGE_KINDS = ("added", "removed", "moved")

# Salts for the per-component random streams, so e.g. changing the noise
# level cannot reshuffle the geometry.
_SALT_GEOMETRY = 0
_SALT_TRANSFORMS = 1
_SALT_NOISE = 2  # +epoch_id
_SALT_EDGES = 12  # +epoch_id
_SALT_CONFIDENCE = 22  # +epoch_id
_SALT_FRAMES = 32  # +epoch_id
_SALT_JOINT = 100  # +epoch_id
_SALT_JOINT_BIAS = 200  # +epoch_id
_SALT_JOINT_DRIFT = 300  # +epoch_id (+frame in the rng sequence)

# Inlier confidences stay at or above 0.5 while elongated outliers stay
# strictly below 0.3, so a median-confidence filter separates them whenever
# outliers are the minority.
_INLIER_CONF = (0.5, 1.0)
_OUTLIER_CONF = (0.05, 0.295)

# Points per block of the (points x frames) azimuth-distance matrix in
# _assign_frames: keeps each temporary cache-sized on large scenes.
_ASSIGN_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class ChangeSpec:
    """One change between the epochs.

    Objects are small boxes placed in free interior cells.  For a moved
    object ``displacement`` is the rigid world-frame offset applied between
    the epochs; for added/removed objects it nudges the object away from
    its automatically chosen cell center (usually left at zero).
    """

    kind: str
    n_points: int
    displacement: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.kind not in _CHANGE_KINDS:
            raise InvalidSpec(f"unknown change kind {self.kind!r}")
        object.__setattr__(self, "n_points", check_integer("n_points", self.n_points, 1, InvalidSpec))
        try:
            displacement = check_numbers(self.displacement, "displacement")
        except ValueError:
            displacement = np.empty(0)
        if displacement.shape != (3,) or not np.isfinite(displacement).all():
            raise InvalidSpec(
                f"displacement must be three finite numbers, got {self.displacement!r}"
            )
        object.__setattr__(self, "displacement", tuple(displacement.tolist()))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_points": self.n_points,
            "displacement": list(self.displacement),
        }


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic bi-temporal scene.

    Attributes:
        seed: master seed of every random stream of the scene.
        n_static: number of shared static background points.
        n_frames_per_epoch: camera count per epoch.
        change_spec: changes applied between the epochs.
        noise_sigma: per-epoch Gaussian position noise as a fraction of the
            scene extent.  Noise vectors are norm-clipped at 3 sigma so the
            residual between two epochs' views of a static point is hard-
            bounded by 6 sigma.
        edge_noise_fraction: fraction of each epoch's points converted to
            low-confidence outliers elongated along the viewing ray.
        edge_noise_elongation: maximum elongation as a fraction of extent.
    """

    seed: int
    n_static: int = 10000
    n_frames_per_epoch: int = 30
    change_spec: tuple = ()
    noise_sigma: float = 0.0
    edge_noise_fraction: float = 0.0
    edge_noise_elongation: float = 0.1

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("n_static", 1), ("n_frames_per_epoch", 1)):
            value = check_integer(name, getattr(self, name), minimum, InvalidSpec)
            object.__setattr__(self, name, value)
        for name in ("noise_sigma", "edge_noise_fraction", "edge_noise_elongation"):
            object.__setattr__(self, name, check_number(name, getattr(self, name), InvalidSpec))
        if not 0.0 <= self.edge_noise_fraction <= 1.0:
            raise InvalidSpec("edge_noise_fraction must lie in [0, 1]")
        if not all(0.0 <= v < math.inf for v in (self.noise_sigma, self.edge_noise_elongation)):
            raise InvalidSpec("noise parameters must be finite and non-negative")
        changes = tuple(self.change_spec)
        if not all(isinstance(c, ChangeSpec) for c in changes):
            raise InvalidSpec("change_spec entries must be ChangeSpec; decode dicts with from_dict")
        object.__setattr__(self, "change_spec", changes)

    def to_dict(self) -> dict:
        """The fields of scene.json, JSON-ready."""
        data = {key: getattr(self, key) for key in _SPEC_TYPES}
        data["change_spec"] = [c.to_dict() for c in self.change_spec]
        return data

    @staticmethod
    def from_dict(data) -> "SceneSpec":
        """Inverse of :meth:`to_dict`; omitted keys other than ``seed`` take
        their defaults.

        Raises:
            InvalidSpec: on a non-object, an unknown or missing key, a value
                of the wrong JSON type, or values that violate the spec's
                constraints.
        """
        values = _spec_fields(data, _SPEC_TYPES, ("seed",), "scene spec")
        changes = tuple(
            ChangeSpec(**_spec_fields(c, _CHANGE_TYPES, ("kind", "n_points"), "change"))
            for c in values.get("change_spec", [])
        )
        return SceneSpec(**{**values, "change_spec": changes})


# JSON types of the serialized SceneSpec and ChangeSpec fields.
_SPEC_TYPES = {
    "seed": int,
    "n_static": int,
    "n_frames_per_epoch": int,
    "change_spec": list,
    "noise_sigma": float,
    "edge_noise_fraction": float,
    "edge_noise_elongation": float,
}
_CHANGE_TYPES = {"kind": str, "n_points": int, "displacement": list}


def _spec_fields(data, types: dict, required: tuple, what: str) -> dict:
    """:func:`check_fields` for a spec, which also rejects keys outside ``types``."""
    checked = check_fields(data, types, required, what, InvalidSpec)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise InvalidSpec(f"unknown {what} keys {unknown}")
    return checked


@dataclass(frozen=True)
class BiTemporalScene:
    """A generated scene: two epoch clouds plus their ground truth.

    ``world_t1``/``world_t2`` hold the exact world-frame positions of the
    same points as the epoch clouds (including noise and edge elongation);
    they are the basis for the mock joint reconstruction.  Each epoch's
    rows are grouped by frame: frame i (1-based) is rows ``b[i - 1]:b[i]``
    of the ``n_frames_per_epoch + 1`` offsets ``b = frame_bounds_t1`` (or
    ``_t2``).  ``epoch_transforms`` are the ground-truth epoch-to-world
    similarity transforms of epochs 1 and 2.
    """

    spec: SceneSpec
    epoch_transforms: tuple
    cloud_t1: PointCloud
    cloud_t2: PointCloud
    world_t1: np.ndarray
    world_t2: np.ndarray
    labels_t1: np.ndarray
    labels_t2: np.ndarray
    frame_bounds_t1: np.ndarray
    frame_bounds_t2: np.ndarray
    trajectory_t1: Trajectory
    trajectory_t2: Trajectory
    extent: float
    # Values derived from the scene alone and kept for its lifetime; see
    # :meth:`prepared`.
    _prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def prepared(self, key: tuple, build):
        """``build()``, computed on the first call with ``key`` and kept with the scene.

        For values that depend only on the scene and ``key``: later calls
        with an equal key return the first result without calling ``build``.
        """
        if key not in self._prepared:
            self._prepared[key] = build()
        return self._prepared[key]

    @property
    def gt_relative(self) -> Sim3Transform:
        """Transform mapping epoch 1's frame into epoch 2's."""
        return compose_relative(*self.epoch_transforms)

    def cloud(self, epoch_id: int) -> PointCloud:
        return self.cloud_t1 if epoch_id == 1 else self.cloud_t2

    def world_points(self, epoch_id: int) -> np.ndarray:
        return self.world_t1 if epoch_id == 1 else self.world_t2

    def frame_bounds(self, epoch_id: int) -> np.ndarray:
        return self.frame_bounds_t1 if epoch_id == 1 else self.frame_bounds_t2

    def epoch_frames(self, epoch_id: int) -> list:
        """Per-frame clouds (1-based frame order), views of the epoch cloud's rows."""
        cloud = self.cloud(epoch_id)
        bounds = self.frame_bounds(epoch_id)
        return [cloud.select(slice(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def predicted_trajectory(self, epoch_id: int) -> Trajectory:
        """The epoch's camera centers expressed in its private frame.

        This plays the role of the per-epoch reconstruction's camera output:
        the ground-truth world trajectory carried into the epoch frame by
        the inverse ground-truth transform.
        """
        world_traj = self.trajectory_t1 if epoch_id == 1 else self.trajectory_t2
        return world_traj.transformed(self.epoch_transforms[epoch_id - 1].inverse())


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def _random_sim3(rng: np.random.Generator) -> Sim3Transform:
    scale = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
    return Sim3Transform(scale, _random_rotation(rng), rng.uniform(-5.0, 5.0, 3))


def _box_faces(center: np.ndarray, half: np.ndarray) -> list:
    """The six faces of an axis-aligned box as (origin, u_edge, v_edge)."""
    faces = []
    for axis in range(3):
        u_axis, v_axis = (axis + 1) % 3, (axis + 2) % 3
        for sign in (-1.0, 1.0):
            origin = center.copy()
            origin[axis] += sign * half[axis]
            origin[u_axis] -= half[u_axis]
            origin[v_axis] -= half[v_axis]
            u = np.zeros(3)
            u[u_axis] = 2.0 * half[u_axis]
            v = np.zeros(3)
            v[v_axis] = 2.0 * half[v_axis]
            faces.append((origin, u, v))
    return faces


def _sample_on_faces(faces: list, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly n points sampled uniformly by area over the given faces."""
    areas = np.array([np.linalg.norm(u) * np.linalg.norm(v) for _, u, v in faces])
    quota = areas / areas.sum() * n
    counts = np.floor(quota).astype(int)
    remainder = n - counts.sum()
    if remainder > 0:
        # Largest-remainder rounding keeps the total exact.
        extra = np.argsort(-(quota - counts), kind="stable")[:remainder]
        counts[extra] += 1
    pieces = []
    for (origin, u, v), count in zip(faces, counts):
        if count == 0:
            continue
        uv = rng.uniform(0.0, 1.0, size=(count, 2))
        pieces.append(origin + uv[:, :1] * u + uv[:, 1:] * v)
    return np.concatenate(pieces) if pieces else np.zeros((0, 3))


def _interior_cells(half: np.ndarray, z_fraction: float) -> np.ndarray:
    """Centers of a 4 x 4 grid of interior placement cells at one height.

    Furniture and change objects draw from grids at different heights, so a
    changed object always keeps clearance from every static surface.
    """
    fractions = [-0.6, -0.2, 0.2, 0.6]
    centers = []
    for fx in fractions:
        for fy in fractions:
            centers.append([fx * half[0], fy * half[1], z_fraction * half[2]])
    return np.asarray(centers)


def _arc_trajectory(rng: np.random.Generator, half: np.ndarray, n_frames: int) -> Trajectory:
    """Camera centers evenly spaced round a horizontal circle about the room's center."""
    radius = 0.4 * min(half[0], half[1]) * rng.uniform(0.9, 1.1)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    height = rng.uniform(-0.2, 0.2) * half[2]
    thetas = [phase + 2.0 * math.pi * i / n_frames for i in range(n_frames)]
    centers = [[radius * math.cos(theta), radius * math.sin(theta), height] for theta in thetas]
    return Trajectory(centers, range(1, n_frames + 1))


def _assign_frames(
    points: np.ndarray, trajectory: Trajectory, rng: np.random.Generator
) -> np.ndarray:
    """Assign each point to the camera whose azimuth is closest to its own.

    A jitter of three quarters of the angular spacing blurs the region
    boundaries so neighboring frames see overlapping geometry.
    """
    cam_centers = trajectory.centers
    cam_az = np.arctan2(cam_centers[:, 1], cam_centers[:, 0])
    n_frames = len(cam_az)
    jitter = 0.75 * 2.0 * math.pi / n_frames
    point_az = np.arctan2(points[:, 1], points[:, 0])
    point_az = point_az + rng.normal(0.0, jitter, size=len(points))
    frames = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), _ASSIGN_BLOCK_ROWS):
        diff = np.abs(point_az[start : start + _ASSIGN_BLOCK_ROWS, None] - cam_az[None, :])
        diff = np.minimum(diff, 2.0 * math.pi - diff)
        frames[start : start + _ASSIGN_BLOCK_ROWS] = np.argmin(diff, axis=1)
    return frames + 1


def _clipped_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Gaussian noise with per-axis std sigma, norm-clipped at 3 sigma."""
    if sigma <= 0.0:
        return np.zeros((n, 3))
    noise = rng.normal(0.0, sigma, size=(n, 3))
    norms = np.linalg.norm(noise, axis=1)
    over = norms > 3.0 * sigma
    if over.any():
        noise[over] *= (3.0 * sigma / norms[over])[:, None]
    return noise


def generate_scene(spec: SceneSpec, epoch_transforms: tuple = None) -> BiTemporalScene:
    """Build the scene described by ``spec``, whose epochs 1 and 2 map into the
    world by ``epoch_transforms`` (drawn from the seed, scales in [0.2, 5], when
    omitted); bitwise deterministic in both.

    Raises:
        InvalidSpec: on inconsistent parameters, including moved objects
            whose displacement is below 10x the noise level (labels would
            be ambiguous), or ``epoch_transforms`` that are not two.
    """
    if epoch_transforms is None:
        transforms_rng = np.random.default_rng([spec.seed, _SALT_TRANSFORMS])
        epoch_transforms = (_random_sim3(transforms_rng), _random_sim3(transforms_rng))
    epoch_transforms = tuple(epoch_transforms)
    if len(epoch_transforms) != 2:
        raise InvalidSpec("epoch_transforms must hold exactly two transforms")
    geom_rng = np.random.default_rng([spec.seed, _SALT_GEOMETRY])

    half = geom_rng.uniform(4.0, 6.0, 3)
    n_boxes = int(geom_rng.integers(3, 11))
    faces = _box_faces(np.zeros(3), half)

    furniture_cells = _interior_cells(half, z_fraction=-0.35)
    change_cells = _interior_cells(half, z_fraction=0.35)
    furniture_order = geom_rng.permutation(len(furniture_cells))
    change_order = geom_rng.permutation(len(change_cells))
    change_cursor = 0

    def next_change_cell() -> np.ndarray:
        nonlocal change_cursor
        if change_cursor >= len(change_order):
            raise InvalidSpec("too many change objects for the available interior cells")
        center = change_cells[change_order[change_cursor]]
        change_cursor += 1
        return center

    object_half = 0.32 * np.array([0.2 * half[0], 0.2 * half[1], 0.35 * half[2]])
    for box in range(n_boxes - 1):
        center = furniture_cells[furniture_order[box]]
        size = object_half * geom_rng.uniform(0.6, 1.0, 3)
        faces.extend(_box_faces(center, size))

    static_world = _sample_on_faces(faces, spec.n_static, geom_rng)

    added, removed, moved_t1, moved_t2 = [], [], [], []
    scene_scale = float(np.max(half)) * 2.0
    for change in spec.change_spec:
        disp = np.asarray(change.displacement)
        size = object_half * geom_rng.uniform(0.6, 1.0, 3)
        center = next_change_cell()
        if change.kind == "moved":
            if spec.noise_sigma > 0.0 and np.linalg.norm(disp) < 10.0 * spec.noise_sigma * scene_scale:
                raise InvalidSpec(
                    "moved displacement must be at least 10x the noise level "
                    f"({10.0 * spec.noise_sigma * scene_scale:.3g})"
                )
            pts = _sample_on_faces(_box_faces(center, size), change.n_points, geom_rng)
            moved_t1.append(pts)
            moved_t2.append(pts + disp)
        else:
            pts = _sample_on_faces(_box_faces(center + disp, size), change.n_points, geom_rng)
            if change.kind == "added":
                added.append(pts)
            else:
                removed.append(pts)

    def stack(blocks):
        return np.concatenate(blocks) if blocks else np.zeros((0, 3))

    world_1 = np.concatenate([static_world, stack(removed), stack(moved_t1)])
    world_2 = np.concatenate([static_world, stack(added), stack(moved_t2)])
    labels_1 = np.concatenate(
        [np.zeros(spec.n_static, bool), np.ones(len(world_1) - spec.n_static, bool)]
    )
    labels_2 = np.concatenate(
        [np.zeros(spec.n_static, bool), np.ones(len(world_2) - spec.n_static, bool)]
    )

    extent = robust_extent(np.concatenate([world_1, world_2]))

    labels_by_epoch = {1: labels_1, 2: labels_2}
    clouds, worlds, trajectories, bounds = [], [], [], []
    for epoch_id, world in ((1, world_1), (2, world_2)):
        n = len(world)
        traj_rng = np.random.default_rng([spec.seed, _SALT_FRAMES + epoch_id])
        trajectory = _arc_trajectory(traj_rng, half, spec.n_frames_per_epoch)
        frames = _assign_frames(world, trajectory, traj_rng)

        # Group each epoch's points by frame (stable within a frame): each
        # frame is one row range, and per-frame files re-read in order.
        perm = np.argsort(frames, kind="stable")
        world = world[perm]
        frames = frames[perm]
        bounds.append(np.searchsorted(frames, np.arange(1, spec.n_frames_per_epoch + 2)))
        labels_by_epoch[epoch_id] = labels_by_epoch[epoch_id][perm]

        noise_rng = np.random.default_rng([spec.seed, _SALT_NOISE + epoch_id])
        noisy = world + _clipped_noise(noise_rng, n, spec.noise_sigma * extent)

        edge_rng = np.random.default_rng([spec.seed, _SALT_EDGES + epoch_id])
        edge_mask = np.zeros(n, dtype=bool)
        n_edge = int(round(spec.edge_noise_fraction * n))
        if n_edge > 0:
            edge_idx = edge_rng.choice(n, size=n_edge, replace=False)
            edge_mask[edge_idx] = True
            cam_centers = trajectory.centers[frames[edge_idx] - 1]
            rays = noisy[edge_idx] - cam_centers
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            magnitude = edge_rng.uniform(0.3, 1.0, n_edge) * spec.edge_noise_elongation * extent
            noisy[edge_idx] = noisy[edge_idx] + magnitude[:, None] * rays

        conf_rng = np.random.default_rng([spec.seed, _SALT_CONFIDENCE + epoch_id])
        confidence = conf_rng.uniform(*_INLIER_CONF, n)
        if n_edge > 0:
            confidence[edge_mask] = conf_rng.uniform(*_OUTLIER_CONF, n_edge)

        into_epoch = epoch_transforms[epoch_id - 1].inverse()
        clouds.append(PointCloud(into_epoch.apply(noisy), confidence))
        worlds.append(noisy)
        trajectories.append(trajectory)

    return BiTemporalScene(
        spec=spec,
        epoch_transforms=epoch_transforms,
        cloud_t1=clouds[0],
        cloud_t2=clouds[1],
        world_t1=worlds[0],
        world_t2=worlds[1],
        labels_t1=labels_by_epoch[1],
        labels_t2=labels_by_epoch[2],
        frame_bounds_t1=bounds[0],
        frame_bounds_t2=bounds[1],
        trajectory_t1=trajectories[0],
        trajectory_t2=trajectories[1],
        extent=extent,
    )


def _small_sim3(
    rng: np.random.Generator, magnitude: float, extent: float, fixed_magnitude: bool = False
) -> Sim3Transform:
    """Similarity transform near the identity.

    Rotation angle, log-scale and relative translation are Gaussian with
    std ``magnitude`` (or exactly ``magnitude`` when ``fixed_magnitude``,
    leaving only the directions random).
    """
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = magnitude if fixed_magnitude else rng.normal(0.0, magnitude)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rotation = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    scale = math.exp(magnitude if fixed_magnitude else rng.normal(0.0, magnitude))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    if fixed_magnitude:
        translation = magnitude * extent * direction
    else:
        translation = rng.normal(0.0, magnitude * extent, 3)
    return Sim3Transform(scale, rotation, translation)


def mock_joint_inference(
    scene: BiTemporalScene,
    keyframes: tuple,
    sigma: float = 0.0,
    epoch_bias: float = 0.0,
    frame_drift: float = 0.0,
) -> JointReconstruction:
    """Stand-in for a joint two-epoch reconstruction pass.

    For each requested keyframe, returns that frame's epoch points expressed
    in the shared world frame, pixel-aligned with the per-epoch cloud, with
    three configurable error terms emulating a real joint pass:

    - ``sigma``: i.i.d. Gaussian perturbation, per-axis std sigma * extent,
      drawn once per point from the scene seed so the same point receives
      the same perturbation under any keyframe budget.
    - ``epoch_bias``: a near-identity similarity transform of deterministic
      magnitude (random direction) applied to every epoch-2 keyframe cloud,
      emulating a systematic cross-epoch inconsistency of the joint metric
      frame.  Any subset fit absorbs it exactly, so it sets a keyframe-
      budget-independent floor on the relative-transform error.
    - ``frame_drift``: an additional near-identity similarity per keyframe
      (pose drift of the joint pass), fixed per frame, whose influence on
      the fit averages down as more keyframes are used.

    All three are deterministic functions of the scene seed.

    Raises:
        ValueError: on a NaN, infinite or negative error term, or keyframe
            sets that do not fit the scene.
    """
    for name, value in (("sigma", sigma), ("epoch_bias", epoch_bias), ("frame_drift", frame_drift)):
        check_non_negative(name, value)
    kf1, kf2 = keyframes
    if (kf1.epoch_id, kf2.epoch_id) != (1, 2):
        raise ValueError("expected keyframe sets for epochs 1 and 2, in that order")
    clouds = {}
    for kf in (kf1, kf2):
        epoch_cloud = scene.cloud(kf.epoch_id)
        bounds = scene.frame_bounds(kf.epoch_id)
        world = scene.world_points(kf.epoch_id)
        n_frames = scene.spec.n_frames_per_epoch
        if kf.indices and kf.indices[-1] > n_frames:
            raise ValueError(
                f"keyframe index {kf.indices[-1]} exceeds epoch frame count {n_frames}"
            )
        rng = np.random.default_rng([scene.spec.seed, _SALT_JOINT + kf.epoch_id])
        perturbed = world + rng.normal(0.0, sigma * scene.extent, size=world.shape)
        if epoch_bias > 0.0 and kf.epoch_id == 2:
            bias_rng = np.random.default_rng([scene.spec.seed, _SALT_JOINT_BIAS])
            bias = _small_sim3(bias_rng, epoch_bias, scene.extent, fixed_magnitude=True)
            perturbed = bias.apply(perturbed)
        drift_rng = np.random.default_rng([scene.spec.seed, _SALT_JOINT_DRIFT + kf.epoch_id])
        drifts = [
            _small_sim3(drift_rng, frame_drift, scene.extent) for _ in range(n_frames)
        ]
        for index in kf.indices:
            rows = slice(bounds[index - 1], bounds[index])
            points = perturbed[rows]
            if frame_drift > 0.0:
                points = drifts[index - 1].apply(points)
            clouds[(kf.epoch_id, index)] = PointCloud(points, epoch_cloud.confidence[rows])
    return JointReconstruction(clouds=clouds)


def all_frames_keyframes(scene: BiTemporalScene) -> tuple:
    """Keyframe sets selecting every frame of both epochs."""
    n = scene.spec.n_frames_per_epoch
    full = tuple(range(1, n + 1))
    return (KeyframeSet(1, full), KeyframeSet(2, full))
