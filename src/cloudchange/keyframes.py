"""Temporal keyframe selection by farthest-point sampling over frame indices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_integer


@dataclass(frozen=True)
class KeyframeSet:
    """Selected keyframe indices for one epoch.

    Attributes:
        epoch_id: 1 or 2.
        indices: strictly sorted 1-based frame indices.
    """

    epoch_id: int
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "epoch_id", check_integer("epoch_id", self.epoch_id))
        if self.epoch_id not in (1, 2):
            raise ValueError("epoch_id must be 1 or 2")
        idx = tuple(check_integer("keyframe index", i, 1) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be strictly sorted and unique")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def fps_temporal(n_frames: int, k: int, epoch_id: int = 1) -> KeyframeSet:
    """Greedy farthest-point sampling over the integer timeline 1..n_frames.

    The first frame is always selected; each following pick maximizes the
    minimum index distance to the already-selected set, breaking ties toward
    the lowest index.  For sequential captures this spreads the selection
    approximately uniformly in time.  A budget of k >= n_frames returns
    every frame.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n_frames:
        return KeyframeSet(epoch_id, tuple(range(1, n_frames + 1)))

    indices = np.arange(1, n_frames + 1)
    min_dist = np.abs(indices - 1)
    selected = [1]
    for _ in range(k - 1):
        nxt = int(indices[np.argmax(min_dist)])  # argmax takes the lowest index on ties
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.abs(indices - nxt))
    return KeyframeSet(epoch_id, tuple(sorted(selected)))
