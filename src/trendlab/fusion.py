"""Stream fusion parameters: per-stream affine projections to a shared
width. `network.forward_batch` applies them and concatenates the projected
streams, fundamental, technical, then sentiment, into the first layer's
input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FusionParameters:
    """Trainable projections; W_S/b_S are None when sentiment is ablated."""

    W_A: np.ndarray
    b_A: np.ndarray
    W_F: np.ndarray
    b_F: np.ndarray
    W_S: np.ndarray | None = None
    b_S: np.ndarray | None = None

    def __post_init__(self):
        d_i = self.W_A.shape[0]
        checks = [("W_F", self.W_F, self.b_F, "b_F")]
        if (self.W_S is None) != (self.b_S is None):
            raise ValueError("W_S and b_S must be provided together")
        if self.W_S is not None:
            checks.append(("W_S", self.W_S, self.b_S, "b_S"))
        if self.b_A.shape != (d_i,):
            raise ValueError(f"b_A shape {self.b_A.shape} != ({d_i},)")
        for wname, W, b, bname in checks:
            if W.shape[0] != d_i:
                raise ValueError(f"{wname} output dim {W.shape[0]} != d_I {d_i}")
            if b.shape != (d_i,):
                raise ValueError(f"{bname} shape {b.shape} != ({d_i},)")

    @property
    def d_i(self) -> int:
        return self.W_A.shape[0]

    @property
    def has_sentiment(self) -> bool:
        return self.W_S is not None

    @property
    def fused_dim(self) -> int:
        return (3 if self.has_sentiment else 2) * self.d_i

    def projections(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) of each fused stream: fundamental, technical, then sentiment."""
        pairs = [(self.W_A, self.b_A), (self.W_F, self.b_F)]
        if self.has_sentiment:
            pairs.append((self.W_S, self.b_S))
        return pairs


def default_width(d_a: int, d_f: int, d_s: int | None) -> int:
    """Default shared stream width: the widest stream is never compressed."""
    return max(d_a, d_f, d_s or 0)
