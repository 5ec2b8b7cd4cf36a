"""Block extents and the attention problem instance.

Blocks follow the tiling convention used by the kernels: the (i, j)
block of size B covers rows i*B .. min((i+1)*B, rows) and the analogous
column range (0-based; boundary blocks are clipped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def block_extent(n: int, b: int, i: int) -> range:
    """Index range of the i-th size-b block along an axis of length n."""
    return range(i * b, min((i + 1) * b, n))


def num_blocks(n: int, b: int) -> int:
    return -(-n // b)


@dataclass(frozen=True)
class AttentionInstance:
    """Inputs Q, K, V, all N x d."""

    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        q, k, v = (np.atleast_2d(np.asarray(m, dtype=np.float64)) for m in (self.Q, self.K, self.V))
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "V", v)
        if not (q.shape == k.shape == v.shape):
            raise ConfigurationError(
                f"Q, K, V must share one N x d shape, got {q.shape}, {k.shape}, {v.shape}"
            )
        if q.shape[0] < 1 or q.shape[1] < 1:
            raise ConfigurationError("N and d must be >= 1")

    @property
    def N(self) -> int:
        return self.Q.shape[0]

    @property
    def d(self) -> int:
        return self.Q.shape[1]


def random_instance(n: int, d: int, seed, magnitude: float = 1.0) -> AttentionInstance:
    """Seeded instance with entries uniform in [-magnitude, magnitude]."""
    if n < 1 or d < 1:
        raise ConfigurationError(f"N and d must be >= 1, got N={n}, d={d}")
    rng = np.random.default_rng(seed)
    q, k, v = (rng.uniform(-magnitude, magnitude, size=(n, d)) for _ in range(3))
    return AttentionInstance(q, k, v)

