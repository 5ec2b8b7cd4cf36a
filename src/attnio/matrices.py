"""The attention problem instance and its seeded random generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


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
    """Seeded instance with entries uniform in [-magnitude, magnitude].

    A seed numpy's ``default_rng`` rejects, or a magnitude ``uniform``
    cannot draw from (negative, non-finite, or 2*magnitude overflows),
    raises ``ConfigurationError``.
    """
    if n < 1 or d < 1:
        raise ConfigurationError(f"N and d must be >= 1, got N={n}, d={d}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad seed {seed!r}: {exc}") from None
    try:
        q, k, v = (rng.uniform(-magnitude, magnitude, size=(n, d)) for _ in range(3))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad magnitude {magnitude!r}: {exc}") from None
    return AttentionInstance(q, k, v)

