"""Seeded synthetic processes for reproducible simulation tests.

The generator is a fixed 64-bit linear congruential recurrence with Knuth's
MMIX constants, advanced with exact integer arithmetic, so identical seeds
produce identical streams on every platform.  Normals come from Box-Muller
on consecutive uniform pairs (cosine branch first), which is slower than a
table method but exactly specifiable.  This is a determinism tool for tests
and demos, not a Monte-Carlo-grade source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, log, pi, sin, sqrt

import numpy as np

from .errors import InvalidSpec
from .series import Panel, Series

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1
_U64_SCALE = 2.0 ** -64
_MIN_UNIFORM = 2.0 ** -64

# All generated series share one arbitrary month anchor.
START = (2000, 1)


@dataclass
class Rng:
    """64-bit LCG state; single-owner, advanced sequentially."""

    state: int
    _spare: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.state &= _MASK64

    def uniform(self) -> float:
        """Advance once and return state / 2**64, in [0, 1)."""
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state * _U64_SCALE

    def normal(self) -> float:
        """Standard normal draw via Box-Muller on the next uniform pair."""
        if self._spare is not None:
            value = self._spare
            self._spare = None
            return value
        u1 = max(self.uniform(), _MIN_UNIFORM)
        u2 = self.uniform()
        radius = sqrt(-2.0 * log(u1))
        self._spare = radius * sin(2.0 * pi * u2)
        return radius * cos(2.0 * pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)])


@dataclass(frozen=True)
class ProcessSpec:
    """Recipe for one synthetic process.

    kind: white_noise | random_walk | ar1 | var | cointegrated_pair.
    ar1 needs |phi| < 1; var needs square, equally sized coefficient
    matrices; cointegrated_pair needs beta and uses noise_scale on both
    idiosyncratic noise terms.
    """

    kind: str
    length: int
    seed: int
    phi: float | None = None
    coefficients: tuple | None = None
    beta: float | None = None
    noise_scale: float = 1.0

    def validate(self):
        if self.length < 10:
            raise InvalidSpec("length must be >= 10")
        if self.kind == "ar1":
            if self.phi is None or not abs(self.phi) < 1.0:
                raise InvalidSpec("ar1 needs |phi| < 1")
        elif self.kind == "var":
            if not self.coefficients:
                raise InvalidSpec("var needs at least one coefficient matrix")
            mats = [np.asarray(a, dtype=float) for a in self.coefficients]
            m = mats[0].shape[0] if mats[0].ndim == 2 else -1
            for a in mats:
                if a.ndim != 2 or a.shape != (m, m):
                    raise InvalidSpec("var coefficient matrices must be square and equal-sized")
        elif self.kind == "cointegrated_pair":
            if self.beta is None:
                raise InvalidSpec("cointegrated_pair needs beta")
            if self.noise_scale <= 0.0:
                raise InvalidSpec("noise_scale must be positive")
        elif self.kind not in ("white_noise", "random_walk"):
            raise InvalidSpec(f"unknown kind {self.kind!r}")


def generate(spec: ProcessSpec):
    """Materialize a ProcessSpec as a Series (univariate kinds) or Panel.

    Draw order is fixed per kind so every value is reproducible from the
    recurrence alone: univariate kinds consume one normal per period;
    var consumes one normal per component per period (column order);
    cointegrated_pair consumes the trend innovations first, then the x
    noise, then the y noise, each as a full-length block.
    """
    spec.validate()
    rng = Rng(spec.seed)
    n = spec.length
    if spec.kind == "white_noise":
        return Series("white_noise", START, rng.normals(n))
    if spec.kind == "random_walk":
        return Series("random_walk", START, np.cumsum(rng.normals(n)))
    if spec.kind == "ar1":
        eps = rng.normals(n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = spec.phi * x[t - 1] + eps[t]
        return Series("ar1", START, x)
    if spec.kind == "var":
        mats = [np.asarray(a, dtype=float) for a in spec.coefficients]
        m = mats[0].shape[0]
        x = np.zeros((n, m))
        for t in range(n):
            acc = np.array([rng.normal() for _ in range(m)])
            for j, a in enumerate(mats, start=1):
                if t - j >= 0:
                    acc = acc + a @ x[t - j]
            x[t] = acc
        return Panel(tuple(f"y{i + 1}" for i in range(m)), START, x)
    # cointegrated_pair: x and y share the random-walk trend w, so y - beta*x
    # is stationary by construction.
    w = np.cumsum(rng.normals(n))
    eps = rng.normals(n)
    eta = rng.normals(n)
    x = w + spec.noise_scale * eps
    y = spec.beta * w + spec.noise_scale * eta
    return Panel(("x", "y"), START, np.column_stack([x, y]))
