"""Seeded synthetic processes for reproducible simulation tests.

The generator is a fixed 64-bit linear congruential recurrence with Knuth's
MMIX constants, advanced in blocks by exact jump-ahead in wrapping uint64
arithmetic, so identical seeds give identical uniforms on every platform.
Normals come from Box-Muller on consecutive uniform pairs (cosine branch
first) with libm's log, cos and sin: slower than a table method but exactly
specifiable.  This is a determinism tool for tests and demos, not a
Monte-Carlo-grade source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, isfinite, log, pi, sin

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

    def uniforms(self, n: int) -> np.ndarray:
        """Advance n steps; each new state / 2**64, rounded to nearest, in [0, 1]."""
        powers = np.multiply.accumulate(np.full(n, LCG_MULTIPLIER, dtype=np.uint64))
        sums = np.cumsum(powers) - powers + np.uint64(1)  # 1 + A + ... + A^(j-1)
        states = powers * np.uint64(self.state) + np.uint64(LCG_INCREMENT) * sums
        if n:
            self.state = int(states[-1])
        return states.astype(float) * _U64_SCALE

    def normals(self, n: int) -> np.ndarray:
        """n standard normals; an odd count's unused sine draw opens the next call.

        Only sqrt, * and max, which IEEE rounds exactly, are vectorised; libm's
        log, cos and sin are applied one value at a time.
        """
        head = [] if self._spare is None else [self._spare]
        u = self.uniforms(2 * ((n - len(head) + 1) // 2))
        logs = np.array(list(map(log, np.maximum(u[0::2], _MIN_UNIFORM).tolist())))
        angle = ((2.0 * pi) * u[1::2]).tolist()
        trig = np.array([list(map(cos, angle)), list(map(sin, angle))])
        out = np.concatenate([head, (np.sqrt(-2.0 * logs) * trig).T.ravel()])
        self._spare = float(out[n]) if len(out) > n else None
        return out[:n]


@dataclass(frozen=True)
class ProcessSpec:
    """Recipe for one synthetic process.

    kind: white_noise | random_walk | ar1 | var | cointegrated_pair.
    ar1 needs |phi| < 1; var needs square, equally sized, finite
    coefficient matrices; cointegrated_pair needs a finite beta and uses the
    positive, finite noise_scale on both idiosyncratic noise terms.
    """

    kind: str
    length: int
    seed: int
    phi: float | None = None
    coefficients: tuple | None = None
    beta: float | None = None
    noise_scale: float = 1.0


def generate(spec: ProcessSpec):
    """Materialize a ProcessSpec as a Series (univariate kinds) or Panel.

    Draw order is fixed per kind so every value is reproducible from the
    recurrence alone: univariate kinds consume one normal per period;
    var consumes one normal per component per period (column order);
    cointegrated_pair consumes the trend innovations first, then the x
    noise, then the y noise, each as a full-length block.
    """
    if spec.length < 10:
        raise InvalidSpec("length must be >= 10")
    rng = Rng(spec.seed)
    n = spec.length
    if spec.kind == "white_noise":
        return Series("white_noise", START, rng.normals(n))
    if spec.kind == "random_walk":
        return Series("random_walk", START, np.cumsum(rng.normals(n)))
    if spec.kind == "ar1":
        if spec.phi is None or not abs(spec.phi) < 1.0:
            raise InvalidSpec("ar1 needs |phi| < 1")
        x = rng.normals(n).tolist()
        for t in range(1, n):
            x[t] += spec.phi * x[t - 1]
        return Series("ar1", START, x)
    if spec.kind == "var":
        mats = [np.asarray(a, dtype=float) for a in spec.coefficients or ()]
        if not mats:
            raise InvalidSpec("var needs at least one coefficient matrix")
        square = mats[0].shape[:1] * 2  # (m, m) for a first matrix of m rows
        if any(a.ndim != 2 or a.shape != square for a in mats):
            raise InvalidSpec("var coefficient matrices must be square and equal-sized")
        if not np.isfinite(mats).all():
            raise InvalidSpec("var coefficients must be finite")
        m, _ = square
        x = rng.normals(n * m).reshape(n, m)
        for t in range(n):
            for j, a in enumerate(mats[:t], start=1):
                x[t] += a @ x[t - j]
        return Panel(tuple(f"y{i + 1}" for i in range(m)), START, x)
    if spec.kind == "cointegrated_pair":
        if spec.beta is None:
            raise InvalidSpec("cointegrated_pair needs beta")
        if not isfinite(spec.beta):
            raise InvalidSpec("beta must be finite")
        if not isfinite(spec.noise_scale):
            raise InvalidSpec("noise_scale must be finite")
        if spec.noise_scale <= 0.0:
            raise InvalidSpec("noise_scale must be positive")
        # x and y share the random-walk trend w, so y - beta*x is stationary by construction.
        w, eps, eta = rng.normals(3 * n).reshape(3, n)
        w = np.cumsum(w)
        x = w + spec.noise_scale * eps
        y = spec.beta * w + spec.noise_scale * eta
        return Panel(("x", "y"), START, np.column_stack([x, y]))
    raise InvalidSpec(f"unknown kind {spec.kind!r}")
