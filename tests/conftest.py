"""Shared helpers: independent oracles used across the test modules."""

import math

import numpy as np
import pytest

from longrun.series import Panel, Series

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
LCG_M = 2 ** 64


def lcg_states(seed: int, n: int):
    """Exact integer LCG stream, evaluated with Python big ints."""
    out = []
    state = seed % LCG_M
    for _ in range(n):
        state = (LCG_A * state + LCG_C) % LCG_M
        out.append(state)
    return out


def lcg_uniforms(seed: int, n: int):
    return [s / LCG_M for s in lcg_states(seed, n)]


def box_muller_normals(seed: int, n: int):
    """The first n normals of the stream, one Box-Muller pair at a time.

    Each pair of ``lcg_uniforms`` (u1 floored at 2**-64) gives the cosine
    draw, then the sine draw; this is the scalar recurrence the generator's
    block path must reproduce bit for bit.
    """
    out = []
    uniforms = lcg_uniforms(seed, 2 * ((n + 1) // 2))
    for u1, u2 in zip(uniforms[0::2], uniforms[1::2]):
        radius = math.sqrt(-2.0 * math.log(max(u1, 2.0 ** -64)))
        out += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    return out[:n]


def normal_eq_solve(X, y):
    """Normal-equations least squares (X'X)^-1 X'y, the brute-force oracle."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(X.T @ X, X.T @ y)


def make_series(values, name="s", start=(2000, 1)) -> Series:
    return Series(name, start, np.asarray(values, dtype=float))


def make_panel(*columns, labels=None, start=(2000, 1)) -> Panel:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    labels = tuple(labels) if labels else tuple(f"c{i}" for i in range(data.shape[1]))
    return Panel(labels, start, data)


def search_corpus():
    """Seeded walks, AR(1), cointegrated and causal series: two seeds up to 120 points, then one."""
    from longrun.synth import ProcessSpec, generate

    causal = (((0.0, 0.0), (0.8, 0.0)),)
    for n in (*range(21, 31), 60, 120, 500, 2000):
        for seed in (1, 2) if n <= 120 else (1,):
            yield generate(ProcessSpec(kind="random_walk", length=n, seed=seed)).values
            yield generate(ProcessSpec(kind="ar1", length=n, seed=seed, phi=0.5)).values
            pair = ProcessSpec(kind="cointegrated_pair", length=n, seed=seed, beta=2.0)
            yield from generate(pair).data.T
            yield from generate(ProcessSpec(kind="var", length=n, seed=seed,
                                            coefficients=causal)).data.T


@pytest.fixture
def walk_pair():
    """Two independent seeded random walks as a panel (length 500, seed 16)."""
    from longrun.synth import ProcessSpec, generate

    identity = ((1.0, 0.0), (0.0, 1.0))
    return generate(ProcessSpec(kind="var", length=500, seed=16, coefficients=(identity,)))


@pytest.fixture
def coint_pair():
    """Seeded cointegrated pair with slope 2 (length 500, seed 5)."""
    from longrun.synth import ProcessSpec, generate

    return generate(ProcessSpec(kind="cointegrated_pair", length=500, seed=5, beta=2.0))


@pytest.fixture
def qr_calls(monkeypatch):
    """Counts calls of ``np.linalg.qr`` made while the test runs; a one-item list."""
    calls = [0]
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls[0] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls
