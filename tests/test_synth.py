import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longrun.errors import InvalidSpec
from longrun.linalg import ols_fit
from longrun.series import Panel, Series
from longrun.synth import ProcessSpec, Rng, generate

from conftest import LCG_A, LCG_C, LCG_M, box_muller_normals, lcg_states, lcg_uniforms


def bits(values):
    """The float64 bytes of ``values``, so -0.0 and 0.0 compare unequal."""
    return np.asarray(values, dtype=float).tobytes()


def state_before(next_state: int) -> int:
    """The state whose next LCG step is ``next_state``: (next - C) A^-1 mod 2^64."""
    return ((next_state - LCG_C) * pow(LCG_A, -1, LCG_M)) % LCG_M


class TestRng:
    def test_equal_seeds_equal_streams(self):
        assert bits(Rng(123).uniforms(50)) == bits(Rng(123).uniforms(50))
        assert bits(Rng(9).normals(50)) == bits(Rng(9).normals(50))

    def test_first_uniform_seed42_big_integer_oracle(self):
        got = Rng(42).uniforms(1)[0]
        assert got == lcg_uniforms(42, 1)[0]
        assert got == 0.5682303266439077  # frozen from the exact recurrence

    def test_uniform_stream_matches_oracle(self):
        assert Rng(7).uniforms(200).tolist() == lcg_uniforms(7, 200)

    def test_uniform_range(self):
        u = Rng(0).uniforms(1000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_uniform_mean_seed1(self):
        assert abs(float(np.mean(Rng(1).uniforms(10 ** 5))) - 0.5) < 0.01

    def test_normal_variance_seed2(self):
        rng = Rng(2)
        draws = rng.normals(10 ** 5)
        assert abs(float(np.var(draws)) - 1.0) < 0.02

    def test_first_normal_seed3_by_hand_box_muller(self):
        u1, u2 = lcg_uniforms(3, 2)
        expected = math.sqrt(-2.0 * math.log(max(u1, 2.0 ** -64))) * math.cos(2.0 * math.pi * u2)
        got = Rng(3).normals(1)[0]
        assert got == expected
        assert got == -0.9455879416978901  # frozen from the oracle above

    def test_a_zero_uniform_takes_the_two_to_the_minus_64_floor(self):
        # the state whose next LCG step is exactly 0: (-C A^-1) mod 2^64
        state = state_before(0)
        u1, u2 = lcg_uniforms(state, 2)
        assert u1 == 0.0
        expected = math.sqrt(-2.0 * math.log(2.0 ** -64)) * math.cos(2.0 * math.pi * u2)
        assert Rng(state).normals(1)[0] == expected

    def test_normal_sine_branch_second(self):
        u1, u2 = lcg_uniforms(17, 2)
        r = math.sqrt(-2.0 * math.log(max(u1, 2.0 ** -64)))
        rng = Rng(17)
        assert rng.normals(1)[0] == r * math.cos(2.0 * math.pi * u2)
        assert rng.normals(1)[0] == r * math.sin(2.0 * math.pi * u2)
        assert Rng(17).normals(2).tolist() == [r * math.cos(2.0 * math.pi * u2),
                                               r * math.sin(2.0 * math.pi * u2)]


class TestBlockStream:
    """The block path against the scalar big-integer and Box-Muller oracles."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(0, LCG_M - 1), st.integers(-2 ** 80, 2 ** 80)),
           st.lists(st.one_of(st.integers(0, 5), st.integers(0, 300)), max_size=6))
    @example(0, [0, 1, 0, 2, 3])
    @example(LCG_M - 1, [1, 1, 1])
    @example(-1, [7])
    @example(LCG_M + 5, [0])
    def test_normals_in_any_call_sizes_are_the_scalar_stream(self, seed, sizes):
        rng = Rng(seed)
        got = [rng.normals(k) for k in sizes]
        assert [len(g) for g in got] == sizes
        total = sum(sizes)
        assert bits(np.concatenate([np.empty(0), *got])) == bits(box_muller_normals(seed, total))
        uniforms_used = 2 * ((total + 1) // 2)
        assert rng.state == (lcg_states(seed, uniforms_used)[-1] if total else seed % LCG_M)
        assert type(rng.state) is int
        # an odd total leaves the pair's sine draw for the next call
        assert bits(rng.normals(1)) == bits(box_muller_normals(seed, total + 1)[total:])

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.integers(0, LCG_M - 1), st.integers(-2 ** 80, 2 ** 80)),
           st.lists(st.integers(0, 40), max_size=5))
    def test_uniforms_in_any_call_sizes_are_the_big_integer_stream(self, seed, sizes):
        rng = Rng(seed)
        got = np.concatenate([np.empty(0), *(rng.uniforms(k) for k in sizes)])
        assert got.tolist() == lcg_uniforms(seed, sum(sizes))
        assert rng.state == ([seed % LCG_M] + lcg_states(seed, sum(sizes)))[-1]

    @pytest.mark.parametrize("next_state, expected", [
        (2 ** 63 + 2 ** 10, 0.5),                           # half-way, even neighbour below: down
        (2 ** 63 + 3 * 2 ** 10, 0.5 + 2.0 ** -52),          # half-way, even neighbour above: up
        (2 ** 62 + 2 ** 9, 0.25),                           # the same one binade lower: down
        (2 ** 62 + 3 * 2 ** 9, 0.25 + 2.0 ** -53),          # and up
        (LCG_M - 2 ** 10, 1.0),                             # the first state that rounds to 1
        (LCG_M - 2 ** 10 - 1, 1.0 - 2.0 ** -53),            # and the last one below it
        (LCG_M - 1, 1.0),
    ])
    def test_rounding_ties_and_the_top_states(self, next_state, expected):
        state = state_before(next_state)
        assert Rng(state).uniforms(1).tolist() == [expected] == lcg_uniforms(state, 1)
        assert bits(Rng(state).normals(3)) == bits(box_muller_normals(state, 3))

    def test_a_long_block_rounds_its_ties_like_the_big_integers(self):
        # states of 2^63 and up tie at a rate of 2^-11, so this block holds ties
        # of both parities; they go through the same vectorised conversion
        states = lcg_states(5, 20000)
        ties = [s >> 11 & 1 for s in states if s >= 2 ** 63 and s & (2 ** 11 - 1) == 2 ** 10]
        assert 0 in ties and 1 in ties
        assert Rng(5).uniforms(20000).tolist() == [s / LCG_M for s in states]

    def test_the_top_state_is_a_masked_seed(self):
        assert Rng(-1).state == Rng(LCG_M - 1).state == LCG_M - 1
        assert bits(Rng(-1).normals(5)) == bits(box_muller_normals(LCG_M - 1, 5))


def scalar_generate(spec):
    """Each kind's recurrence, one period at a time, on the oracle's normals."""
    n = spec.length
    if spec.kind == "var":
        mats = [np.asarray(a, dtype=float) for a in spec.coefficients]
        m = mats[0].shape[0]
        eps = box_muller_normals(spec.seed, n * m)
        x = np.zeros((n, m))
        for t in range(n):
            acc = np.array(eps[t * m:(t + 1) * m])
            for j, a in enumerate(mats, start=1):
                if t - j >= 0:
                    acc = acc + a @ x[t - j]
            x[t] = acc
        return x
    if spec.kind == "cointegrated_pair":
        e = box_muller_normals(spec.seed, 3 * n)
        w = list(itertools.accumulate(e[:n]))
        return np.column_stack([[wt + spec.noise_scale * v for wt, v in zip(w, e[n:2 * n])],
                                [spec.beta * wt + spec.noise_scale * v
                                 for wt, v in zip(w, e[2 * n:])]])
    e = box_muller_normals(spec.seed, n)
    if spec.kind == "white_noise":
        return e
    if spec.kind == "random_walk":
        return list(itertools.accumulate(e))
    x = [e[0]]
    for t in range(1, n):
        x.append(spec.phi * x[-1] + e[t])
    return x


class TestGenerateAgainstTheScalarRecurrence:
    @pytest.mark.parametrize("length", [10, 11, 97])
    @pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
    @pytest.mark.parametrize("fields", [
        {"kind": "white_noise"},
        {"kind": "random_walk"},
        {"kind": "ar1", "phi": -0.7},
        {"kind": "var", "coefficients": (((0.3, 0.1), (0.0, 0.6)),)},
        {"kind": "var", "coefficients": (((0.2, 0.1, 0.0), (0.0, 0.3, 0.1), (0.1, 0.0, 0.2)),
                                         ((0.1, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.1)))},
        {"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": 0.3},
    ], ids=["white_noise", "random_walk", "ar1", "var1", "var2_m3", "cointegrated_pair"])
    def test_bit_identical(self, fields, seed, length):
        spec = ProcessSpec(length=length, seed=seed, **fields)
        got = generate(spec)
        assert bits(got.data if isinstance(got, Panel) else got.values) == bits(scalar_generate(spec))


class TestGenerate:
    def test_same_spec_identical_output(self):
        spec = ProcessSpec(kind="random_walk", length=50, seed=12)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.values, b.values)

    def test_white_noise_is_series(self):
        s = generate(ProcessSpec(kind="white_noise", length=20, seed=1))
        assert isinstance(s, Series) and len(s) == 20

    def test_random_walk_diff_recovers_innovations(self):
        n = 200
        walk = generate(ProcessSpec(kind="random_walk", length=n, seed=31))
        eps = Rng(31).normals(n)
        assert len(walk) == n
        assert np.diff(walk.values) == pytest.approx(eps[1:], abs=1e-12)
        assert walk.values[0] == eps[0]

    def test_ar1_zero_phi_is_uncorrelated(self):
        s = generate(ProcessSpec(kind="ar1", length=10 ** 4, seed=4, phi=0.0))
        x = s.values - s.values.mean()
        rho1 = float(x[1:] @ x[:-1] / (x @ x))
        assert abs(rho1) < 0.05

    def test_cointegrated_pair_slope_via_ols(self):
        panel = generate(ProcessSpec(kind="cointegrated_pair", length=500, seed=5, beta=2.0))
        x, y = panel.data.T
        fit = ols_fit(np.column_stack([np.ones(len(x)), x]), y)
        assert abs(fit.coefficients[1] - 2.0) < 0.1

    @pytest.mark.parametrize("seed", [5, 23])
    def test_cointegration_residual_is_stationary(self, seed):
        panel = generate(ProcessSpec(kind="cointegrated_pair", length=500, seed=seed, beta=2.0))
        x, y = panel.data.T
        resid = y - 2.0 * x
        r = resid - resid.mean()
        assert abs(float(r[1:] @ r[:-1] / (r @ r))) < 0.5

    def test_var_shape_and_determinism(self):
        spec = ProcessSpec(kind="var", length=60, seed=10,
                           coefficients=(((0.5, 0.0), (0.0, 0.5)),))
        panel = generate(spec)
        assert isinstance(panel, Panel)
        assert panel.data.shape == (60, 2)
        assert np.array_equal(panel.data, generate(spec).data)

    def test_var_recursion_matches_by_hand(self):
        a1 = ((0.3, 0.1), (0.0, 0.6))
        panel = generate(ProcessSpec(kind="var", length=40, seed=44, coefficients=(a1,)))
        eps = Rng(44).normals(80).reshape(40, 2)
        A = np.array(a1)
        x = np.zeros((40, 2))
        for t in range(40):
            x[t] = eps[t] if t == 0 else A @ x[t - 1] + eps[t]
        assert panel.data == pytest.approx(x, abs=1e-14)

    def test_invalid_specs(self):
        square = ((0.5, 0.0), (0.0, 0.5))
        for fields, message in [
            ({"kind": "white_noise", "length": 5}, "length must be >= 10"),
            ({"kind": "ar1", "phi": 1.0}, r"ar1 needs \|phi\| < 1"),
            ({"kind": "var"}, "var needs at least one coefficient matrix"),
            ({"kind": "var", "coefficients": (square, ((0.5,),))},
             "var coefficient matrices must be square and equal-sized"),
            ({"kind": "var", "coefficients": (((0.5, 0.0, 0.1), (0.0, 0.5, 0.1)),)},
             "var coefficient matrices must be square and equal-sized"),
            ({"kind": "var", "coefficients": (0.5,)},
             "var coefficient matrices must be square and equal-sized"),
            ({"kind": "var", "coefficients": ((0.5, 0.0),)},
             "var coefficient matrices must be square and equal-sized"),
            ({"kind": "var", "coefficients": ((((0.5,),),),)},
             "var coefficient matrices must be square and equal-sized"),
            ({"kind": "cointegrated_pair"}, "cointegrated_pair needs beta"),
            ({"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": 0.0},
             "noise_scale must be positive"),
            ({"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": -1.0},
             "noise_scale must be positive"),
            ({"kind": "var", "coefficients": (((0.5, math.nan), (0.0, 0.5)),)},
             "var coefficients must be finite"),
            ({"kind": "var", "coefficients": (square, ((0.5, 0.0), (math.inf, 0.5)))},
             "var coefficients must be finite"),
            ({"kind": "cointegrated_pair", "beta": math.nan}, "beta must be finite"),
            ({"kind": "cointegrated_pair", "beta": -math.inf}, "beta must be finite"),
            ({"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": math.nan},
             "noise_scale must be finite"),
            ({"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": math.inf},
             "noise_scale must be finite"),
            ({"kind": "brownian"}, "unknown kind 'brownian'"),
        ]:
            with pytest.raises(InvalidSpec, match=f"^{message}$"):
                generate(ProcessSpec(**{"length": 20, "seed": 1, **fields}))
