import math

import numpy as np
import pytest

from longrun.errors import InvalidSpec
from longrun.linalg import ols_fit
from longrun.series import Panel, Series
from longrun.synth import ProcessSpec, Rng, generate

from conftest import LCG_A, LCG_C, LCG_M, lcg_uniforms


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(123), Rng(123)
        assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
        a, b = Rng(9), Rng(9)
        assert [a.normal() for _ in range(50)] == [b.normal() for _ in range(50)]

    def test_first_uniform_seed42_big_integer_oracle(self):
        got = Rng(42).uniform()
        assert got == lcg_uniforms(42, 1)[0]
        assert got == 0.5682303266439077  # frozen from the exact recurrence

    def test_uniform_stream_matches_oracle(self):
        rng = Rng(7)
        assert [rng.uniform() for _ in range(200)] == lcg_uniforms(7, 200)

    def test_uniform_range(self):
        rng = Rng(0)
        assert all(0.0 <= rng.uniform() < 1.0 for _ in range(1000))

    def test_uniform_mean_seed1(self):
        rng = Rng(1)
        mean = sum(rng.uniform() for _ in range(10 ** 5)) / 10 ** 5
        assert abs(mean - 0.5) < 0.01

    def test_normal_variance_seed2(self):
        rng = Rng(2)
        draws = rng.normals(10 ** 5)
        assert abs(float(np.var(draws)) - 1.0) < 0.02

    def test_first_normal_seed3_by_hand_box_muller(self):
        u1, u2 = lcg_uniforms(3, 2)
        expected = math.sqrt(-2.0 * math.log(max(u1, 2.0 ** -64))) * math.cos(2.0 * math.pi * u2)
        got = Rng(3).normal()
        assert got == expected
        assert got == -0.9455879416978901  # frozen from the oracle above

    def test_a_zero_uniform_takes_the_two_to_the_minus_64_floor(self):
        # the state whose next LCG step is exactly 0: (-C A^-1) mod 2^64
        state = (-LCG_C * pow(LCG_A, -1, LCG_M)) % LCG_M
        u1, u2 = lcg_uniforms(state, 2)
        assert u1 == 0.0
        expected = math.sqrt(-2.0 * math.log(2.0 ** -64)) * math.cos(2.0 * math.pi * u2)
        assert Rng(state).normal() == expected

    def test_normal_sine_branch_second(self):
        u1, u2 = lcg_uniforms(17, 2)
        r = math.sqrt(-2.0 * math.log(max(u1, 2.0 ** -64)))
        rng = Rng(17)
        assert rng.normal() == r * math.cos(2.0 * math.pi * u2)
        assert rng.normal() == r * math.sin(2.0 * math.pi * u2)


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
        rng = Rng(44)
        A = np.array(a1)
        x = np.zeros((40, 2))
        for t in range(40):
            eps = np.array([rng.normal(), rng.normal()])
            x[t] = eps if t == 0 else A @ x[t - 1] + eps
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
            ({"kind": "cointegrated_pair"}, "cointegrated_pair needs beta"),
            ({"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": 0.0},
             "noise_scale must be positive"),
            ({"kind": "cointegrated_pair", "beta": 2.0, "noise_scale": -1.0},
             "noise_scale must be positive"),
            ({"kind": "brownian"}, "unknown kind 'brownian'"),
        ]:
            with pytest.raises(InvalidSpec, match=f"^{message}$"):
                generate(ProcessSpec(**{"length": 20, "seed": 1, **fields}))
