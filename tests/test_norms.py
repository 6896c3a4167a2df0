import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octantheat import (
    FrequencyField,
    NormFlavor,
    NormSpec,
    SpaceTimeField,
    TimeSpaceNormSpec,
    make_grid,
    static_norm,
    timespace_norm,
)


def indicator(grid, lo, hi, amp=1.0):
    vals = np.ones(grid.shape, dtype=complex) * amp
    for c in grid.coords():
        vals = vals * ((c >= lo - 1e-12) & (c < hi - 1e-12))
    return FrequencyField(grid, vals)


def rng_field(grid, seed):
    rng = np.random.default_rng(seed)
    return FrequencyField(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )


def const_traj(f, T=1.0, nt=9):
    tg = np.linspace(0.0, T, nt)
    return SpaceTimeField(f.grid, tg, np.broadcast_to(
        f.values[None, ...], (nt, *f.grid.shape)).copy())


class TestStaticNorm:
    def test_exp_weight_on_unit_indicator_analytic(self):
        # || 2^{-|xi|} chi_[0,1) ||_{L2}^2 = int_0^1 4^{-xi} d xi
        #                                 = (4^{-1} - 1) / (-2 ln 2)
        exact = math.sqrt((0.25 - 1.0) / (-2.0 * math.log(2.0)))
        assert exact == pytest.approx(0.7355, abs=5e-5)
        errs = {}
        for h in (1 / 64, 1 / 256):
            g = make_grid(1, 4, h)
            f = indicator(g, 0.0, 1.0)
            got = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s=-1.0, sigma=0.0))
            errs[h] = abs(got - exact)
        assert errs[1 / 64] < 5e-3
        assert errs[1 / 256] < 0.3 * errs[1 / 64]  # refined Riemann cross-check

    def test_unweighted_is_plain_l2(self):
        g = make_grid(2, 2, 0.25)
        f = rng_field(g, 1)
        plain = math.sqrt(np.sum(np.abs(f.values) ** 2) * g.h**g.d)
        for spec in (NormSpec(NormFlavor.ES_INTEGRAL, 0.0, 0.0),
                     NormSpec(NormFlavor.ES_LATTICE, 0.0, 0.0),
                     NormSpec(NormFlavor.HSIGMA, sigma=0.0)):
            assert static_norm(f, spec) == pytest.approx(plain, rel=1e-12)

    def test_zero_field_all_flavors(self):
        g = make_grid(1, 2, 0.5)
        z = FrequencyField(g, np.zeros(g.shape))
        for spec in (NormSpec(NormFlavor.ES_INTEGRAL, -1.0, 1.0),
                     NormSpec(NormFlavor.ES_LATTICE, -1.0, 1.0),
                     NormSpec(NormFlavor.E21, s=-1.0),
                     NormSpec(NormFlavor.HSIGMA, sigma=1.0)):
            assert static_norm(z, spec) == 0.0

    def test_hsigma_refuses_s(self):
        # HSIGMA reads no s: a given one is refused, an absent one is 0.0,
        # and the norm is ES_INTEGRAL's at s = 0 bitwise
        with pytest.raises(ValueError, match="s is not a parameter of the HSIGMA norm"):
            NormSpec(NormFlavor.HSIGMA, s=-1.0, sigma=0.5)
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, 2)
        a = static_norm(f, NormSpec(NormFlavor.HSIGMA, sigma=0.5))
        b = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s=0.0, sigma=0.5))
        assert a == b

    def test_e21_refuses_sigma(self):
        # E21 reads no sigma: a given one is refused, an absent one is 0.0
        # (and a given s of -0.0 keeps its sign), and the norm is the plain
        # weighted cube sum
        for sigma in (0.0, 3.0):
            with pytest.raises(ValueError, match="sigma is not a parameter of the E21"):
                NormSpec(NormFlavor.E21, s=-1.0, sigma=sigma)
        spec = NormSpec(NormFlavor.E21, s=-0.0)
        assert spec.sigma == 0.0 and math.copysign(1.0, spec.s) == -1.0
        from octantheat.lattice import cube_l2_table
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, 3)
        a = static_norm(f, NormSpec(NormFlavor.E21, s=-1.0))
        b = float(np.sum(2.0 ** -g.lattice_l1() * cube_l2_table(f.values, g)))
        assert a == b


class TestNormProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2]),
           st.sampled_from([-2.0, -1.0, -0.5]), st.sampled_from([-1.0, 0.0, 1.5]))
    def test_lattice_integral_equivalence(self, seed, d, s, sigma):
        g = make_grid(d, 3, 0.25)
        f = rng_field(g, seed)
        lat = static_norm(f, NormSpec(NormFlavor.ES_LATTICE, s, sigma))
        integ = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s, sigma))
        C = 2.0 ** (abs(s) * d) * (1.0 + math.sqrt(d)) ** abs(sigma)
        assert lat <= C * integ * (1 + 1e-12)
        assert integ <= C * lat * (1 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.sampled_from([(-2.0, -1.0), (-1.0, -0.25), (-3.0, 0.0)]))
    def test_monotone_in_exponential_weight(self, seed, pair):
        s_low, s_high = pair
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, seed)
        lo = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s_low, 0.5))
        hi = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s_high, 0.5))
        assert lo <= hi * (1 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([-1.0, 0.0, 1.0]),
           st.sampled_from([0.0, 2.0]))
    def test_sobolev_embeds_with_explicit_constant(self, seed, sigma, r):
        s = -1.0
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, seed)
        weight = (1.0 + g.euclid_sq()) ** ((sigma - r) / 2.0) * 2.0 ** (s * g.l1())
        C = float(weight.max())
        lhs = static_norm(f, NormSpec(NormFlavor.ES_INTEGRAL, s, sigma))
        rhs = static_norm(f, NormSpec(NormFlavor.HSIGMA, sigma=r))
        assert lhs <= C * rhs * (1 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_e21_between_weighted_l2_scales(self, seed):
        s = -1.0
        g = make_grid(2, 3, 0.5)
        f = rng_field(g, seed)
        e21 = static_norm(f, NormSpec(NormFlavor.E21, s))
        low = static_norm(f, NormSpec(NormFlavor.ES_LATTICE, s, -0.5))
        high = static_norm(f, NormSpec(NormFlavor.ES_LATTICE, s, 1.5))
        C = math.sqrt(float(np.sum(g.lattice_bracket() ** (-2 * 1.5))))
        assert low <= e21 * (1 + 1e-12)
        assert e21 <= C * high * (1 + 1e-12)


class TestCubeTable:
    def test_matches_explicit_projections(self):
        from octantheat.lattice import cube_l2_table

        g = make_grid(2, 3, 0.25)
        ns = g.n_sub
        f = rng_field(g, 13)
        table = cube_l2_table(f.values, g)
        for k0 in range(3):
            for k1 in range(3):
                cube = f.values[k0 * ns:(k0 + 1) * ns, k1 * ns:(k1 + 1) * ns]
                explicit = math.sqrt(np.sum(np.abs(cube) ** 2) * g.h**2)
                assert table[k0, k1] == pytest.approx(explicit, rel=1e-13)


class TestTimeSpaceNorm:
    def test_constant_trajectory_sup_equals_static(self):
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, 5)
        u = const_traj(f, T=2.0)
        ts = timespace_norm(u, TimeSpaceNormSpec(math.inf, 2, -1.0, 0.5))
        stat = static_norm(f, NormSpec(NormFlavor.ES_LATTICE, -1.0, 0.5))
        assert ts == pytest.approx(stat, rel=1e-12)

    def test_constant_trajectory_l1_scales_with_horizon(self):
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, 6)
        T = 2.5
        u = const_traj(f, T=T)
        ts = timespace_norm(u, TimeSpaceNormSpec(1.0, 2, -1.0, 0.5))
        stat = static_norm(f, NormSpec(NormFlavor.ES_LATTICE, -1.0, 0.5))
        assert ts == pytest.approx(T * stat, rel=1e-12)

    def test_single_cube_explicit_value(self):
        g = make_grid(1, 4, 0.25)
        f = indicator(g, 2.0, 3.0, amp=2.0)
        u = const_traj(f)
        s, sigma = -1.0, 1.5
        got = timespace_norm(u, TimeSpaceNormSpec(math.inf, 2, s, sigma))
        cube_l2 = math.sqrt(np.sum(np.abs(f.values) ** 2) * g.h)
        expect = 2.0 ** (s * 2) * (1 + 4.0) ** (sigma / 2) * cube_l2
        assert got == pytest.approx(expect, rel=1e-12)

    def test_exclude_zero_subset(self):
        # leaving out cube 0 is zeroing the trajectory there
        g = make_grid(1, 4, 0.25)
        f = indicator(g, 0.0, 1.0)
        u = const_traj(FrequencyField(g, np.where(g.axis < 1.0, 0.0, f.values)))
        assert timespace_norm(u, TimeSpaceNormSpec(math.inf, 2, -1.0, 0.0)) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([2.0, 3.0, 5.0]))
    def test_hoelder_interpolation_between_l1_and_sup(self, seed, gamma):
        # || u ||_{gamma, sigma + 2/gamma} <= ||u||_{1, sigma+2}^{1/gamma}
        #                                     ||u||_{inf, sigma}^{1-1/gamma}
        g = make_grid(1, 4, 0.25)
        rng = np.random.default_rng(seed)
        nt = 17
        tg = np.linspace(0.0, 1.0, nt)
        vals = (rng.standard_normal((nt, g.n)) +
                1j * rng.standard_normal((nt, g.n)))
        u = SpaceTimeField(g, tg, vals)
        s, sigma = -1.0, 0.0
        mid = timespace_norm(u, TimeSpaceNormSpec(gamma, 2, s, sigma + 2 / gamma))
        one = timespace_norm(u, TimeSpaceNormSpec(1.0, 2, s, sigma + 2.0))
        sup = timespace_norm(u, TimeSpaceNormSpec(math.inf, 2, s, sigma))
        assert mid <= one ** (1 / gamma) * sup ** (1 - 1 / gamma) * (1 + 1e-9)


def sup_l1(s):
    """The sup-in-time l1 norm sum_k 2^{s|k|} sup_t ||u||_{L2(Q_k)}."""
    return TimeSpaceNormSpec(math.inf, 1, s)


class TestWeightedL1SeqNorm:
    def test_zero(self):
        g = make_grid(1, 4, 0.25)
        u = const_traj(FrequencyField(g, np.zeros(g.shape)))
        assert timespace_norm(u, sup_l1(-1.0)) == 0.0

    def test_single_cube(self):
        g = make_grid(1, 4, 0.25)
        f = indicator(g, 3.0, 4.0, amp=1.5)
        u = const_traj(f)
        cube_l2 = math.sqrt(np.sum(np.abs(f.values) ** 2) * g.h)
        assert timespace_norm(u, sup_l1(-1.0)) == \
            pytest.approx(2.0 ** (-3.0) * cube_l2, rel=1e-12)

    def test_two_disjoint_cubes_additive(self):
        g = make_grid(1, 4, 0.25)
        f1 = indicator(g, 1.0, 2.0)
        f2 = indicator(g, 3.0, 4.0, amp=0.5)
        both = FrequencyField(g, f1.values + f2.values)
        e21 = NormSpec(NormFlavor.E21, -0.75)
        assert static_norm(both, e21) == pytest.approx(
            static_norm(f1, e21) + static_norm(f2, e21), rel=1e-12
        )

    def test_accepts_static_field(self):
        # a single field's E21 norm is the norm of its constant trajectory
        g = make_grid(1, 2, 0.5)
        f = rng_field(g, 7)
        assert static_norm(f, NormSpec(NormFlavor.E21, -1.0)) == \
            pytest.approx(timespace_norm(const_traj(f), sup_l1(-1.0)), rel=1e-12)


class TestSpecValidation:
    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            TimeSpaceNormSpec(0.5, 2)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            TimeSpaceNormSpec(1.0, 3)

    def test_nonuniform_tgrid_rejected(self):
        g = make_grid(1, 2, 0.5)
        with pytest.raises(ValueError):
            SpaceTimeField(g, np.array([0.0, 0.5, 0.7]),
                           np.zeros((3, *g.shape), dtype=complex))
