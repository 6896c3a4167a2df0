import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len
from scipy.signal import convolve as sig_convolve

from octantheat import (
    FrequencyField,
    box_project,
    convolve,
    convolve_frames,
    convolve_power,
    load_field,
    make_grid,
    save_field,
    support_stats,
)
from octantheat import lattice
from octantheat.lattice import RULES, _rule_terms


def indicator(grid, lo, hi, amp=1.0):
    vals = np.ones(grid.shape, dtype=complex) * amp
    for c in grid.coords():
        vals = vals * ((c >= lo - 1e-12) & (c < hi - 1e-12))
    return FrequencyField(grid, vals)


def rng_field(grid, seed, sparse=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if sparse:
        vals = vals * (rng.random(grid.shape) < 0.3)
    return FrequencyField(grid, vals)


grids = st.builds(
    make_grid,
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1.0, 0.5, 0.25]),
)


class TestMakeGrid:
    def test_point_count_1d(self):
        g = make_grid(1, 4, 0.25)
        assert g.n == 16
        assert np.allclose(g.axis, np.arange(16) * 0.25)
        assert g.axis[-1] == 3.75

    def test_point_count_2d(self):
        g = make_grid(2, 2, 0.5)
        assert g.shape == (4, 4)
        assert np.prod(g.shape) == 16

    def test_rejects_misaligned_spacing(self):
        with pytest.raises(ValueError):
            make_grid(1, 4, 0.3)

    def test_rejects_bad_extent_and_dim(self):
        with pytest.raises(ValueError):
            make_grid(1, 0, 0.5)
        with pytest.raises(ValueError):
            make_grid(4, 2, 0.5)


class TestBoxProject:
    def test_support_inside_cube_unchanged(self):
        g = make_grid(1, 4, 0.25)
        f = indicator(g, 0.0, 1.0)
        p = box_project(f, 0)
        assert np.array_equal(p.values, f.values)

    def test_disjoint_cube_zero(self):
        g = make_grid(1, 8, 0.25)
        f = indicator(g, 0.0, 1.0)
        assert not box_project(f, 5).values.any()

    def test_half_open_cube_convention(self):
        g = make_grid(1, 4, 0.25)
        f = indicator(g, 0.5, 1.5)
        p = box_project(f, 0)
        expect = indicator(g, 0.5, 1.0)
        assert np.array_equal(p.values, expect.values)

    def test_out_of_range_is_zero(self):
        g = make_grid(1, 2, 0.5)
        f = indicator(g, 0.0, 2.0)
        assert not box_project(f, 7).values.any()
        assert not box_project(f, -1).values.any()

    @settings(max_examples=25, deadline=None)
    @given(grids, st.integers(0, 2**31 - 1))
    def test_partition_of_unity_bitwise(self, g, seed):
        f = rng_field(g, seed)
        total = np.zeros(g.shape, dtype=complex)
        for idx in np.ndindex((g.xi_max,) * g.d):
            total = total + box_project(f, idx).values
        assert np.array_equal(total, f.values)


class TestConvolve:
    def test_power_one_is_identity(self):
        g = make_grid(1, 4, 0.125)
        f = rng_field(g, 3)
        out = convolve_power(f, 1)
        assert np.array_equal(out.values, f.values)

    def test_triangle_profile_analytic_overlap(self):
        # (chi_[1,1.5) * chi_[1,1.5))(xi) equals the overlap length:
        # a hat on [2, 3] with peak 0.5 at 2.5.  The left-edge Riemann sum
        # reproduces it to O(h); a refined grid must halve the defect.
        errs = {}
        for h in (1 / 32, 1 / 64):
            g = make_grid(1, 4, h)
            f = indicator(g, 1.0, 1.5)
            c = convolve_power(f, 2, warn_on_truncation=False)
            xi = g.axis
            hat = np.clip(np.minimum(xi - 2.0, 3.0 - xi), 0.0, 0.5)
            errs[h] = np.abs(c.values.real - hat).max()
            peak = c.values[int(round(2.5 / h))].real
            assert peak == pytest.approx(0.5, abs=2.5 * h)
        assert errs[1 / 64] < 0.75 * errs[1 / 32]

    def test_support_arithmetic(self):
        g = make_grid(1, 8, 0.125)
        f = indicator(g, 0.5, 1.0)
        for m in (2, 3, 4):
            c = convolve_power(f, m, warn_on_truncation=False)
            nz = np.nonzero(c.values)[0] * g.h
            assert nz.min() == pytest.approx(m * 0.5, abs=1e-12)
            assert nz.max() == pytest.approx(m * 1.0 - m * g.h, abs=1e-12)

    @pytest.mark.parametrize("d,xi_max,h", [(1, 6, 0.25), (2, 3, 0.25), (3, 2, 0.5)])
    @pytest.mark.parametrize("rule", ["riemann", "trapezoid"])
    def test_power_matches_repeated_pairwise(self, rule, d, xi_max, h):
        g = make_grid(d, xi_max, h)
        f = rng_field(g, 11, sparse=rule == "trapezoid")
        p3 = convolve_power(f, 3, rule, warn_on_truncation=False)
        two = convolve(f, f, rule, warn_on_truncation=False)
        three = convolve(two, f, rule, warn_on_truncation=False)
        assert np.array_equal(p3.values, three.values)

    def test_truncation_warning(self):
        g = make_grid(1, 2, 0.25)
        f = indicator(g, 1.0, 2.0)
        with pytest.warns(RuntimeWarning, match="xi_max"):
            convolve_power(f, 2)

    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(0, 2**31 - 1))
    def test_support_containment_exact(self, g, seed):
        f = rng_field(g, seed, sparse=True)
        h = rng_field(g, seed + 1, sparse=True)
        c = convolve(f, h, warn_on_truncation=False)
        # supp(f*g) subset supp f + supp g, no wraparound
        mask = np.zeros(tuple(2 * n - 1 for n in g.shape), dtype=bool)
        fi = np.argwhere(f.values != 0)
        hi = np.argwhere(h.values != 0)
        for a in fi:
            for b in hi:
                mask[tuple(a + b)] = True
        allowed = mask[tuple(slice(0, n) for n in g.shape)]
        assert not np.any((c.values != 0) & ~allowed)

    def test_single_cube_window(self):
        # projecting a convolution of m unit-cube fields onto cube k gives
        # zero whenever |k - sum k_i|_inf > m + 1
        g = make_grid(1, 8, 0.5)
        f1 = indicator(g, 1.0, 2.0)
        f2 = indicator(g, 2.0, 3.0)
        c = convolve(f1, f2, warn_on_truncation=False)
        for k in range(8):
            proj = box_project(c, k)
            if abs(k - 3) > 3:  # m = 2
                assert not proj.values.any()
        assert box_project(c, 3).values.any()

    def test_fft_path_matches_direct(self):
        g = make_grid(2, 2, 0.25)
        f = rng_field(g, 5, sparse=True)
        h = rng_field(g, 6, sparse=True)
        for rule in ("riemann", "trapezoid"):
            a = convolve(f, h, rule=rule, warn_on_truncation=False).values
            b = convolve_frames(f.values[None], h.values[None], g, rule)[0]
            scale = np.abs(a).max() or 1.0
            assert np.abs(a - b).max() <= 1e-12 * scale
            # the FFT path must keep exact support semantics
            assert np.array_equal(a != 0, b != 0)

    def test_trapezoid_rule_second_order_on_smooth_support(self):
        # convolving heat-damped half-line data: trapezoid weighting
        # converges at O(h^2) where the plain sum is O(h).  The exact value
        # comes from Gauss-Legendre quadrature of the overlap integral.
        x = 2.5
        nodes, wts = np.polynomial.legendre.leggauss(64)
        eta = 0.25 * nodes + 1.25  # overlap interval [1, x-1]
        exact = 0.25 * np.sum(
            wts * np.exp(-0.3 * (eta**2 + (x - eta) ** 2) + x)
        )

        def defect(h, rule):
            g = make_grid(1, 4, h)
            xi = g.axis
            f = FrequencyField(g, np.exp(-0.3 * xi**2 + xi) * (xi >= 1.0))
            c = convolve(f, f, rule=rule, warn_on_truncation=False)
            return abs(c.values[int(round(x / h))].real - exact)

        d1, d2 = defect(1 / 32, "trapezoid"), defect(1 / 64, "trapezoid")
        assert d2 < d1 / 3.0
        assert defect(1 / 64, "trapezoid") < 0.05 * defect(1 / 64, "riemann")

    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(0, 2**31 - 1))
    def test_commutative(self, g, seed):
        f = rng_field(g, seed, sparse=True)
        h = rng_field(g, seed + 1, sparse=True)
        a = convolve(f, h, warn_on_truncation=False).values
        b = convolve(h, f, warn_on_truncation=False).values
        scale = np.abs(a).max() or 1.0
        assert np.abs(a - b).max() <= 1e-13 * scale

    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(0, 2**31 - 1))
    def test_bilinear(self, g, seed):
        f1 = rng_field(g, seed)
        f2 = rng_field(g, seed + 1)
        h = rng_field(g, seed + 2, sparse=True)
        lhs = convolve(
            FrequencyField(g, f1.values + 2j * f2.values), h,
            warn_on_truncation=False,
        ).values
        rhs = convolve(f1, h, warn_on_truncation=False).values + \
            2j * convolve(f2, h, warn_on_truncation=False).values
        scale = np.abs(rhs).max() or 1.0
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_rejects_mismatched_grids(self):
        f = rng_field(make_grid(1, 2, 0.5), 0)
        g = rng_field(make_grid(1, 4, 0.5), 0)
        with pytest.raises(ValueError):
            convolve(f, g)


frame_grids = st.one_of(
    st.builds(make_grid, st.just(1), st.sampled_from([1, 2, 4]),
              st.sampled_from([0.5, 0.25, 0.125])),
    st.builds(make_grid, st.just(2), st.sampled_from([1, 2, 3]),
              st.sampled_from([0.5, 0.25])),
    st.builds(make_grid, st.just(3), st.sampled_from([1, 2]),
              st.sampled_from([1.0, 0.5])),
)


def direct_frames(a, b, grid, rule):
    """Per-frame direct convolution, the reference for convolve_frames."""
    return np.stack([
        convolve(FrequencyField(grid, x), FrequencyField(grid, y), rule=rule,
                 warn_on_truncation=False).values
        for x, y in zip(a, b)
    ])


def sparse_stack(grid, nt, rng, density, shared):
    """Complex frames on a random support (one support for all frames when
    ``shared``); about a quarter of the frames are emptied."""
    shape = (nt, *grid.shape)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals = vals * (rng.random(grid.shape if shared else shape) < density)
    vals[rng.random(nt) < 0.25] = 0.0
    return vals


def unboxed_direct(f, g, grid, rule):
    """The unboxed direct sum, the reference for the planned kernel: every
    rule term convolved over the whole grid by scipy's direct method and
    truncated to [0, n), and whether the terms' combinatorial support (their
    count convolution) reaches past n."""
    terms, weight = _rule_terms(f, g, rule)
    full = np.zeros(tuple(2 * n - 1 for n in grid.shape), dtype=np.complex128)
    counts = np.zeros(full.shape)
    for fm, gm in terms:
        full = full + sig_convolve(fm, gm, mode="full", method="direct")
        counts += sig_convolve((fm != 0) * 1.0, (gm != 0) * 1.0, method="direct")
    full *= grid.h**grid.d * weight
    cut = tuple(slice(0, n) for n in grid.shape)
    counts[cut] = 0.0
    return full[cut], bool(np.any(counts > 0.5))


OPERANDS = ("sparse", "far-corner", "one-cell", "zero", "escaping")


def operand(grid, kind, rng):
    """Complex values on a support of the given kind: random cells, random
    cells beyond a random corner, one cell, none, or cells in the upper half
    of the first axis (so every product with another such operand lands past
    xi_max)."""
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    keep = rng.random(grid.shape) < rng.uniform(0.1, 1.0)
    idx = np.indices(grid.shape)
    if kind == "far-corner":
        keep &= idx.min(axis=0) >= rng.integers(grid.n)
    elif kind == "one-cell":
        keep = np.zeros(grid.shape, dtype=bool)
        keep[tuple(rng.integers(grid.n, size=grid.d))] = True
    elif kind == "zero":
        keep[...] = False
    elif kind == "escaping":
        keep &= idx[0] >= (grid.n + 1) // 2
    return vals * keep


FRAME_GRIDS = {1: make_grid(1, 4, 0.25), 2: make_grid(2, 3, 0.25),
               3: make_grid(3, 3, 0.5)}


def kind_stack(grid, kind, rng, nt=3):
    """Frames on one support of an :func:`operand` kind, values drawn per frame."""
    keep = operand(grid, kind, rng) != 0
    shape = (nt, *grid.shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * keep


def picard_like_stack(grid, rng, nt=6):
    """Frames on one sparse support but frame 0, which keeps only the cells of
    l1 index below d n / 2 (and differs from the others)."""
    while True:
        a = kind_stack(grid, "sparse", rng, nt)
        low = a[0] * (np.indices(grid.shape).sum(axis=0) < grid.d * grid.n // 2)
        if low.any() and (low != 0).sum() < (a[0] != 0).sum():
            a[0] = low
            return a


def check_frames(a, b, grid, rule):
    """convolve_frames against direct_frames: the 1e-12 * max bound and equal
    nonzero patterns; a self-convolution also against an equal copy."""
    ref = direct_frames(a, b, grid, rule)
    got = convolve_frames(a, b, grid, rule)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(got != 0, ref != 0)
    if b is a:
        assert np.array_equal(convolve_frames(a, a.copy(), grid, rule), got)


class TestPlannedKernel:
    @settings(max_examples=150, deadline=None)
    @given(frame_grids, st.sampled_from(OPERANDS), st.sampled_from(OPERANDS),
           st.booleans(), st.sampled_from(["riemann", "trapezoid"]),
           st.integers(0, 2**31 - 1))
    def test_matches_unboxed_sum(self, g, kind_f, kind_h, self_conv, rule, seed):
        rng = np.random.default_rng(seed)
        f = FrequencyField(g, operand(g, kind_f, rng))
        h = f if self_conv else FrequencyField(g, operand(g, kind_h, rng))
        ref, spills = unboxed_direct(f.values, h.values, g, rule)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = convolve(f, h, rule).values
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got != 0, ref != 0)
        # the warning follows the combinatorial support, not the values
        assert [w.category for w in caught] == [RuntimeWarning] * spills

    def test_no_truncation_warning_below_xi_max(self):
        g = make_grid(1, 2, 0.25)
        f = indicator(g, 0.5, 1.0)  # f * f lives on [1, 1.75]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule in ("riemann", "trapezoid"):
                convolve_power(f, 2, rule)
                convolve(f, f, rule)

    def test_plans_never_mix(self):
        # the same nonzero pattern on grids with the same cell count, under
        # both rules, and two patterns alternating in one loop
        rng = np.random.default_rng(4)
        grids = [make_grid(1, 2, 1 / 8), make_grid(1, 16, 1.0), make_grid(2, 1, 0.25)]
        vals = operand(grids[0], "sparse", rng)
        other = operand(grids[0], "far-corner", rng)
        for _ in range(2):
            for g in grids:
                for rule in ("riemann", "trapezoid"):
                    for x in (vals, other):
                        f = FrequencyField(g, x.reshape(g.shape))
                        ref, _ = unboxed_direct(f.values, f.values, g, rule)
                        got = convolve(f, f, rule, warn_on_truncation=False).values
                        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
                        assert np.array_equal(got != 0, ref != 0)

    @pytest.mark.parametrize("la,lb", [(1, 1), (7, 3), (3, 7), (64, 64), (63, 17)])
    def test_np_convolve_is_scipy_direct(self, la, lb):
        # the one-dimensional kernel calls np.convolve, which is what
        # scipy.signal.convolve(method="direct") runs for 1D inputs
        rng = np.random.default_rng(la * 100 + lb)
        a = rng.standard_normal(la) + 1j * rng.standard_normal(la)
        b = rng.standard_normal(lb) + 1j * rng.standard_normal(lb)
        assert np.array_equal(np.convolve(a, b),
                              sig_convolve(a, b, mode="full", method="direct"))


class TestSelfProductFold:
    """Under the trapezoid rule the direct kernel sums half the terms of a
    self-product, twice; the shift-and-add convolves for d >= 2."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", RULES)
    def test_equal_operands_bitwise(self, d, rule):
        g = FRAME_GRIDS[d]
        rng = np.random.default_rng(40 + d)
        for kind in ("sparse", "far-corner", "one-cell"):
            f = operand(g, kind, rng)
            got, spills = lattice._direct(f, f, g, rule)
            copied, copy_spills = lattice._direct(f, f.copy(), g, rule)
            assert np.array_equal(got, copied) and spills == copy_spills
            ref, ref_spills = unboxed_direct(f, f, g, rule)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(got != 0, ref != 0) and spills == ref_spills

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", RULES)
    def test_equal_patterns_other_values_not_folded(self, d, rule):
        g = FRAME_GRIDS[d]
        rng = np.random.default_rng(50 + d)
        for kind in ("sparse", "sparse", "far-corner"):
            f = operand(g, kind, rng)
            h = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) * (
                f != 0)
            got, _ = lattice._direct(f, h, g, rule)
            ref, _ = unboxed_direct(f, h, g, rule)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(got != 0, ref != 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", RULES)
    def test_kernel_calls(self, monkeypatch, d, rule):
        # every cell nonzero, so every sign pattern's masks keep cells
        g = FRAME_GRIDS[d]
        rng = np.random.default_rng(60 + d)
        f, h = (rng.standard_normal(g.shape) + 1j for _ in range(2))
        calls = []
        name, kernel = (("convolve", np.convolve) if d == 1
                        else ("_shift_add", lattice._shift_add))

        def counting(x, y):
            calls.append(x.shape)
            return kernel(x, y)

        monkeypatch.setattr(np if d == 1 else lattice, name, counting)
        folded, terms = (2 ** (d - 1), 2**d) if rule == "trapezoid" else (1, 1)
        for other, expect in ((f, folded), (f.copy(), folded), (h, terms)):
            calls.clear()
            lattice._direct(f, other, g, rule)
            assert len(calls) == expect

    @pytest.mark.parametrize("xs,ys", [((1, 1), (1, 1)), ((3, 5), (4, 2)),
                                       ((2, 3, 4), (4, 3, 2)), ((6, 1), (1, 6))])
    def test_shift_add_is_scipy_direct(self, xs, ys):
        rng = np.random.default_rng(sum(xs) * 10 + sum(ys))
        x = (rng.standard_normal(xs) + 1j * rng.standard_normal(xs)) * (
            rng.random(xs) < 0.6)
        x.flat[-1] = 1.0  # at least one shift
        y = rng.standard_normal(ys) + 1j * rng.standard_normal(ys)
        ref = sig_convolve(x, y, mode="full", method="direct")
        got = lattice._shift_add(x, y)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestConvolveFrames:
    @settings(max_examples=80, deadline=None)
    @given(frame_grids, st.integers(1, 4), st.sampled_from([0.0, 0.15, 0.5, 1.0]),
           st.booleans(), st.booleans(), st.sampled_from(["riemann", "trapezoid"]),
           st.integers(0, 2**31 - 1))
    def test_matches_direct(self, g, nt, density, shared, self_conv, rule, seed):
        rng = np.random.default_rng(seed)
        a = sparse_stack(g, nt, rng, density, shared)
        b = a if self_conv else sparse_stack(g, nt, rng, density, shared)
        ref = direct_frames(a, b, g, rule)
        got = convolve_frames(a, b, g, rule)
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert np.array_equal(got != 0, ref != 0)

    def test_next_fast_len_is_scipys(self):
        # scipy's complex-transform lengths are the reference for the pads
        assert [lattice._next_fast_len(n) for n in range(1, 5000)] == \
            [next_fast_len(n) for n in range(1, 5000)]

    @pytest.mark.parametrize("box, pad", [((7,), (16,)), ((5, 3), (9, 8)),
                                          ((4, 6, 2), (10, 11, 5))])
    def test_padded_fft_is_fftn(self, box, pad):
        # transforming only the rows inside the box changes no bit of fftn
        rng = np.random.default_rng(len(box))
        x = rng.standard_normal((3, *box)) + 1j * rng.standard_normal((3, *box))
        m = rng.random(box) < 0.7
        buf = np.zeros((3, *pad), dtype=complex)
        buf[(..., *map(slice, box))] = x * m
        ref = np.fft.fftn(buf, axes=tuple(range(1, 1 + len(box))))
        assert lattice._padded_fft(x, m, pad).tobytes() == ref.tobytes()

    def test_all_zero_stack(self):
        g = make_grid(2, 2, 0.25)
        b = sparse_stack(g, 3, np.random.default_rng(0), 0.5, False)
        for rule in ("riemann", "trapezoid"):
            out = convolve_frames(np.zeros_like(b), b, g, rule)
            assert out.shape == b.shape and not out.any()

    def test_frames_in_several_blocks(self):
        # both supports span the 64^2 grid, so each axis pads to
        # next_fast_len(127) = 128 and the kernel takes four frames per
        # block: five frames with different supports span two blocks
        g = make_grid(2, 2, 1 / 32)
        rng = np.random.default_rng(3)
        a = sparse_stack(g, 5, rng, 0.05, False)
        a[:, 0, 0] = 1.0  # no empty frames
        b = sparse_stack(g, 5, rng, 0.05, False)
        b[:, 0, 0] = 1.0
        for rule in ("riemann", "trapezoid"):
            # one-frame stacks are one block each; the direct comparison is
            # test_matches_direct's
            ref = np.concatenate([convolve_frames(x[None], y[None], g, rule)
                                  for x, y in zip(a, b)])
            got = convolve_frames(a, b, g, rule)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(got != 0, ref != 0)

    KIND_PAIRS = [("far-corner", "sparse"), ("far-corner", "far-corner"),
                  ("one-cell", "one-cell"), ("one-cell", "sparse"),
                  ("escaping", "escaping")]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("kinds", KIND_PAIRS)
    def test_support_boxes(self, d, rule, kinds):
        g = FRAME_GRIDS[d]
        rng = np.random.default_rng(d)
        for _ in range(6):
            a, b = (kind_stack(g, kind, rng) for kind in kinds)
            check_frames(a, b, g, rule)
            if kinds == ("escaping", "escaping"):  # a + b >= n on the first axis
                assert not convolve_frames(a, b, g, rule).any()

    @pytest.mark.parametrize("kinds", [("escaping", "escaping"), ("zero", "sparse")])
    def test_zeros_without_a_transform(self, monkeypatch, kinds):
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed an operand that cannot reach [0, n)")

        for name in ("fftn", "rfftn"):
            monkeypatch.setattr(lattice._fft, name, no_transform)
        g = FRAME_GRIDS[2]
        a, b = (kind_stack(g, kind, np.random.default_rng(4)) for kind in kinds)
        for rule in RULES:
            assert not convolve_frames(a, b, g, rule).any()
            assert not convolve_frames(b, a, g, rule).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", RULES)
    def test_first_frame_pattern_differs(self, d, rule):
        # as in Picard: frame 0 holds the datum, the later frames a wider
        # support; the other operand's frames differ alike or share one support
        g = FRAME_GRIDS[d]
        rng = np.random.default_rng(10 + d)
        for _ in range(3):
            a = picard_like_stack(g, rng)
            check_frames(a, a, g, rule)
            for b in (picard_like_stack(g, rng), kind_stack(g, "sparse", rng, nt=6)):
                check_frames(a, b, g, rule)
                check_frames(b, a, g, rule)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rule", RULES)
    def test_one_count_convolution_per_pattern_pair(self, monkeypatch, d, rule):
        g = FRAME_GRIDS[d]
        rng = np.random.default_rng(20 + d)
        a, b = (picard_like_stack(g, rng) for _ in range(2))
        counted = []
        rfftn = lattice._fft.rfftn

        def counting(x, *args, **kwargs):
            counted.append(x.shape)
            return rfftn(x, *args, **kwargs)

        monkeypatch.setattr(lattice._fft, "rfftn", counting)
        lattice._plan.cache_clear()
        for other in (a, b):
            counted.clear()
            convolve_frames(a, other, g, rule)
            # two pattern pairs, frame 0's and the later frames', and one
            # count transform per distinct mask of each pair's terms: two
            # per term, one when equal patterns share their masks
            pairs = {tuple(np.packbits(x != 0).tobytes() for x in frames)
                     for frames in zip(a, other)}
            terms = [len(lattice._plan(*pair, g.shape, g.h, rule).terms)
                     for pair in pairs]
            assert len(pairs) == 2 and sum(terms) > 0
            assert len(counted) == (1 if other is a else 2) * sum(terms)
            # a repeat call finds the counts with the plans
            counted.clear()
            check_frames(a, other, g, rule)
            assert counted == []

    @pytest.mark.parametrize("rule", RULES)
    def test_direct_and_fft_kernels_share_a_plan(self, rule):
        g = FRAME_GRIDS[2]
        rng = np.random.default_rng(30)
        f, h = (FrequencyField(g, operand(g, "sparse", rng)) for _ in range(2))
        lattice._plan.cache_clear()
        convolve(f, h, rule, warn_on_truncation=False)
        convolve_frames(f.values[None], h.values[None], g, rule)
        assert lattice._plan.cache_info().misses == 1

    def test_rejects_bad_input(self):
        g = make_grid(1, 2, 0.5)
        a = np.ones((2, *g.shape), dtype=complex)
        with pytest.raises(ValueError):
            convolve_frames(a, a[:1], g)
        with pytest.raises(ValueError):
            convolve_frames(a, a, make_grid(1, 4, 0.5))
        with pytest.raises(ValueError):
            convolve_frames(a, a, g, rule="simpson")


class TestSupportStats:
    def test_interval_indicator(self):
        g = make_grid(1, 4, 0.25)
        st_ = support_stats(indicator(g, 1.0, 1.5))
        assert st_.min_l1 == 1.0
        assert st_.min_linf == 1.0
        assert st_.in_octant

    def test_zero_field_empty(self):
        g = make_grid(1, 4, 0.25)
        st_ = support_stats(FrequencyField(g, np.zeros(g.shape)))
        assert st_.empty
        assert st_.min_l1 == np.inf

    def test_l1_vs_linf_2d(self):
        g = make_grid(2, 4, 0.25)
        vals = np.zeros(g.shape, dtype=complex)
        x, y = g.coords()
        vals[((x >= 1.0) & (x < 1.5)) & ((y >= 2.0) & (y < 2.5))] = 1.0
        st_ = support_stats(FrequencyField(g, vals))
        assert st_.min_l1 == 3.0
        assert st_.min_linf == 2.0

    def test_invariant_l1_dominates_linf(self):
        g = make_grid(2, 3, 0.5)
        f = rng_field(g, 9, sparse=True)
        st_ = support_stats(f)
        if not st_.empty:
            assert st_.min_l1 >= st_.min_linf >= 0

    def test_default_tol_below_quadrature_noise(self):
        g = make_grid(1, 4, 0.25)
        vals = np.zeros(g.shape, dtype=complex)
        vals[8] = 1.0
        vals[2] = 1e-15  # numerical dust must not count as support
        st_ = support_stats(FrequencyField(g, vals))
        assert st_.min_l1 == 2.0


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        g = make_grid(2, 2, 0.5)
        f = rng_field(g, 21)
        p = tmp_path / "f.field"
        save_field(f, p)
        back = load_field(p)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_header_format(self, tmp_path):
        g = make_grid(1, 4, 0.25)
        f = rng_field(g, 2)
        p = tmp_path / "f.field"
        save_field(f, p)
        first = p.read_text().splitlines()[0]
        assert first == "1 0.25 4"

    # values: signed zeros, the smallest subnormal, the smallest normal, 1e300
    # and integers stored as floats, each written as its repr
    GOLDEN = {
        1: ([complex(-0.0, 5e-324), complex(1e300, -2.5), complex(3.0, 0.0),
             complex(2.2250738585072014e-308, -0.0)],
            "1 0.25 1\n0,-0.0,5e-324\n1,1e+300,-2.5\n2,3.0,0.0\n"
            "3,2.2250738585072014e-308,-0.0\n"),
        2: ([complex(0.0, -0.0), complex(-7.0, 1e-310), complex(0.1, -1e300),
             complex(-5e-324, 42.0)],
            "2 0.5 1\n0,0,0.0,-0.0\n0,1,-7.0,1e-310\n1,0,0.1,-1e+300\n"
            "1,1,-5e-324,42.0\n"),
        3: ([complex(k, -k) for k in range(7)] + [complex(-0.0, 1e300)],
            "3 0.5 1\n0,0,0,0.0,0.0\n0,0,1,1.0,-1.0\n0,1,0,2.0,-2.0\n"
            "0,1,1,3.0,-3.0\n1,0,0,4.0,-4.0\n1,0,1,5.0,-5.0\n1,1,0,6.0,-6.0\n"
            "1,1,1,-0.0,1e+300\n"),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_golden_bytes(self, tmp_path, d):
        values, text = self.GOLDEN[d]
        g = make_grid(d, 1, 0.25 if d == 1 else 0.5)
        f = FrequencyField(g, np.array(values).reshape(g.shape))
        p = tmp_path / "f.field"
        save_field(f, p)
        assert p.read_bytes() == text.encode()
        back = load_field(p)
        assert back.grid == g and back.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("rows,why", [
        (["0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0", "7,1.0,0.0"],
         "out-of-range"),
        (["0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "-1,5.0,0.0"], "out-of-range"),
        (["0,1.0,0.0", "1,1.0,0.0", "1,5.0,0.0", "2,1.0,0.0", "3,1.0,0.0"],
         "repeated"),
        (["0,1.0,0.0", "1,1.0,0.0", "3,1.0,0.0"], "3 of 4 rows"),
        (["0,1.0,0.0", "1,1.0,0.0", "", "2,1.0,0.0", "3,1.0,0.0"], "blank"),
        (["0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0", ""], "blank"),
        # a malformed row is named by its line in the file (the header is line 1)
        (["#", "0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0"],
         "malformed.*line 2:"),
        (["0,1.0,0.0", "1.0,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0"], "malformed.*line 3:"),
        (["0,1.0,0.0", "1,1.0,0.0,0.0", "2,1.0,0.0", "3,1.0,0.0"],
         "malformed.*line 3:"),
        (["0,1.0,0.0", "1,1.0", "2,1.0,0.0", "3,1.0,0.0"], "malformed.*line 3:"),
        (["0,1.0,0.0", "1,x,0.0", "2,1.0,0.0", "3,1.0,0.0"], "malformed.*line 3:"),
        (["0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "3,1.0"], "malformed.*line 5:"),
        (["0,1.0,0.0", "1,1.0,0.0", "2,1.0,0.0", "3,x,0.0"], "malformed.*line 5:"),
        (["0,1.0,0.0", "1,nan,0.0", "2,1.0,0.0", "3,1.0,0.0"], "finite"),
        ([], "0 of 4 rows"),
    ], ids=["beyond-grid", "negative", "duplicate", "missing", "blank-line",
            "trailing-blank-line", "hash-line", "float-index", "extra-column",
            "missing-column", "bad-value", "missing-column-last-line",
            "bad-value-last-line", "nan-value", "header-only"])
    def test_rejects_bad_rows(self, tmp_path, rows, why):
        p = tmp_path / "f.field"
        p.write_text("\n".join(["1 0.5 2", *rows]) + "\n")  # 4 cells
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. an empty-input warning
            with pytest.raises(ValueError, match=why):
                load_field(p)

    def test_rejects_nonfinite(self):
        g = make_grid(1, 2, 0.5)
        vals = np.zeros(g.shape, dtype=complex)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            FrequencyField(g, vals)
