import math

import numpy as np
import pytest

from msq.bmo import bmo_norm, holder_seminorm, make_ball_family
from msq.coeffs import make_ladder
from msq.corpus import CorpusSpec, generate, expected_regularity
from msq.field import SampledField, make_grid, sample
from msq.spectral import (
    _lattice_zeta,
    calibrate_pv_constant,
    fractional_derivative,
    fractional_laplacian_pv,
    riesz_potential,
    spectral_gradient,
)


def test_derivative_eigenfunction():
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    out = fractional_derivative(f, 0.7)
    assert np.allclose(out.values, (2 * np.pi) ** 0.7 * f.values, atol=1e-12)


def test_derivative_two_modes_alpha_one():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x) + np.cos(6 * np.pi * x))
    out = fractional_derivative(f, 1.0)
    want = sample(
        g, lambda x: 2 * np.pi * np.cos(2 * np.pi * x) + 6 * np.pi * np.cos(6 * np.pi * x)
    )
    assert np.allclose(out.values, want.values, atol=1e-10)


def test_derivative_kills_constants():
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: 7.0 + 0.0 * x)
    assert np.max(np.abs(fractional_derivative(f, 0.5).values)) < 1e-12


def test_riesz_eigenfunction():
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    out = riesz_potential(f, 0.5)
    assert np.allclose(out.values, (2 * np.pi) ** -0.5 * f.values, atol=1e-12)


def test_riesz_inverts_derivative_mod_constants():
    g = make_grid(1, 256, 1.0)
    rng = np.random.default_rng(0)
    spec = np.zeros(256, dtype=complex)
    for k in range(1, 20):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        spec[k], spec[-k] = c, np.conj(c)
    f = SampledField(grid=g, values=np.fft.ifft(spec).real * 256 + 3.0)
    back = riesz_potential(fractional_derivative(f, 0.8), 0.8)
    target = f.values - f.values.mean()
    assert np.max(np.abs(back.values - target)) < 1e-10 * np.max(np.abs(target))


def test_semigroup_on_band_limited():
    g = make_grid(1, 256, 1.0)
    rng = np.random.default_rng(1)
    spec = np.zeros(256, dtype=complex)
    for k in range(1, 16):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        spec[k], spec[-k] = c, np.conj(c)
    f = SampledField(grid=g, values=np.fft.ifft(spec).real * 256)
    a, b = 0.6, 0.9
    lhs = fractional_derivative(fractional_derivative(f, a), b).values
    rhs = fractional_derivative(f, a + b).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 2.0, 2.3])
def test_alpha_range_enforced(alpha):
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    with pytest.raises(ValueError):
        fractional_derivative(f, alpha)
    with pytest.raises(ValueError):
        riesz_potential(f, alpha)


def test_outputs_real_2d():
    g = make_grid(2, 32, 1.0)
    rng = np.random.default_rng(2)
    f = SampledField(grid=g, values=rng.standard_normal(g.n_points))
    out = fractional_derivative(f, 1.3)
    assert out.values.dtype == np.float64
    roundtrip = riesz_potential(out, 1.3)
    assert np.allclose(roundtrip.values, f.values - f.values.mean(), atol=1e-9)


def test_spectral_gradient_of_mode():
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: np.sin(2 * np.pi * x))
    (gx,) = spectral_gradient(f)
    want = sample(g, lambda x: 2 * np.pi * np.cos(2 * np.pi * x))
    assert np.allclose(gx.values, want.values, atol=1e-10)


def test_pv_constant_field_zero():
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: 2.5 + 0.0 * x)
    assert fractional_laplacian_pv(f, 0.7, 10) == pytest.approx(0.0, abs=1e-10)


def test_pv_odd_field_zero_at_center():
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: np.sin(2 * np.pi * x))
    assert fractional_laplacian_pv(f, 0.9, 0) == pytest.approx(0.0, abs=1e-10)


def test_pv_matches_spectral_after_calibration():
    g = make_grid(1, 1024, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x) - 0.5 * np.cos(6 * np.pi * x))
    for alpha in (0.5, 1.0, 1.5):
        c = calibrate_pv_constant(g, alpha)
        spec = fractional_derivative(f, alpha).values
        scale = np.max(np.abs(spec))
        for center in (0, 100, 555):
            pv = fractional_laplacian_pv(f, alpha, center)
            assert abs(pv / c - spec[center]) < 1e-3 * scale


def test_pv_calibration_transfers_across_frequencies():
    g = make_grid(1, 1024, 1.0)
    for alpha in (0.5, 1.3):
        c1 = calibrate_pv_constant(g, alpha, frequency=1)
        c2 = calibrate_pv_constant(g, alpha, frequency=2)
        assert abs(c2 / c1 - 1.0) < 1e-3


def _pv_closed_form(d, alpha):
    """1 / C(d, alpha) with C = 2^alpha Gamma((d + alpha) / 2) / (pi^(d/2)
    |Gamma(-alpha/2)|): the p.v. integral of (f(x) - f(y)) / |x - y|^(d + alpha)
    is (-Laplacian)^(alpha/2) f / C."""
    c = 2.0**alpha * math.gamma((d + alpha) / 2) / (math.pi ** (d / 2) * abs(math.gamma(-alpha / 2)))
    return 1.0 / c


@pytest.mark.parametrize("alpha", [0.3, 1.3])
def test_pv_constant_matches_closed_form_1d(alpha):
    # the corrected trapezoid errs like h^(4 - alpha): relative error 1.9e-8
    # (alpha 0.3) and 5.9e-7 (alpha 1.3) at n=64, 13.2x and 6.0x smaller at
    # n=128
    want = _pv_closed_form(1, alpha)
    err = [abs(calibrate_pv_constant(make_grid(1, n, 1.0), alpha) / want - 1.0) for n in (64, 128)]
    assert err[0] < {0.3: 1e-7, 1.3: 1e-6}[alpha]
    assert err[1] < err[0] / 3.5


def test_pv_constant_2d_error_at_its_documented_size():
    # the same rule in 2-d: 3.1e-8 (alpha 0.3) and 2.6e-7 (alpha 1.3) at
    # n=64, 13.1x and 7.8x smaller at n=128
    for alpha, bound in ((0.3, 1e-7), (1.3, 1e-6)):
        want = _pv_closed_form(2, alpha)
        err = [abs(calibrate_pv_constant(make_grid(2, n, 1.0), alpha) / want - 1.0)
               for n in (64, 128)]
        assert max(err) < bound
        assert err[1] < err[0] / 3.5


@pytest.mark.parametrize("dim", [1, 2])
def test_pv_constant_near_alpha_two(dim):
    # alpha 1.9 at n=64: 3.2e-6 (1-d) and 1.8e-6 (2-d) relative
    want = _pv_closed_form(dim, 1.9)
    assert abs(calibrate_pv_constant(make_grid(dim, 64, 1.0), 1.9) / want - 1.0) < 1e-5


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.0, 0.5, 0.9, 1.5])
def test_lattice_zeta_1d_at_zero_is_riemann_zeta(s):
    from scipy.special import zeta

    assert _lattice_zeta(np.zeros(1), s, 1) == pytest.approx(2.0 * zeta(s), rel=1e-13)


@pytest.mark.parametrize("s", [1.3, 2.0, 2.7])
def test_lattice_zeta_1d_is_hurwitz_sum(s):
    from scipy.special import zeta

    x = np.array([0.1, 0.37, 0.5, 0.9, 1.0 - 2.0**-10])
    want = zeta(s, x) + zeta(s, 1.0 - x)
    assert _lattice_zeta(x[:, None], s, 1) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("s", [2.5, 3.0, 3.9])
def test_lattice_zeta_2d_at_zero_is_zeta_times_beta(s):
    from scipy.special import zeta

    t = s / 2
    beta = 4.0**-t * (zeta(t, 0.25) - zeta(t, 0.75))  # Dirichlet beta
    assert _lattice_zeta(np.zeros(2), s, 2) == pytest.approx(4.0 * zeta(t) * beta, rel=1e-13)


@pytest.mark.parametrize(
    "dim, center, message",
    [
        (1, 3.7, "not an integer"),
        (1, (3, 40), "rank"),
        (1, 100, "out of range"),
        (1, -1, "out of range"),
        (2, (1.9, 2), "not an integer"),
        (2, 5, "rank"),
    ],
)
def test_pv_rejects_center(dim, center, message):
    f = sample(make_grid(dim, 64, 1.0), lambda *x: np.cos(2 * np.pi * x[0]))
    with pytest.raises(ValueError, match=message):
        fractional_laplacian_pv(f, 0.5, center)


def test_pv_calibration_rejects_frequency():
    g = make_grid(1, 64, 1.0)
    for frequency in (0, -1, 32, 40, 1.5, float("nan")):
        with pytest.raises(ValueError, match="frequency"):
            calibrate_pv_constant(g, 0.5, frequency)


def test_holder_seminorm_controlled_by_derivative_norm():
    # recorded comparability cap: across the small corpus the ratio of the
    # Holder seminorm to the oscillation norm of the matching derivative
    # stays below 4 in one dimension (measured band roughly [1.5, 2.5])
    g = make_grid(1, 512, 1.0)
    lad = make_ladder(g)
    specs = [
        CorpusSpec(family="smooth_bump", grid=g),
        CorpusSpec(family="cusp", grid=g, gamma=0.9),
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=41),
    ]
    windows = make_ball_family(g, lad.radii, stride=2)
    for s in specs:
        f = generate(s)
        lo, hi = expected_regularity(s).alpha_band
        for alpha in (0.3, 0.5, 0.8):
            if not (lo < alpha <= hi):
                continue
            ratio = holder_seminorm(f, alpha, stride=2) / bmo_norm(
                fractional_derivative(f, alpha), windows
            ).norm
            assert 0.0 < ratio < 4.0


def test_holder_ratio_cap_2d():
    # same control in two dimensions; recorded cap 6
    g = make_grid(2, 32, 1.0)
    lad = make_ladder(g)
    windows = make_ball_family(g, lad.radii, stride=2)
    for s in (
        CorpusSpec(family="smooth_bump", grid=g),
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=44),
    ):
        f = generate(s)
        ratio = holder_seminorm(f, 0.5, stride=1) / bmo_norm(
            fractional_derivative(f, 0.5), windows
        ).norm
        assert 0.0 < ratio < 6.0
