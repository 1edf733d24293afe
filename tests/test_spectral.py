import math

import numpy as np
import pytest

from msq.bmo import bmo_norm, holder_seminorm, make_ball_family
from msq.coeffs import make_ladder
from msq.corpus import CorpusSpec, generate, expected_regularity
from msq.field import SampledField, make_grid, sample
from msq.spectral import (
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
    # O(h^2) in 1-d: relative error 5.7e-5 (alpha 0.3) and 4.0e-5 (alpha
    # 1.3) at n=64, four times smaller per doubling of n
    want = _pv_closed_form(1, alpha)
    err = [abs(calibrate_pv_constant(make_grid(1, n, 1.0), alpha) / want - 1.0) for n in (64, 128)]
    assert err[0] < 1e-4
    assert err[1] < err[0] / 3.5


def test_pv_constant_2d_error_at_its_documented_size():
    # the 2-d lattice sum errs by O(h^(2 - alpha)) relative, plus about 1e-2
    # from the isotropic estimate of the lattice tail, which does not fall
    # with h: 8.9e-3 (alpha 0.3) and 9.3e-2 (alpha 1.3) at n=32
    for alpha, bound in ((0.3, 1.2e-2), (1.3, 0.1)):
        want = _pv_closed_form(2, alpha)
        err = [abs(calibrate_pv_constant(make_grid(2, n, 1.0), alpha) / want - 1.0)
               for n in (32, 64)]
        assert max(err) < bound
    assert err[1] < err[0] / 2.0**0.6  # alpha 1.3: like h^0.7


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
