"""Reusable experiment assemblies: corpora, band-limited draws, ratio bands.

These are the building blocks of the acceptance suite and of the runnable
scripts; they wire together corpus generation, the square-function
aggregation, and the oscillation norms into the comparability measurements.
"""

from __future__ import annotations

import numpy as np

from .carleson import comparability_records
from .coeffs import ScaleLadder
from .corpus import CorpusSpec, expected_regularity, generate
from .field import Grid, SampledField

__all__ = [
    "ALPHA_GRID",
    "band_limited_field",
    "default_specs",
    "analytic_specs",
    "comparability_ratios",
    "eligible_pairs",
    "two_sided_band",
]

ALPHA_GRID = (0.3, 0.5, 0.8, 1.0, 1.3, 1.7)


def band_limited_field(grid: Grid, seed: int, kmax: int) -> SampledField:
    """Seeded random real field supported on frequencies |k| <= kmax."""
    n = grid.n_per_axis
    if kmax >= n // 2:
        raise ValueError("kmax must stay below the Nyquist frequency")
    rng = np.random.default_rng(seed)
    if grid.dim == 1:
        spec = np.zeros(n, dtype=complex)
        for k in range(1, kmax + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            spec[k] = c
            spec[-k] = np.conj(c)
        vals = np.fft.ifft(spec).real * n
    else:
        spec = np.zeros((n, n), dtype=complex)
        for k1 in range(-kmax, kmax + 1):
            for k2 in range(-kmax, kmax + 1):
                if k1 == 0 and k2 == 0:
                    continue
                c = rng.standard_normal() + 1j * rng.standard_normal()
                spec[k1 % n, k2 % n] += c / 2
                spec[(-k1) % n, (-k2) % n] += np.conj(c) / 2
        vals = np.fft.ifft2(spec).real * n * n
    return SampledField(grid=grid, values=vals.reshape(-1))


def analytic_specs(grid: Grid) -> list:
    """Families that regenerate consistently under grid refinement."""
    specs = [
        CorpusSpec(family="smooth_bump", grid=grid),
        CorpusSpec(family="sinusoid", grid=grid, frequency=2),
        CorpusSpec(family="cusp", grid=grid, gamma=0.9),
    ]
    if grid.dim == 1:
        specs.append(CorpusSpec(family="weierstrass", grid=grid, beta_w=0.6, levels=5))
    return specs


def default_specs(grid: Grid, noise_alphas=(0.5, 1.3, 1.7)) -> list:
    """Analytic families plus seeded noise archetypes at the given orders."""
    specs = analytic_specs(grid)
    for i, a in enumerate(noise_alphas):
        specs.append(
            CorpusSpec(family="riesz_of_noise", grid=grid, alpha=a, seed=11 + i)
        )
    return specs


def eligible_pairs(specs, alphas=ALPHA_GRID) -> list:
    """(spec, its eligible alphas) per spec: the alphas inside the family's
    regularity band, so every tested field is an archetype of the space
    being probed.  Raises ValueError when two pairs share a ratio key
    (family, spec.alpha, alpha), as specs differing only in seed or gamma
    do, since one ratio would overwrite the other."""
    pairs, seen = [], set()
    for spec in specs:
        lo, hi = expected_regularity(spec).alpha_band
        eligible = [a for a in alphas if lo < a <= hi]
        for a in eligible:
            key = (spec.family, spec.alpha, a)
            if key in seen:
                raise ValueError(f"two (spec, alpha) pairs share the ratio key {key}")
            seen.add(key)
        pairs.append((spec, eligible))
    return pairs


def comparability_ratios(
    specs,
    alphas=ALPHA_GRID,
    ladder: ScaleLadder = None,
    stride: int = 1,
) -> dict:
    """Ratio carleson_sq / bmo_norm_sq per eligible (CorpusSpec, alpha)
    pair (see ``eligible_pairs``), keyed (family, spec.alpha, alpha).
    Each field is generated once and its alphas share its matrices."""
    ratios = {}
    for spec, eligible in eligible_pairs(specs, alphas):
        records = comparability_records(generate(spec), eligible, ladder=ladder, stride=stride)
        for a, rec in zip(eligible, records):
            ratios[(spec.family, spec.alpha, a)] = rec.ratio
    return ratios


def two_sided_band(ratios: dict) -> float:
    """Smallest B with every ratio inside [1/B, B]."""
    vals = np.array([v for v in ratios.values() if v is not None])
    if vals.size == 0 or np.any(vals <= 0):
        raise ValueError("ratios must be positive to form a band")
    return float(max(vals.max(), 1.0 / vals.min()))
