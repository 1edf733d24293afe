"""Synthetic fields with known regularity, plus field-file persistence.

Families
--------
smooth_bump       unit-peak bump supported in the middle quarter-radius ball
cusp(gamma)       peak minus dist^gamma on the same support; exponent gamma
weierstrass       lacunary cosine sum, frequencies 3^j, amplitudes 3^(-j*bw)
sign_jump         +1 on the first half of axis one, -1 on the second
log_singularity   -log of the periodic distance to an off-grid point
riesz_of_noise    smoothing operator of order alpha applied to seeded +-1 noise
sinusoid          cos(2 pi m x1 / L)

Everything is deterministic given a CorpusSpec (seeds included), and the
analytic families reproduce exactly under grid refinement.  The field file
format is plain text: one header line of key=value pairs, then one value
per line in row-major order using shortest round-trip decimals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .coeffs import ScaleLadder, coefficient_matrix
from .field import (
    Grid, SampledField, coordinates, flat_index, make_grid, offset_distance, periodic_roll,
    radial,
)
from .spectral import riesz_potential

__all__ = [
    "FAMILIES",
    "CorpusSpec",
    "RegularityTag",
    "FieldFileError",
    "FieldHeaderError",
    "FieldLengthError",
    "FieldValueError",
    "generate",
    "expected_regularity",
    "atomic_write",
    "save_field",
    "load_field",
    "riesz_kernel_difference",
    "roughness_exponent",
]

FAMILIES = (
    "smooth_bump",
    "cusp",
    "weierstrass",
    "sign_jump",
    "log_singularity",
    "riesz_of_noise",
    "sinusoid",
)

FORMAT_MAGIC = "msq-field"
FORMAT_VERSION = "1"


class FieldFileError(ValueError):
    """Base for input-file problems: field files and point-cloud files."""


class FieldHeaderError(FieldFileError):
    """Missing, malformed, or unsupported header."""


class FieldLengthError(FieldFileError):
    """Value count does not match the header geometry."""


class FieldValueError(FieldFileError):
    """Unparsable or non-finite value line."""


@dataclass(frozen=True)
class CorpusSpec:
    family: str
    grid: Grid
    gamma: float = None
    beta_w: float = None
    levels: int = None
    alpha: float = None
    seed: int = None
    frequency: int = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown corpus family {self.family!r}")
        if self.family == "cusp":
            if self.gamma is None or not (0.0 < self.gamma <= 1.0):
                raise ValueError("cusp needs gamma in (0, 1]")
        if self.family == "weierstrass":
            if self.beta_w is None or not (0.0 < self.beta_w < 1.0):
                raise ValueError("weierstrass needs beta_w in (0, 1)")
            if self.levels is None or self.levels < 4:
                raise ValueError("weierstrass needs levels >= 4")
        if self.family == "riesz_of_noise":
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise ValueError("riesz_of_noise needs alpha in (0, 2)")
            if self.seed is None:
                raise ValueError("riesz_of_noise needs a seed")
        if self.family == "sinusoid":
            if self.frequency is None or int(self.frequency) < 1:
                raise ValueError("sinusoid needs frequency >= 1")

    def params(self) -> dict:
        out = {"family": self.family}
        for key in ("gamma", "beta_w", "levels", "alpha", "seed", "frequency"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class RegularityTag:
    """Orienting expectations only, never a hard oracle."""

    holder: float | None
    alpha_band: tuple  # (low, high); membership reads low < alpha <= high


def _centered_distance(grid: Grid) -> np.ndarray:
    """Periodic distance from the domain-center grid point, shaped."""
    return periodic_roll(offset_distance(grid), (grid.n_per_axis // 2,) * grid.dim)


def generate(spec: CorpusSpec) -> SampledField:
    """Deterministic field for a CorpusSpec; seeds fix the noise families."""
    grid = spec.grid
    L = grid.period
    rho = L / 4.0
    if spec.family == "smooth_bump":
        d = _centered_distance(grid)
        t = d / rho
        vals = np.zeros(grid.shape)
        inside = t < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    elif spec.family == "cusp":
        d = _centered_distance(grid)
        vals = np.maximum(rho ** spec.gamma - d ** spec.gamma, 0.0)
    elif spec.family == "weierstrass":
        x = coordinates(grid)[0]
        vals = np.zeros(grid.shape)
        nyquist = grid.n_per_axis // 2
        for j in range(spec.levels):
            freq = 3 ** j
            if freq > nyquist:
                break  # unresolved terms are dropped
            vals += 3.0 ** (-j * spec.beta_w) * np.cos(2.0 * np.pi * freq * x / L)
    elif spec.family == "sign_jump":
        x = coordinates(grid)[0]
        vals = np.where(x < L / 2.0, 1.0, -1.0)
    elif spec.family == "log_singularity":
        # Singular point sits half a cell off the central grid point so the
        # sampled field stays finite.
        h = grid.spacing
        axis = np.arange(grid.n_per_axis) * h
        t = np.abs(axis - (L / 2.0 + h / 2.0))
        t = np.minimum(t, L - t)
        vals = -np.log(radial(t, grid.dim) / L)
    elif spec.family == "riesz_of_noise":
        rng = np.random.default_rng(spec.seed)
        noise = 2.0 * rng.integers(0, 2, size=grid.n_points) - 1.0
        base = SampledField(grid=grid, values=noise.astype(float))
        return riesz_potential(base, spec.alpha)
    else:  # sinusoid
        x = coordinates(grid)[0]
        vals = np.cos(2.0 * np.pi * int(spec.frequency) * x / L)
    return SampledField(grid=grid, values=np.asarray(vals, dtype=float).reshape(-1))


def expected_regularity(spec: CorpusSpec) -> RegularityTag:
    """Analytically known regularity tags per family."""
    if spec.family in ("smooth_bump", "sinusoid"):
        return RegularityTag(holder=None, alpha_band=(0.0, 2.0))
    if spec.family == "cusp":
        return RegularityTag(holder=spec.gamma, alpha_band=(0.0, spec.gamma))
    if spec.family == "weierstrass":
        return RegularityTag(holder=spec.beta_w, alpha_band=(0.0, spec.beta_w))
    if spec.family == "sign_jump":
        # Derivatives of order >= 1 leave the function class; usable below 1.
        return RegularityTag(holder=None, alpha_band=(0.0, 1.0))
    if spec.family == "log_singularity":
        return RegularityTag(holder=None, alpha_band=(0.0, 1.0))
    # riesz_of_noise: the order-alpha derivative returns the bounded noise.
    hold = spec.alpha if spec.alpha < 1.0 else None
    return RegularityTag(holder=hold, alpha_band=(0.0, spec.alpha))


# ---------------------------------------------------------------------------
# persistence


def atomic_write(path, chunks) -> None:
    """Write the strings of chunks, in order, to a .tmp sibling of path and
    move it over path, so that a write cut short never leaves a truncated
    target: on failure the .tmp file goes and the target keeps its bytes.
    The one writer of every file msq writes."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def save_field(field: SampledField, path, extra: dict = None) -> None:
    """Write the header line and one shortest-round-trip value per line,
    atomically."""
    grid = field.grid
    items = {
        "dim": grid.dim,
        "n_per_axis": grid.n_per_axis,
        "period": repr(grid.period),
    }
    if extra:
        for k, v in extra.items():
            items[str(k)] = repr(v) if isinstance(v, float) else v
    header = f"{FORMAT_MAGIC} v{FORMAT_VERSION} " + " ".join(
        f"{k}={v}" for k, v in items.items()
    )
    atomic_write(path, ["\n".join([header, *map(repr, field.values.tolist())]) + "\n"])


def load_field(path):
    """Read a field file; returns (field, header metadata dict).  Bytes
    that are not UTF-8 fail the header or a value line like any other
    malformed text."""
    with open(path, errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        tokens = header.split()
        if len(tokens) < 2 or tokens[0] != FORMAT_MAGIC:
            raise FieldHeaderError(f"{path}: malformed header (missing magic)")
        if tokens[1] != f"v{FORMAT_VERSION}":
            raise FieldHeaderError(f"{path}: unsupported format version {tokens[1]}")
        meta = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise FieldHeaderError(f"{path}: malformed header token {tok!r}")
            key, val = tok.split("=", 1)
            meta[key] = val
        try:
            dim = int(meta["dim"])
            n = int(meta["n_per_axis"])
            period = float(meta["period"])
        except (KeyError, ValueError) as exc:
            raise FieldHeaderError(f"{path}: header missing grid geometry") from exc
        try:
            grid = make_grid(dim, n, period)
        except ValueError as exc:
            raise FieldHeaderError(f"{path}: invalid grid geometry: {exc}") from exc

        # a list, not an array of the header's size: a corrupt n_per_axis
        # must not allocate before the count check
        lines = list(map(str.strip, fh))
        body = list(filter(None, lines))
        try:
            values = list(map(float, body[: grid.n_points]))
        except ValueError:
            # the first unparsable line lies among the first n_points values
            for line_no, txt in enumerate(lines, start=2):
                if txt:
                    try:
                        float(txt)
                    except ValueError as exc:
                        raise FieldValueError(f"{path}:{line_no}: unparsable value") from exc
        if len(body) > grid.n_points:
            raise FieldLengthError(f"{path}: more values than the grid holds")
        if len(values) != grid.n_points:
            raise FieldLengthError(
                f"{path}: {len(values)} values for a grid of {grid.n_points}"
            )
        values = np.array(values)
        if not np.all(np.isfinite(values)):
            raise FieldValueError(f"{path}: non-finite value in body")
    return SampledField(grid=grid, values=values), meta


# ---------------------------------------------------------------------------
# oracles


def riesz_kernel_difference(field: SampledField, alpha: float, periods: int = 64) -> SampledField:
    """Real-space smoothing oracle via the normalized difference kernel.

    out(x) = c * h * sum_y b(y) (|x-y|^(alpha-1) - |y|^(alpha-1)) with the
    sum over `periods` copies of the period and singular cells replaced by
    the exact cell average of |u|^(alpha-1).  The normalization c is the
    classical one that makes the kernel route match the multiplier route,
    c = 2^(-alpha) pi^(-1/2) Gamma((1-alpha)/2) / Gamma(alpha/2); the tail
    beyond the summed copies cancels because the input has mean zero per
    period.  1-d only; intended as a low-resolution cross-check.
    """
    grid = field.grid
    if grid.dim != 1:
        raise ValueError("kernel-difference oracle is 1-d only")
    if not (0.0 < alpha < 1.0):
        raise ValueError("kernel form needs alpha in (0, dim) = (0, 1)")
    n, h = grid.n_per_axis, grid.spacing
    b = field.values - field.values.mean()
    c_norm = 2.0 ** (-alpha) * math.pi ** (-0.5) * math.gamma((1.0 - alpha) / 2.0) / math.gamma(alpha / 2.0)

    half = periods // 2
    j = np.arange(-half * n, half * n + 1)
    y = j * h
    cell_avg = (2.0 ** (1.0 - alpha)) * h ** (alpha - 1.0) / alpha  # mean of |u|^(a-1) over a cell at 0
    with np.errstate(divide="ignore"):
        kernel_y = np.abs(y) ** (alpha - 1.0)
    kernel_y[j == 0] = cell_avg
    b_ext = b[j % n]

    out = np.empty(n)
    for i in range(n):
        with np.errstate(divide="ignore"):
            shifted = np.abs((i - j) * h) ** (alpha - 1.0)
        shifted[(i - j) == 0] = cell_avg
        out[i] = np.sum(b_ext * (shifted - kernel_y))
    return SampledField(grid=grid, values=c_norm * h * out)


def roughness_exponent(field: SampledField, ladder: ScaleLadder, center=None) -> float:
    """Log-log slope of the annulus first-difference scale against radius.

    Fits log(r * nu0_tilde) on log r.  With a center given, the coefficient
    at that point is used (the right probe for an isolated singular point);
    otherwise the mean over all centers is fitted (the right probe for
    fields that are uniformly rough, where the pointwise and average scales
    agree).
    """
    mat = coefficient_matrix(field, ladder, "nu0_tilde")
    radii = ladder.radii
    if center is None:
        scale = mat.values.mean(axis=0) * radii
    else:
        scale = mat.values[flat_index(field.grid, np.atleast_1d(center)), :] * radii
    good = scale > 0
    if good.sum() < 2:
        raise ValueError("not enough nonzero scales to fit a slope")
    slope, _ = np.polyfit(np.log(radii[good]), np.log(scale[good]), 1)
    return float(slope)
