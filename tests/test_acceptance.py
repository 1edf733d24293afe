"""Acceptance suite: one test per criterion, one printed line per criterion.

All tolerances are pinned here.  Recorded constants (comparability bands,
chain constants) were measured on this implementation and frozen with
headroom as regression caps; each criterion's printed line carries the
measured values so drifts are visible in the log.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np

from msq.bmo import make_cube_family, strichartz_second
from msq.carleson import (
    carleson_constant,
    full_domain_square_integral,
    matching_order,
    square_function_integral,
)
from msq.cli import EXIT_OK, main as cli_main
from msq.coeffs import coefficient_matrix, make_ladder, nu0, nu1
from msq.corpus import (
    CorpusSpec,
    expected_regularity,
    generate,
    load_field,
    roughness_exponent,
    save_field,
)
from msq.experiments import (
    ALPHA_GRID,
    analytic_specs,
    band_limited_field,
    comparability_ratios,
    default_specs,
    two_sided_band,
)
from msq.field import BallWindow, SampledField, make_grid, sample
from msq.geometry import PointCloud, beta2k
from msq.spectral import (
    calibrate_pv_constant,
    dalpha_energy,
    fractional_derivative,
    fractional_laplacian_pv,
    riesz_potential,
)

# Regression caps for the recorded constants, frozen from measured values
# (shown in parentheses) with roughly 1.5x headroom.
B0_CAP = {1: 80.0, 2: 100.0}            # measured ~51 (d=1), ~59 (d=2)
CHAIN_K_CAP = {1: 12.0, 2: 8.0}         # measured 5.7, 3.3
CHAIN_KPRIME_CAP = {1: 32.0, 2: 128.0}  # measured 12.7, 62.7
ENERGY_K_CAP = {(1, 0.5): 2.0, (1, 1.5): 0.2, (2, 0.5): 1.0, (2, 1.5): 0.1}
# measured 0.85, 0.059, 0.32, 0.013


def _report(num, name, checks):
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(msg for _, msg in checks)
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_exact_optimum_oracles():
    checks = []

    g = make_grid(1, 4096, 1.0)
    f_sq = sample(g, lambda x: (x - 0.5) ** 2)
    r = 0.1
    got = nu1(f_sq, BallWindow(center=(2048,), radius=r))
    want = 2.0 / (3.0 * math.sqrt(5.0)) * r
    tol = max(1e-6, 3 * g.spacing)
    checks.append((abs(got - want) <= tol, f"affine residual on x^2 err={abs(got - want):.2e}"))

    g2 = make_grid(1, 1024, 1.0)
    f_lin = sample(g2, lambda x: x)
    got0 = nu0(f_lin, BallWindow(center=(512,), radius=0.25))
    checks.append(
        (
            abs(got0 - 1.0 / math.sqrt(3.0)) <= 2 * g2.spacing / 0.25,
            f"constant residual on x err={abs(got0 - 1 / math.sqrt(3)):.2e}",
        )
    )

    n_pts = 100000
    th = 2 * np.pi * np.arange(n_pts) / n_pts
    cloud = PointCloud(
        points=np.stack([np.cos(th), np.sin(th)], axis=1), weights=np.ones(n_pts)
    )
    beta, _ = beta2k(cloud, np.zeros(2), 1.0001, k=1)
    checks.append(
        (abs(beta - math.sqrt(0.5)) < 1e-3, f"circle plane number err={abs(beta - math.sqrt(0.5)):.2e}")
    )

    _report(1, "exact-optimum oracles", checks)


def test_criterion_2_spectral_identities():
    checks = []
    g = make_grid(1, 512, 1.0)

    for k in (1, 3):
        f = sample(g, lambda x: np.cos(2 * np.pi * k * x))
        for alpha in (0.5, 1.0, 1.7):
            out = fractional_derivative(f, alpha)
            err = np.max(np.abs(out.values - (2 * np.pi * k) ** alpha * f.values))
            checks.append((err < 1e-10 * (2 * np.pi * k) ** alpha, f"eigenmode k={k} a={alpha} err={err:.1e}"))

    rng = np.random.default_rng(0)
    spec = np.zeros(512, dtype=complex)
    for k in range(1, 40):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        spec[k], spec[-k] = c, np.conj(c)
    f = SampledField(grid=g, values=np.fft.ifft(spec).real * 512 + 2.0)
    back = riesz_potential(fractional_derivative(f, 0.9), 0.9)
    target = f.values - f.values.mean()
    err = np.max(np.abs(back.values - target)) / np.max(np.abs(target))
    checks.append((err < 1e-10, f"inverse identity rel err={err:.1e}"))

    a, b = 0.6, 0.8
    lhs = fractional_derivative(fractional_derivative(f, a), b).values
    rhs = fractional_derivative(f, a + b).values
    err = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    checks.append((err < 1e-9, f"semigroup rel err={err:.1e}"))

    _report(2, "spectral identities", checks)


def test_criterion_3_pv_oracle_equivalence():
    checks = []
    g = make_grid(1, 4096, 1.0)
    f = sample(
        g,
        lambda x: np.cos(2 * np.pi * x)
        - 0.6 * np.cos(6 * np.pi * x + 0.4)
        + 0.2 * np.sin(10 * np.pi * x),
    )
    for alpha in (0.5, 1.0, 1.5):
        c1 = calibrate_pv_constant(g, alpha, frequency=1)
        c2 = calibrate_pv_constant(g, alpha, frequency=2)
        transfer = abs(c2 / c1 - 1.0)
        checks.append((transfer < 1e-3, f"a={alpha} transfer={transfer:.1e}"))
        spec = fractional_derivative(f, alpha).values
        scale = np.max(np.abs(spec))
        worst = max(
            abs(fractional_laplacian_pv(f, alpha, c) / c1 - spec[c])
            for c in (0, 311, 1024, 2222, 3600)
        )
        checks.append((worst < 1e-3 * scale, f"a={alpha} field rel err={worst / scale:.1e}"))
    g = make_grid(2, 64, 1.0)
    f = sample(
        g,
        lambda x, y: np.cos(2 * np.pi * x)
        - 0.6 * np.cos(2 * np.pi * (x + 2 * y) + 0.4)
        + 0.2 * np.sin(4 * np.pi * y),
    )
    for alpha in (0.5, 1.0, 1.5, 1.9):
        c1 = calibrate_pv_constant(g, alpha, frequency=1)
        spec = fractional_derivative(f, alpha).shaped
        scale = np.max(np.abs(spec))
        worst = max(
            abs(fractional_laplacian_pv(f, alpha, c) / c1 - spec[c])
            for c in ((0, 0), (5, 17), (31, 40), (63, 1))
        )
        checks.append((worst < 1e-4 * scale, f"2-d a={alpha} field rel err={worst / scale:.1e}"))
    _report(3, "fractional-derivative oracle equivalence", checks)


def test_criterion_4_comparability_band():
    checks = []
    for dim, n, stride, noise in (
        (1, 1024, 1, (0.5, 1.3, 1.7)),
        (2, 32, 1, (0.5, 1.3)),
    ):
        g = make_grid(dim, n, 1.0)
        ratios = comparability_ratios(
            default_specs(g, noise_alphas=noise), alphas=ALPHA_GRID, stride=stride
        )
        B0 = two_sided_band(ratios)
        inside = all(1.0 / B0 <= v <= B0 for v in ratios.values())
        checks.append(
            (
                inside and B0 <= B0_CAP[dim],
                f"d={dim}: {len(ratios)} pairs, recorded B0={B0:.1f} (cap {B0_CAP[dim]})",
            )
        )

        # refinement stability over the resolution-consistent families at a
        # matched scale ladder (the noise archetypes resample per grid and
        # are excluded from the drift check by design)
        lad = make_ladder(g)
        g2 = make_grid(dim, 2 * n, 1.0)
        coarse = comparability_ratios(
            analytic_specs(g), alphas=ALPHA_GRID, ladder=lad, stride=stride
        )
        fine = comparability_ratios(
            analytic_specs(g2), alphas=ALPHA_GRID, ladder=lad, stride=2 * stride
        )
        keys = sorted(set(coarse) & set(fine))
        Ba = two_sided_band({k: coarse[k] for k in keys})
        Bb = two_sided_band({k: fine[k] for k in keys})
        drift = abs(Bb - Ba) / Ba
        worst_pair = max(abs(fine[k] - coarse[k]) / abs(coarse[k]) for k in keys)
        checks.append(
            (
                drift < 0.25,
                f"d={dim}: band drift {drift:.3f} under n->2n (worst pair {worst_pair:.3f})",
            )
        )
    _report(4, "two-sided comparability band", checks)


def test_criterion_5_ordering_and_homogeneity():
    checks = []
    g = make_grid(1, 256, 1.0)
    lad = make_ladder(g)
    specs = (
        [CorpusSpec(family="riesz_of_noise", grid=g, alpha=a, seed=s)
         for a, s in ((0.4, 1), (0.7, 2), (1.0, 3), (1.3, 4), (1.6, 5), (0.9, 6))]
        + [CorpusSpec(family="weierstrass", grid=g, beta_w=b, levels=4) for b in (0.3, 0.7)]
        + [CorpusSpec(family="cusp", grid=g, gamma=c) for c in (0.4, 0.8)]
    )
    worst = 0.0
    for s in specs:
        f = generate(s)
        m = {k: coefficient_matrix(f, lad, k).values for k in ("nu0", "nu1", "nu0_bar", "nu1_bar")}
        worst = max(
            worst,
            float(np.max(m["nu1"] - m["nu0"])),
            float(np.max(m["nu0"] - m["nu0_bar"])),
            float(np.max(m["nu1"] - m["nu1_bar"])),
        )
    checks.append((worst <= 1e-12, f"orderings on 10 fields, worst excess {worst:.1e}"))

    f = generate(specs[0])
    m = coefficient_matrix(f, lad, "nu0")
    vals = [square_function_integral(m, 0.4, (10,), float(R)) for R in lad.radii]
    mono = all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))
    checks.append((mono, "integral monotone in the top radius"))

    c1 = carleson_constant(m, 0.4, stride=4).constant
    m2 = coefficient_matrix(SampledField(grid=g, values=2.0 * f.values), lad, "nu0")
    c2 = carleson_constant(m2, 0.4, stride=4).constant
    hom_err = abs(c2 - 4.0 * c1) / (4.0 * c1)
    checks.append((hom_err < 1e-10, f"degree-2 homogeneity rel err {hom_err:.1e}"))
    _report(5, "ordering and homogeneity suite", checks)


def test_criterion_6_annulus_chain():
    checks = []
    for dim, n, stride in ((1, 1024, 2), (2, 32, 1)):
        g = make_grid(dim, n, 1.0)
        lad = make_ladder(g)
        specs = [
            CorpusSpec(family="smooth_bump", grid=g),
            CorpusSpec(family="cusp", grid=g, gamma=0.9),
            CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=31),
            CorpusSpec(family="riesz_of_noise", grid=g, alpha=1.3, seed=32),
        ]
        if dim == 1:
            specs.append(CorpusSpec(family="weierstrass", grid=g, beta_w=0.6, levels=5))
        K = 0.0
        Kp = 0.0
        cubes = make_cube_family(g, stride=max(1, n // 8))
        for s in specs:
            f = generate(s)
            lo, hi = expected_regularity(s).alpha_band
            for a in (0.5, 1.3):
                if not (lo < a <= hi):
                    continue
                base_kind = "nu0" if matching_order(a) == 0 else "nu1"
                Cb = carleson_constant(
                    coefficient_matrix(f, lad, base_kind), a, stride=stride
                ).constant
                Ct = carleson_constant(
                    coefficient_matrix(f, lad, base_kind + "_tilde"), a, stride=stride
                ).constant
                if Cb > 0:
                    K = max(K, Ct / Cb)
                B = strichartz_second(f, a, cubes).B
                if Ct > 0:
                    Kp = max(Kp, B * B / Ct)
        checks.append(
            (
                0.0 < K <= CHAIN_K_CAP[dim] and 0.0 < Kp <= CHAIN_KPRIME_CAP[dim],
                f"d={dim}: recorded K={K:.2f} (cap {CHAIN_K_CAP[dim]}), "
                f"K'={Kp:.2f} (cap {CHAIN_KPRIME_CAP[dim]})",
            )
        )
    _report(6, "annulus-coefficient chain", checks)


def test_criterion_7_mollified_energy_bound():
    checks = []
    for dim, n, kmax in ((1, 256, 8), (2, 32, 5)):
        g = make_grid(dim, n, 1.0)
        g2 = make_grid(dim, 2 * n, 1.0)
        ladder = make_ladder(g)  # matched ladder for the refinement study
        for alpha in (0.5, 1.5):
            kind = "nu0_bar" if alpha < 1 else "nu1_bar"

            def record(grid):
                worst = 0.0
                for seed in range(20):
                    f = band_limited_field(grid, seed, kmax)
                    lhs = full_domain_square_integral(
                        coefficient_matrix(f, ladder, kind), alpha
                    )
                    worst = max(worst, lhs / dalpha_energy(f, alpha))
                return worst

            Ka, Kb = record(g), record(g2)
            drift = abs(Kb - Ka) / Ka
            cap = ENERGY_K_CAP[(dim, alpha)]
            checks.append(
                (
                    Kb <= cap and drift < 0.25,
                    f"d={dim} a={alpha}: K''={Kb:.3f} (cap {cap}), drift {drift:.3f}",
                )
            )
    _report(7, "mollified square integral vs spectral energy", checks)


def test_criterion_8_regularity_recovery():
    checks = []
    g = make_grid(1, 8192, 1.0)
    lad = make_ladder(g, top_radius=1.0 / 8.0, levels=7)
    for gamma in (0.3, 0.5, 0.7):
        f = generate(CorpusSpec(family="cusp", grid=g, gamma=gamma))
        slope = roughness_exponent(f, lad, center=(4096,))
        rel = abs(slope - gamma) / gamma
        checks.append((rel < 0.15, f"gamma={gamma}: slope={slope:.4f} rel err {rel:.3f}"))
    _report(8, "regularity recovery from annulus coefficients", checks)


def test_criterion_9_determinism_and_round_trip(tmp_path):
    checks = []

    g = make_grid(1, 128, 1.0)
    spec = CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.8, seed=77)
    f = generate(spec)
    p = tmp_path / "rt.fld"
    save_field(f, p, extra=spec.params())
    got, _ = load_field(p)
    checks.append((np.array_equal(got.values, f.values), "field file round-trip bit-exact"))

    fld = tmp_path / "f.fld"
    smooth = tmp_path / "smooth.fld"
    cloud = tmp_path / "cloud.txt"
    t = np.linspace(0.0, 1.0, 64)
    cloud.write_text(
        "\n".join(f"{float(x)!r} {float(np.sin(x))!r}" for x in t) + "\n"
    )
    rc = cli_main(
        ["generate", "--family", "smooth_bump", "--n", "128", "--out", str(smooth)]
    )
    checks.append((rc == EXIT_OK, "smooth graph input generated"))
    commands = {
        "generate": ["generate", "--family", "cusp", "--gamma", "0.5", "--n", "128",
                     "--out", str(fld)],
        "coeffs": ["coeffs", "--field", str(fld), "--kind", "nu1", "--levels", "3",
                   "--out", str(tmp_path / "m.csv")],
        "sqfn": ["sqfn", "--field", str(fld), "--kind", "nu0", "--alpha", "0.5",
                 "--stride", "8", "--out-json", str(tmp_path / "sq.json"),
                 "--out-csv", str(tmp_path / "sq.csv")],
        "bmo": ["bmo", "--field", str(fld), "--stride", "8",
                "--out-json", str(tmp_path / "bmo.json")],
        "strichartz": ["strichartz", "--field", str(fld), "--alpha", "0.5", "--order",
                       "second", "--stride", "32", "--out-json", str(tmp_path / "st.json")],
        "fracderiv": ["fracderiv", "--field", str(fld), "--alpha", "0.7",
                      "--out", str(tmp_path / "d.fld")],
        "compare": ["compare", "--field", str(fld), "--alphas", "0.5,1.3", "--stride", "8",
                    "--out", str(tmp_path / "cmp.json")],
        "beta": ["beta", "--graph", "--field", str(smooth), "--levels", "3", "--stride", "16",
                 "--out", str(tmp_path / "g.csv")],
        "beta-cloud": ["beta", "--cloud", str(cloud), "--radius", "2.0", "--k", "1",
                       "--out", str(tmp_path / "b.csv")],
    }
    outputs = {
        "generate": [fld],
        "coeffs": [tmp_path / "m.csv", tmp_path / "m.csv.json"],
        "sqfn": [tmp_path / "sq.json", tmp_path / "sq.csv"],
        "bmo": [tmp_path / "bmo.json"],
        "strichartz": [tmp_path / "st.json"],
        "fracderiv": [tmp_path / "d.fld"],
        "compare": [tmp_path / "cmp.json"],
        "beta": [tmp_path / "g.csv", tmp_path / "g.csv.json"],
        "beta-cloud": [tmp_path / "b.csv", tmp_path / "b.csv.json"],
    }
    for name, argv in commands.items():
        rc1 = cli_main(argv)
        first = [path.read_bytes() for path in outputs[name]]
        rc2 = cli_main(argv)
        second = [path.read_bytes() for path in outputs[name]]
        same = rc1 == EXIT_OK and rc2 == EXIT_OK and first == second
        checks.append((same, f"{name} re-run byte-identical"))

    _report(9, "determinism and round-trip", checks)
