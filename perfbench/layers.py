"""The per-layer metrics, derived from one traced repetition's summary.

A repetition is the workload's set-up (generate and save the input
fields) followed by one batch, both traced.  Layer times are shares of the
repetition's wall time, reported as ``trace.repetition_s``:
``<module>.<function>_frac`` is the inclusive time of that function's
spans, ``_self_frac`` subtracts the time of wrapped children.  Shares keep
a layer that a workload never calls at an honest 0 without printing a
constant time, and they vary less than seconds on a shared host; seconds
are ``share * trace.repetition_s``.  ``_calls`` counts spans.  numpy
counts are made at the numpy call boundary; byte and point counts are
computed from the input array sizes, not measured.
"""

from __future__ import annotations


def _incl(name):
    return lambda s: s["incl"].get(name, 0.0) / s["repetition_s"]


def _self(name):
    return lambda s: s["self"].get(name, 0.0) / s["repetition_s"]


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _numpy(key):
    return lambda s: s["numpy"].get(key, 0)


def _attr(*keys):
    return lambda s: sum(s["attrs"].get(key, 0) for key in keys)


# (metric name, unit, value from a repetition summary)
PER_LAYER = (
    ("coeffs.coefficient_matrix_frac", "frac", _incl("coeffs.coefficient_matrix")),
    ("coeffs.coefficient_matrix_frac.nu0", "frac", _incl("coeffs.coefficient_matrix.nu0")),
    ("coeffs.coefficient_matrix_frac.nu1", "frac", _incl("coeffs.coefficient_matrix.nu1")),
    ("coeffs.coefficient_matrix_frac.nu1_bar", "frac",
     _incl("coeffs.coefficient_matrix.nu1_bar")),
    ("coeffs.coefficient_matrix_calls", "count", _calls("coeffs.coefficient_matrix")),
    ("bmo.make_ball_family_frac", "frac", _incl("bmo.make_ball_family")),
    ("bmo.bmo_norm_frac", "frac", _incl("bmo.bmo_norm")),
    ("bmo.bmo_norm_windows", "count", _attr("bmo.bmo_norm.windows")),
    ("bmo.strichartz_frac", "frac",
     lambda s: _incl("bmo.strichartz_first")(s) + _incl("bmo.strichartz_second")(s)),
    ("bmo.strichartz_cubes", "count",
     _attr("bmo.strichartz_first.cubes", "bmo.strichartz_second.cubes")),
    ("geometry.graph_beta_vs_nu1_self_frac", "frac", _self("geometry.graph_beta_vs_nu1")),
    ("geometry.beta2k_frac", "frac", _incl("geometry.beta2k")),
    ("geometry.beta2k_calls", "count", _calls("geometry.beta2k")),
    ("numpy.eigh_calls", "count", _numpy("numpy.eigh_calls")),
    ("carleson.carleson_constant_frac", "frac", _incl("carleson.carleson_constant")),
    ("carleson.comparability_experiment_self_frac", "frac",
     _self("carleson.comparability_experiment")),
    ("experiments.comparability_ratios_self_frac", "frac",
     _self("experiments.comparability_ratios")),
    ("spectral.fractional_derivative_frac", "frac", _incl("spectral.fractional_derivative")),
    ("spectral.spectral_gradient_frac", "frac", _incl("spectral.spectral_gradient")),
    ("field.mollify_frac", "frac", _incl("field.mollify")),
    ("corpus.generate_frac", "frac", _incl("corpus.generate")),
    ("corpus.save_field_frac", "frac", _incl("corpus.save_field")),
    ("corpus.load_field_frac", "frac", _incl("corpus.load_field")),
    ("cli.main_self_frac", "frac", _self("cli.main")),
    ("cli.bytes_written", "bytes", lambda s: s["bytes_written"]),
    ("numpy.roll_calls", "count", _numpy("numpy.roll_calls")),
    ("numpy.roll_bytes_computed", "bytes", _numpy("numpy.roll_bytes_computed")),
    ("numpy.fft_calls", "count", _numpy("numpy.fft_calls")),
    ("numpy.fft_points", "count", _numpy("numpy.fft_points")),
    ("trace.repetition_s", "s", lambda s: s["repetition_s"]),
    ("process.cpu_s", "s", lambda s: s["cpu_s"]),
    ("trace.overhead_frac", "frac", lambda s: s["overhead_frac"]),
    ("trace.covered_frac", "frac", lambda s: s["root_s"] / s["repetition_s"]),
)

_ALL = ("band-1d", "reports-2d", "bridge-2d")
_BAND_REPORTS = ("band-1d", "reports-2d")

# Call counts that must be nonzero on a workload's traced repetition; a
# renamed or bypassed function then fails the run instead of reading 0.
REQUIRED_CALLS = {
    "coeffs.coefficient_matrix": _ALL,
    "bmo.make_ball_family": _BAND_REPORTS,
    "bmo.bmo_norm": _BAND_REPORTS,
    "bmo.strichartz_first": ("bridge-2d",),
    "bmo.strichartz_second": ("bridge-2d",),
    "geometry.graph_beta_vs_nu1": ("bridge-2d",),
    "geometry.beta2k": ("bridge-2d",),
    "carleson.carleson_constant": _BAND_REPORTS,
    "carleson.comparability_experiment": _BAND_REPORTS,
    "experiments.comparability_ratios": ("band-1d",),
    "spectral.fractional_derivative": _BAND_REPORTS,
    "spectral.spectral_gradient": ("reports-2d", "bridge-2d"),
    "field.mollify": ("reports-2d",),
    "corpus.generate": _ALL,
    "corpus.save_field": _ALL,
    "corpus.load_field": ("reports-2d", "bridge-2d"),
    "cli.main": ("reports-2d", "bridge-2d"),
}
# Per-kind coefficient_matrix calls and numpy counters, same rule.
REQUIRED_COUNTS = {
    "coeffs.coefficient_matrix.nu0": _BAND_REPORTS,
    "coeffs.coefficient_matrix.nu1": _ALL,
    "coeffs.coefficient_matrix.nu1_bar": ("reports-2d",),
    "numpy.roll_calls": _ALL,
    "numpy.fft_calls": _ALL,
    "numpy.eigh_calls": ("bridge-2d",),
}


def zero_call_spans(workload, summary):
    """Mapped spans or numpy counters that recorded no call on ``workload``."""
    counts = {**summary["calls"], **summary["numpy"]}
    return [name for name, loads in {**REQUIRED_CALLS, **REQUIRED_COUNTS}.items()
            if workload in loads and counts.get(name, 0) == 0]


def layer_metrics(summary):
    return {name: {"value": fn(summary), "unit": unit} for name, unit, fn in PER_LAYER}
