"""Tests for the restricted Matern kernel toolkit.

The closed-form kernel is checked against an independent numerical
modified-Bessel oracle (scipy.special.kv), which the package itself never
imports. The limit at r=0 is checked against the Gamma-function identity
lim_{r->0} r^nu K_nu(r) = 2^(nu-1) Gamma(nu).
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, kv

from mfmls import rbf
from mfmls.errors import (
    DuplicateSites,
    FactorizationFailed,
    KernelOrderError,
    TooFewLevels,
)
from mfmls.geometry.cloud import PointCloud
from mfmls.geometry.presets import sphere, torus
from mfmls.geometry.sampling import sample_quasi_uniform
from mfmls.rbf import (
    InterpSystem,
    KernelSpec,
    matern_eval,
    power_field,
    power_function,
    power_rate_study,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


# --- independent oracles (numerical Bessel route) ---------------------------

def bessel_matern(order: int, r: np.ndarray) -> np.ndarray:
    """phi(r) = r^(s-3/2) K_{s-3/2}(r) evaluated with scipy's kv."""
    nu = order - 1.5
    r = np.asarray(r, dtype=float)
    return r**nu * kv(nu, r)


def bessel_matern_zero_limit(order: int) -> float:
    """lim_{r->0} r^nu K_nu(r) = 2^(nu-1) Gamma(nu)."""
    nu = order - 1.5
    return float(2.0 ** (nu - 1.0) * gamma(nu))


# --- kernel closed form vs oracle -------------------------------------------

@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_matern_matches_numerical_bessel(order):
    spec = KernelSpec(order)
    r = np.logspace(-3, math.log10(20.0), 60)
    got = matern_eval(spec, r)
    want = bessel_matern(order, r)
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() < 1e-10


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_matern_zero_limit_matches_gamma_identity(order):
    spec = KernelSpec(order)
    got = float(matern_eval(spec, 0.0))
    want = bessel_matern_zero_limit(order)
    assert got == pytest.approx(want, rel=1e-13)


def test_matern_pinned_values():
    # s=2: phi(r) = sqrt(pi/2) e^{-r}; at r=1 this is about 0.46107
    s2 = KernelSpec(2)
    assert float(matern_eval(s2, 1.0)) == pytest.approx(0.46107, abs=5e-6)
    assert float(matern_eval(s2, 1.0)) == pytest.approx(
        SQRT_HALF_PI * math.exp(-1.0), rel=1e-15
    )
    # s=4: phi(r) = sqrt(pi/2) e^{-r} (r^2 + 3r + 3); phi(0) = 3 sqrt(pi/2)
    s4 = KernelSpec(4)
    assert float(matern_eval(s4, 0.0)) == pytest.approx(3.75994, abs=5e-6)
    assert float(matern_eval(s4, 0.0)) == pytest.approx(3 * SQRT_HALF_PI, rel=1e-15)
    assert float(matern_eval(s4, 1.0)) == pytest.approx(
        SQRT_HALF_PI * math.exp(-1.0) * 7.0, rel=1e-14
    )


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_matern_strictly_decreasing_on_grid(order):
    spec = KernelSpec(order)
    r = np.linspace(0.0, 20.0, 401)
    vals = matern_eval(spec, r)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


@given(
    order=st.sampled_from([2, 3, 4, 5, 6]),
    r1=st.floats(min_value=0.0, max_value=30.0),
    gap=st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_matern_monotone_pairs(order, r1, gap):
    spec = KernelSpec(order)
    assert float(matern_eval(spec, r1)) > float(matern_eval(spec, r1 + gap))


def test_matern_rejects_negative_radius():
    with pytest.raises(ValueError):
        matern_eval(KernelSpec(4), -0.5)


def test_kernel_order_validation():
    for bad in (1, 0, -3):
        with pytest.raises(KernelOrderError):
            KernelSpec(bad)
    with pytest.raises(KernelOrderError):
        KernelSpec(2.5)
    assert KernelSpec(2).n == 0
    assert KernelSpec(6).n == 4


# --- interpolation system ----------------------------------------------------

@pytest.fixture(scope="module")
def torus_sites():
    return sample_quasi_uniform(torus(1.0, 1 / 3), 30, seed=11)


def test_interp_reproduces_values_at_sites(torus_sites):
    spec = KernelSpec(4)
    sys = InterpSystem(spec, torus_sites)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(len(torus_sites))
    alpha = sys.solve(y)
    resid = sys.gram @ alpha - y
    assert np.abs(resid).max() < 1e-8 * np.abs(y).max()


def test_gram_factorization_residual(torus_sites):
    spec = KernelSpec(4)
    sys = InterpSystem(spec, torus_sites)
    lower = np.tril(sys.factor)
    recon = lower @ lower.T
    target = sys.gram + sys.jitter * np.eye(len(torus_sites))
    assert np.abs(recon - target).max() <= 1e-8 * np.abs(sys.gram).max()
    # Gram is exactly symmetric by construction.
    assert np.array_equal(sys.gram, sys.gram.T)


def test_duplicate_sites_rejected():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DuplicateSites):
        InterpSystem(KernelSpec(4), pts)


def test_near_duplicate_sites_still_factorize():
    # Two sites 1e-9 apart give a Gram within a few ulps of singular; the
    # system must come up anyway, with whatever ladder rung that takes.
    pts = np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]])
    spec = KernelSpec(4)
    sys = InterpSystem(spec, pts)
    phi0 = float(matern_eval(spec, 0.0))
    assert sys.jitter in {0.0, 1e-12 * phi0, 1e-10 * phi0}
    p = power_function(spec, pts, np.array([0.5, 0.0, 0.0]))
    assert 0.0 <= p <= math.sqrt(phi0) * (1 + 1e-12)


def test_jitter_escalation_uses_next_rung(monkeypatch, torus_sites):
    # Force the unjittered attempt to fail and check the retry applies the
    # first nonzero rung to the diagonal and records it.
    import mfmls.rbf as rbf_mod
    from scipy.linalg import LinAlgError

    real = rbf_mod.cho_factor
    diagonals = []

    def fail_once(a, lower=False, **kwargs):
        diagonals.append(a[0, 0])
        if len(diagonals) == 1:
            raise LinAlgError("forced failure")
        return real(a, lower=lower, **kwargs)

    monkeypatch.setattr(rbf_mod, "cho_factor", fail_once)
    spec = KernelSpec(4)
    sys = InterpSystem(spec, torus_sites)
    phi0 = float(matern_eval(spec, 0.0))
    assert sys.jitter == pytest.approx(1e-12 * phi0, rel=1e-12)
    assert len(diagonals) == 2
    assert diagonals[1] == pytest.approx(diagonals[0] + 1e-12 * phi0, rel=1e-12)


def test_well_separated_sites_need_no_jitter(torus_sites):
    sys = InterpSystem(KernelSpec(4), torus_sites)
    assert sys.jitter == 0.0


def test_factorization_failed_after_ladder(monkeypatch):
    import mfmls.rbf as rbf_mod
    from scipy.linalg import LinAlgError

    calls = []

    def always_fail(a, lower=False, **kwargs):
        calls.append(a[0, 0])
        raise LinAlgError("forced failure")

    monkeypatch.setattr(rbf_mod, "cho_factor", always_fail)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(FactorizationFailed):
        InterpSystem(KernelSpec(4), pts)
    # the full jitter ladder was attempted before giving up
    assert len(calls) == 3


# --- power function -----------------------------------------------------------

def test_power_zero_at_sites(torus_sites):
    spec = KernelSpec(4)
    phi0 = float(matern_eval(spec, 0.0))
    vals = power_field(spec, torus_sites, torus_sites.points)
    assert vals.shape == (len(torus_sites),)
    assert vals.max() <= 1e-6 * math.sqrt(phi0)


def test_power_empty_site_set():
    spec = KernelSpec(4)
    phi0 = float(matern_eval(spec, 0.0))
    x = np.array([0.3, -0.2, 0.1])
    empty = PointCloud(np.empty((0, 3)))
    assert power_function(spec, empty, x) == pytest.approx(math.sqrt(phi0))
    assert power_function(spec, None, x) == pytest.approx(math.sqrt(phi0))


def test_power_single_site_closed_form():
    spec = KernelSpec(4)
    phi0 = float(matern_eval(spec, 0.0))
    site = np.array([[0.1, 0.2, -0.3]])
    for x in ([0.5, 0.5, 0.5], [0.1, 0.2, -0.3], [2.0, 0.0, 0.0]):
        x = np.asarray(x, dtype=float)
        d = float(np.linalg.norm(x - site[0]))
        phid = float(matern_eval(spec, d))
        want = math.sqrt(max(0.0, phi0 - phid**2 / phi0))
        # at x == site the subtraction cancels only to sqrt(eps * phi0)
        assert power_function(spec, site, x) == pytest.approx(want, abs=1e-7)


def test_power_bounds(torus_sites):
    spec = KernelSpec(3)
    phi0 = float(matern_eval(spec, 0.0))
    rng = np.random.default_rng(5)
    probes = rng.uniform(-1.5, 1.5, size=(200, 3))
    vals = power_field(spec, torus_sites, probes)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= math.sqrt(phi0) * (1 + 1e-12))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    order=st.sampled_from([2, 3, 4, 5]),
)
@settings(max_examples=60, deadline=None)
def test_power_monotone_under_site_addition(seed, order):
    # Adding a site never increases the power function (optimality of the
    # underlying quadratic form).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 14))
    sites = rng.uniform(0.0, 2.0, size=(n + 1, 3))
    from scipy.spatial.distance import pdist

    if pdist(sites).min() < 0.05:
        return  # skip pathological draws; conditioning is not under test here
    spec = KernelSpec(order)
    probes = rng.uniform(0.0, 2.0, size=(20, 3))
    p_small = power_field(spec, sites[:n], probes)
    p_big = power_field(spec, sites, probes)
    assert np.all(p_big <= p_small + 1e-8)


def test_power_field_matches_pointwise(torus_sites):
    spec = KernelSpec(4)
    rng = np.random.default_rng(9)
    probes = rng.uniform(-1.5, 1.5, size=(25, 3))
    field = power_field(spec, torus_sites, probes)
    single = np.array([power_function(spec, torus_sites, x) for x in probes])
    assert np.allclose(field, single, rtol=0, atol=1e-13)


# --- rate study ---------------------------------------------------------------

def test_power_rate_study_needs_three_levels():
    with pytest.raises(TooFewLevels):
        power_rate_study(KernelSpec(2), sphere(), [100, 200], seed=3)


def test_power_rate_study_smoke_sphere():
    # s=2 has native-space order k = 2s-3 = 1, so theory predicts slope 1/2;
    # at desk scale anything comfortably above 0.4 is on-rate.
    study = power_rate_study(KernelSpec(2), sphere(), [50, 100, 200], seed=3)
    assert study.sup_power.shape == (3,)
    assert np.all(np.diff(study.sup_power) < 0)
    assert np.all(np.diff(study.fill_distances) < 0)
    assert study.slope >= 0.4
    assert math.isfinite(study.residual)


def test_power_rate_study_deterministic():
    ladder = [30, 60, 120]
    a = power_rate_study(KernelSpec(2), sphere(), ladder, seed=3)
    b = power_rate_study(KernelSpec(2), sphere(), ladder, seed=3)
    assert np.array_equal(a.sup_power, b.sup_power)
    assert np.array_equal(a.fill_distances, b.fill_distances)
    assert a.slope == b.slope


def test_power_rate_study_keeps_its_levels():
    spec = KernelSpec(2)
    study = power_rate_study(spec, sphere(), [30, 60, 120], seed=3)
    assert len(study.levels) == 3
    for n, h, sup, level in zip(study.site_counts, study.fill_distances,
                                study.sup_power, study.levels):
        assert level.sites.fill_distance == h
        assert level.probe_power.max() == sup
        assert len(level.probes) > 6 * n  # probe_factor 8, within 10%
        # A rebuilt system is the study's bit for bit.
        system = InterpSystem(spec, level.sites)
        np.testing.assert_array_equal(
            level.site_power, system.power_values(level.sites.points))
        np.testing.assert_array_equal(
            level.probe_power, system.power_values(level.probes.points))


def test_power_rate_study_keeps_one_system_alive(monkeypatch):
    built, alive_at_build = [], []

    class RecordingSystem(InterpSystem):
        def __init__(self, spec, sites):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            super().__init__(spec, sites)
            built.append(weakref.ref(self))

    monkeypatch.setattr(rbf, "InterpSystem", RecordingSystem)
    study = power_rate_study(KernelSpec(2), sphere(), [30, 60, 120], seed=3)
    gc.collect()
    assert len(study.levels) == len(built) == 3
    assert alive_at_build == [0, 0, 0]
    assert all(ref() is None for ref in built)
