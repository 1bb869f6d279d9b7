"""Cutoff profiles, moment checks, mollified reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenopart as pp
from conftest import make_ensemble

ALL_CUTOFFS = ("gaussian", "gaussian-trunc", "bspline3", "gaussian4")


@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_declared_moments_hold(name):
    phi = pp.build_cutoff(name)
    rep = pp.verify_moments(phi)
    assert rep.passes
    assert abs(rep.moments[0] - 1.0) <= 1e-10
    for m in rep.moments[1:]:
        assert abs(m) <= 1e-8


def test_truncated_gaussian_normalization():
    # the renormalization constant is erf(5 / sqrt 2)
    assert math.erf(5.0 / math.sqrt(2.0)) == pytest.approx(
        0.9999994266968563, abs=1e-16)
    phi = pp.build_cutoff("gaussian-trunc")
    rep = pp.verify_moments(phi)
    assert abs(rep.moments[0] - 1.0) <= 1e-12


def test_supports_are_hard_zero():
    u = np.array([-9.5, -9.01, 9.01, 11.0])
    assert np.all(pp.build_cutoff("gaussian").profile(u) == 0.0)
    assert np.all(pp.build_cutoff("gaussian4").profile(u) == 0.0)
    u = np.array([-2.0, 2.0, 2.5, -3.0])
    assert np.all(pp.build_cutoff("bspline3").profile(u) == 0.0)
    u = np.array([-5.5, 5.1])
    assert np.all(pp.build_cutoff("gaussian-trunc").profile(u) == 0.0)


def test_bspline3_values():
    phi = pp.build_cutoff("bspline3")
    assert phi.profile(np.array([0.0]))[0] == pytest.approx(2.0 / 3.0)
    assert phi.profile(np.array([1.0]))[0] == pytest.approx(1.0 / 6.0)
    assert phi.profile(np.array([1.5]))[0] == pytest.approx(1.0 / 48.0)


def test_fourth_order_kernel_has_negative_fourth_moment():
    """(3/2 - u^2/2) G(u): moments 1, 0, 0, 0, then

    integral u^4 phi = 3/2 * 3 - 1/2 * 15 = -3."""
    phi = pp.build_cutoff("gaussian4")
    rep = pp.verify_moments(phi, r=5)
    assert not rep.passes  # moment 4 is genuinely nonzero
    assert rep.moments[4] == pytest.approx(-3.0, abs=1e-8)
    assert all(abs(m) <= 1e-8 for m in rep.moments[1:4])


class TestEpsilonRule:
    def test_balanced_exponent(self):
        # kappa = 1, r = 2 gives q = 1/3
        assert pp.epsilon_rule(1e-3, kappa=1, r=2) == pytest.approx(0.1)
        assert pp.epsilon_rule(0.25, q=0.5) == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pp.epsilon_rule(2.0, q=0.5)
        with pytest.raises(ValueError):
            pp.epsilon_rule(0.1)
        with pytest.raises(ValueError):
            pp.epsilon_rule(0.1, q=1.5)

    def test_scaled_radius(self):
        phi = pp.build_cutoff("bspline3")
        assert phi.radius * 0.05 == pytest.approx(0.1)


def test_reconstruction_mass_is_quadrature_exact():
    """Grid integral of the mollified sum equals the particle mass up to
    the grid quadrature error of the cutoff itself."""
    ens = make_ensemble(60, seed=3)
    eps = 0.05
    phi = pp.build_cutoff("bspline3")
    pad = phi.radius * eps
    dx = eps / 4.0
    grid = np.arange(0.0 - pad - 3 * dx, 1.0 + pad + 3 * dx, dx)
    vals = pp.reconstruct(ens, phi, eps, grid[:, None])
    mass = float(np.sum(vals) * dx)
    assert mass == pytest.approx(ens.mass(), abs=1e-12)


def test_project_equals_reconstruct_on_matching_values():
    ens = make_ensemble(25, seed=11)
    phi = pp.build_cutoff("gaussian")
    grid = np.linspace(-0.5, 1.5, 301)[:, None]
    recon = pp.reconstruct(ens, phi, 0.08, grid)
    proj = pp.project(ens.intensities.copy(), ens, phi, 0.08, grid)
    assert recon.tobytes() == proj.tobytes()


def test_project_accepts_callable():
    ens = make_ensemble(25, seed=11)
    phi = pp.build_cutoff("gaussian")
    grid = np.linspace(-0.5, 1.5, 301)[:, None]
    via_callable = pp.project(lambda X: X[:, 0] ** 2, ens, phi, 0.08, grid)
    via_values = pp.project(ens.positions[:, 0] ** 2, ens, phi, 0.08, grid)
    np.testing.assert_array_equal(via_callable, via_values)


def test_reconstruct_2d_single_particle():
    ens = pp.ParticleEnsemble(
        time=0.0, positions=np.array([[0.3, 0.7]]),
        volumes=np.array([0.5]), intensities=np.array([2.0]), h=0.1)
    phi = pp.build_cutoff("gaussian")
    eps = 0.2
    pts = np.array([[0.3, 0.7], [0.5, 0.7], [0.3, 0.5]])
    got = pp.reconstruct(ens, phi, eps, pts)
    g = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    w0 = 2.0 * 0.5 / eps ** 2
    expect = [w0 * g(0) * g(0), w0 * g(1) * g(0), w0 * g(0) * g(1)]
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_unknown_cutoff():
    with pytest.raises(KeyError, match="unknown cutoff"):
        pp.build_cutoff("boxcar")


@settings(max_examples=30)
@given(eps=st.floats(0.02, 0.5), seed=st.integers(0, 500))
def test_mollified_mass_invariance(eps, seed):
    """Total mass survives mollification for any bandwidth: property of
    the unit zeroth moment."""
    ens = make_ensemble(30, seed=seed)
    phi = pp.build_cutoff("bspline3")
    pad = phi.radius * eps + eps
    dx = eps / 8.0
    grid = np.arange(-pad, 1.0 + pad, dx)
    vals = pp.reconstruct(ens, phi, eps, grid[:, None])
    mass = float(np.sum(vals) * dx)
    assert mass == pytest.approx(ens.mass(), rel=1e-9)
