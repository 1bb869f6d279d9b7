from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy import integrate

import phenopart as pp
from phenopart.model import advection_inputs, divergence_field, velocity_field

settings.register_profile(
    "deterministic",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def advsel_profile():
    return pp.build_profile("one-minus-x")


@pytest.fixture(scope="session")
def advsel_model(advsel_profile):
    # a = x(1-x), R = 6 - 4x - I, both rest points inside the support
    return pp.build_model("advsel1d", advsel_profile.support)


def make_ensemble(n, seed=0, dim=1, h=None):
    """Random but reproducible particle cloud on the unit box."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 1.0, size=(n, dim))
    volumes = np.full(n, 1.0 / n) * rng.uniform(0.5, 1.5, size=n)
    intensities = rng.uniform(0.1, 3.0, size=n)
    return pp.ParticleEnsemble(
        time=0.0, positions=positions, volumes=volumes,
        intensities=intensities, h=h if h is not None else 1.0 / n)


@dataclass(frozen=True)
class MomentReport:
    """Measured 1D moments of a cutoff profile up to order r - 1."""

    moments: tuple          # (m_0, ..., m_{r-1})
    passes: bool            # |m_0 - 1| <= 1e-10, higher |m_alpha| <= 1e-8


def verify_moments(phi, r=None):
    """Adaptive quadrature of the profile moments with declared breakpoints.

    Passes when |m_0 - 1| <= 1e-10 and |m_alpha| <= 1e-8 for
    1 <= alpha <= r - 1.  Product-form extension to d dimensions preserves
    these moment identities, so the 1D check covers all dimensions.
    """
    r = r or phi.r_order
    pts = sorted(set((-phi.radius, phi.radius) + tuple(phi.breakpoints)))
    inner = [p for p in pts if -phi.radius < p < phi.radius]
    moments = []
    for alpha in range(r):
        val, _err = integrate.quad(
            lambda u, a=alpha: u ** a * float(phi.profile(np.array([u]))[0]),
            -phi.radius, phi.radius, points=inner or None, limit=200,
            epsabs=1e-13, epsrel=1e-13)
        moments.append(val)
    mass_error = abs(moments[0] - 1.0)
    max_higher = max((abs(m) for m in moments[1:]), default=0.0)
    return MomentReport(moments=tuple(moments),
                        passes=(mass_error <= 1e-10 and max_higher <= 1e-8))


def velocity_and_divergence(model, X, ens, t=0.0):
    """Velocity (n, d) and divergence (n,) at the rows of X against the
    ensemble, through the field evaluators an RK4 stage calls."""
    Y, alpha = ens.positions, ens.alpha()
    I = advection_inputs(model, t, X, Y, alpha)
    return (velocity_field(model, t, X, I),
            divergence_field(model, t, X, Y, alpha, I))


@pytest.fixture
def random_ensemble():
    return make_ensemble(40, seed=7)
