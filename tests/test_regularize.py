"""Cutoff profiles, moment checks, mollified reconstruction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenopart as pp
from conftest import make_ensemble, verify_moments
from phenopart.regularize import CUTOFFS, _kernel_sum

ALL_CUTOFFS = ("gaussian", "gaussian-trunc", "bspline3", "gaussian4")


@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_declared_moments_hold(name):
    phi = pp.build_cutoff(name)
    rep = verify_moments(phi)
    assert rep.passes
    assert abs(rep.moments[0] - 1.0) <= 1e-10
    for m in rep.moments[1:]:
        assert abs(m) <= 1e-8


def test_truncated_gaussian_normalization():
    # the renormalization constant is erf(5 / sqrt 2)
    assert math.erf(5.0 / math.sqrt(2.0)) == pytest.approx(
        0.9999994266968563, abs=1e-16)
    phi = pp.build_cutoff("gaussian-trunc")
    rep = verify_moments(phi)
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
    rep = verify_moments(phi, r=5)
    assert not rep.passes  # moment 4 is genuinely nonzero
    assert rep.moments[4] == pytest.approx(-3.0, abs=1e-8)
    assert all(abs(m) <= 1e-8 for m in rep.moments[1:4])


class TestEpsilonRule:
    def test_balanced_exponent(self):
        # kappa = 1, r = 2 gives q = kappa / (kappa + r) = 1/3
        assert pp.epsilon_rule(1e-3, q=1 / 3) == pytest.approx(0.1)
        assert pp.epsilon_rule(0.25, q=0.5) == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pp.epsilon_rule(2.0, q=0.5)
        with pytest.raises(TypeError):
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


def _dense_kernel_sum(grid, positions, coef, phi, eps):
    """Every (grid row, particle) pair in 2048-row tiles and 512-particle
    blocks: the reference `_kernel_sum` must match bit for bit."""
    G, d = grid.shape
    out = np.zeros(G)
    scale = eps ** (-d)
    for gs in range(0, G, 2048):
        gb = grid[gs:gs + 2048]
        acc = np.zeros(gb.shape[0])
        for ps in range(0, positions.shape[0], 512):
            pb = positions[ps:ps + 512]
            cb = coef[ps:ps + 512]
            U = (gb[:, None, :] - pb[None, :, :]) / eps
            W = phi.profile(U[..., 0])
            for k in range(1, d):
                W = W * phi.profile(U[..., k])
            acc += np.add.reduce(W * cb[None, :], axis=-1)
        out[gs:gs + 2048] = acc * scale
    return out


def _frozen_bspline3(u):
    a = np.abs(u)
    out = np.zeros_like(a)
    inner = a <= 1.0
    outer = (a > 1.0) & (a < 2.0)
    ai = a[inner]
    ao = a[outer]
    out[inner] = 2.0 / 3.0 - ai * ai + 0.5 * ai ** 3
    out[outer] = (2.0 - ao) ** 3 / 6.0
    return out


# the profiles as they were written before they evaluated into `out`
_SQRT2PI = math.sqrt(2.0 * math.pi)
FROZEN_PROFILES = {
    "gaussian": lambda u: np.where(
        np.abs(u) <= 9.0, np.exp(-0.5 * u * u) / _SQRT2PI, 0.0),
    "gaussian-trunc": lambda u: np.where(
        np.abs(u) <= 5.0,
        np.exp(-0.5 * u * u) / (_SQRT2PI * 0.9999994266968563), 0.0),
    "bspline3": _frozen_bspline3,
    "gaussian4": lambda u: np.where(
        np.abs(u) <= 9.0,
        (1.5 - 0.5 * u * u) * np.exp(-0.5 * u * u) / _SQRT2PI, 0.0),
}


@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_in_place_profile_matches_frozen_expression(name):
    """At the support edge, one step beyond it, signed zeros, subnormals,
    +-1e300 and across the support, `profile(u, out)` fills every entry of
    `out` with the bits of the old expression, and returns `out`; with no
    `out` it gives the same bits and leaves `u` as it was."""
    phi = CUTOFFS[name]
    r = phi.radius
    tiny = np.finfo(float).smallest_subnormal
    u = np.concatenate([
        [r, -r, np.nextafter(r, np.inf), np.nextafter(-r, -np.inf),
         0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e300, -1e300],
        [np.nextafter(b, s) for b in phi.breakpoints
         for s in (-np.inf, np.inf)], phi.breakpoints,
        np.linspace(-r - 1.0, r + 1.0, 1001)])
    with np.errstate(over="ignore", invalid="ignore"):
        expect = FROZEN_PROFILES[name](u)
        out = np.full_like(u, np.nan)
        # with `out` the profile may overwrite its `u`
        assert phi.profile(u.copy(), out) is out
        kept = u.copy()
        fresh = phi.profile(u)
    assert out.tobytes() == expect.tobytes()
    assert fresh.tobytes() == expect.tobytes()
    assert u.tobytes() == kept.tobytes()


def _counting(phi):
    """`phi` with a profile that tallies the values it is asked for."""
    calls = []

    def profile(u, out=None):
        calls.append(np.size(u))
        return phi.profile(u, out)

    return dataclasses.replace(phi, profile=profile), calls


@settings(max_examples=60)
@given(d=st.sampled_from([1, 2]), name=st.sampled_from(ALL_CUTOFFS),
       n=st.integers(1, 1300), rows=st.integers(1, 1000),
       log_eps=st.floats(-3.0, 0.0), shuffle=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_kernel_sum_matches_dense_bit_for_bit(d, name, n, rows, log_eps,
                                              shuffle, seed):
    """Skipping far particle blocks and tiling the grid change no bit."""
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(0.0, 1.0, size=(n, d)), axis=0)
    if shuffle:
        positions = positions[rng.permutation(n)]
    coef = rng.normal(size=n)
    grid = np.sort(rng.uniform(-1.0, 2.0, size=(rows, d)), axis=0)
    phi, eps = CUTOFFS[name], 10.0 ** log_eps
    got = _kernel_sum(grid, positions, coef, phi, eps)
    assert got.tobytes() == _dense_kernel_sum(
        grid, positions, coef, phi, eps).tobytes()


@pytest.mark.parametrize("n", [3200, 3201])
def test_kernel_sum_matches_dense_at_converge_fine_shapes(n):
    """`converge-fine`'s finest run: 12 001 rows on [-0.25, 1.25] (93 full
    tiles and one of 97 rows) against a lattice of n particles with
    eps = h^0.5.  At n = 3201 the last block holds one particle.  A stale
    value left in a reused tile buffer would change bits here."""
    h = 1.0 / n
    positions = ((np.arange(n) + 0.5) * h)[:, None]
    coef = h * np.random.default_rng(n).uniform(0.5, 1.5, size=n)
    grid = np.arange(-0.25, 1.25 + 1e-9, 1.0 / 8000)[:, None]
    assert grid.shape[0] == 93 * 128 + 97
    phi, eps = CUTOFFS["gaussian"], h ** 0.5
    got = _kernel_sum(grid, positions, coef, phi, eps)
    assert got.tobytes() == _dense_kernel_sum(
        grid, positions, coef, phi, eps).tobytes()


@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_kernel_sum_matches_dense_on_partial_2d_tiles(name):
    """2D, 300 rows (two full tiles and one of 44) against 1100 particles
    (two full blocks and one of 76): the axis-factor buffer is reused too."""
    rng = np.random.default_rng(17)
    positions = rng.uniform(0.0, 1.0, size=(1100, 2))
    coef = rng.normal(size=1100)
    grid = rng.uniform(-0.5, 1.5, size=(300, 2))
    phi = CUTOFFS[name]
    got = _kernel_sum(grid, positions, coef, phi, 0.3)
    assert got.tobytes() == _dense_kernel_sum(
        grid, positions, coef, phi, 0.3).tobytes()


@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_support_edge_matches_dense(name):
    """A particle at, just beyond or well inside radius * eps of the grid
    tile, on either side: the skip rule drops no pair that counts."""
    phi, eps = CUTOFFS[name], 0.5
    reach = phi.radius * eps
    edge = int(phi.profile(np.array([phi.radius]))[0] != 0.0)
    grid = np.array([[0.0], [0.25]])
    for x, nonzero in [(0.25 + reach, edge),
                       (np.nextafter(0.25 + reach, np.inf), 0),
                       (0.25 + 0.95 * reach, 1),
                       (-reach, edge),
                       (np.nextafter(-reach, -np.inf), 0),
                       (-0.95 * reach, 1)]:
        pos, coef = np.array([[x]]), np.ones(1)
        got = _kernel_sum(grid, pos, coef, phi, eps)
        assert got.tobytes() == _dense_kernel_sum(
            grid, pos, coef, phi, eps).tobytes()
        assert np.count_nonzero(got) == nonzero


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_column_window_edges_match_dense(name, reverse):
    """One block of 7 particles against rows 0 and 0.25: one ulp beyond
    reach on the left, exactly at reach (u = radius for one row), three
    inside, at reach and one ulp beyond on the right.  The window is the 5
    columns in reach, so the profile sees 2 x 5 values, and the row sums
    keep every bit of the dense sum."""
    phi, eps = CUTOFFS[name], 0.5
    reach = phi.radius * eps
    x = np.array([np.nextafter(-reach, -np.inf), -reach, -0.95 * reach, 0.1,
                  0.25 + 0.95 * reach, 0.25 + reach,
                  np.nextafter(0.25 + reach, np.inf)])
    if reverse:
        x = x[::-1]
    pos = x[:, None]
    coef = np.random.default_rng(3).uniform(0.5, 1.5, size=7)
    grid = np.array([[0.0], [0.25]])
    counted, calls = _counting(phi)
    got = _kernel_sum(grid, pos, coef, counted, eps)
    assert calls == [2 * 5]
    assert got.tobytes() == _dense_kernel_sum(
        grid, pos, coef, phi, eps).tobytes()


@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_block_with_no_column_in_reach_is_skipped(name):
    """An L-shaped set along the two axes of [0, 1]^2 has the unit square
    for its bounding box, which holds the grid tile near (0.9, 0.9); yet
    each of its particles is 0.8 or more from the tile on one axis, beyond
    reach.  The block is skipped without a profile call, and the rows stay
    +0.0 as in the dense sum."""
    s = np.linspace(0.0, 1.0, 50)
    pos = np.concatenate([np.stack([s, 0.0 * s], axis=1),
                          np.stack([0.0 * s, s], axis=1)])
    coef = np.random.default_rng(4).normal(size=pos.shape[0])
    grid = np.random.default_rng(5).uniform(0.8, 1.0, size=(20, 2))
    phi = CUTOFFS[name]
    eps = 0.7 / phi.radius
    counted, calls = _counting(phi)
    got = _kernel_sum(grid, pos, coef, counted, eps)
    assert calls == []
    assert np.all(got == 0.0) and not np.any(np.signbit(got))
    assert got.tobytes() == _dense_kernel_sum(
        grid, pos, coef, phi, eps).tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_signed_and_zero_coefficients_match_dense(d, name):
    """Signed coefficients on [0, 1]^d, a pair at 2 with coefficients 1.5
    and -1.5, three zero coefficients at 3, and a far particle at 9 that
    narrows each block's window.  The row that only the pair reaches sums
    to exactly 0, and the row that only the zeros reach adds profile
    values times 0 (gaussian4's are negative there, so the products are
    -0.0): both read +0.0, as in the dense sum, and every other bit
    matches too."""
    rng = np.random.default_rng(6)
    pos = np.concatenate([rng.uniform(0.0, 1.0, size=(600, d)),
                          np.full((2, d), 2.0), np.full((3, d), 3.0),
                          np.full((1, d), 9.0)])
    coef = np.concatenate([rng.normal(size=600), [1.5, -1.5],
                           np.zeros(3), [2.0]])
    pair_row, zero_row = np.full(d, 2.01), np.full(d, 3.0)
    zero_row[0] = 3.1
    grid = np.concatenate([rng.uniform(-0.5, 1.5, size=(200, d)),
                           [pair_row, zero_row, np.full(d, 8.5)]])
    phi = CUTOFFS[name]
    got = _kernel_sum(grid, pos, coef, phi, 0.05)
    assert got.tobytes() == _dense_kernel_sum(
        grid, pos, coef, phi, 0.05).tobytes()
    assert np.all(got[200:] == 0.0) and not np.any(np.signbit(got[200:]))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", ALL_CUTOFFS)
def test_far_grid_is_positive_zero_without_profile_calls(d, name):
    ens = make_ensemble(700, seed=5, dim=d)
    grid = np.linspace(5.0, 6.0, 300)[:, None].repeat(d, axis=1)
    phi, calls = _counting(CUTOFFS[name])
    out = pp.reconstruct(ens, phi, 0.05, grid)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
    assert calls == []


def test_kernel_sum_skips_most_far_pairs():
    """On a 1D lattice at n = 3200 with eps = h^0.5 and the oracle grid of
    `converge`, fewer than a quarter of the dense pairs reach the profile
    (22%: only the columns in reach of each tile are evaluated)."""
    n = 3200
    h = 1.0 / n
    positions = ((np.arange(n) + 0.5) * h)[:, None]
    grid = np.arange(-0.25, 1.25 + 1e-9, 1.0 / 8000)[:, None]
    phi, calls = _counting(CUTOFFS["gaussian"])
    _kernel_sum(grid, positions, np.full(n, h), phi, h ** 0.5)
    assert 0 < sum(calls) < 0.25 * grid.shape[0] * n


@pytest.mark.parametrize("where, bad", [
    ("positions", np.nan), ("positions", -np.inf),
    ("coef", np.nan), ("coef", np.inf),
    ("grid", np.nan), ("grid", np.inf),
    ("eps", np.nan), ("eps", np.inf)])
def test_kernel_sum_rejects_non_finite_particles(where, bad):
    """A NaN grid row would read as zero density and an infinite eps as
    zero everywhere: non-finite inputs are refused, not summed."""
    ens = make_ensemble(30, seed=2)
    args = {"positions": ens.positions.copy(), "coef": ens.alpha(),
            "grid": np.linspace(0.0, 1.0, 50)[:, None], "eps": 0.1}
    if where == "eps":
        args["eps"] = bad
    else:
        args[where][7] = bad
    with pytest.raises(ValueError, match="finite"):
        _kernel_sum(phi=CUTOFFS["gaussian"], **args)


@pytest.mark.parametrize("d, eps", [(1, 1e-320), (2, 1e-160)])
def test_kernel_sum_rejects_an_eps_whose_scale_overflows(d, eps):
    """eps^-d must be a float: a smaller eps is refused by name, not left
    to raise a bare OverflowError."""
    ens = make_ensemble(30, seed=2, dim=d)
    grid = np.linspace(0.0, 1.0, 50)[:, None].repeat(d, axis=1)
    with pytest.raises(ValueError, match=f"eps={eps!r}"):
        pp.reconstruct(ens, CUTOFFS["gaussian"], eps, grid)
