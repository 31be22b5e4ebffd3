import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from frames import same_bits
from epscontact import cauchy as cy
from epscontact.errors import DegenerateParameters, SingularMetric


def whole_grid(d):
    """d's whole grid as one strip, as a one-strip pass loads it: planes
    (..., 1, nx, ny), the slice axis of a strip of one slice."""
    return cy._Strip(d, (slice(None),), d.grid)


def coordinates(grid):
    """x and y at every node of grid, as (nx, ny) arrays."""
    x = np.arange(grid.nx)[:, None] * grid.hx * np.ones((1, grid.ny))
    y = np.ones((grid.nx, 1)) * np.arange(grid.ny)[None, :] * grid.hy
    return x, y


def christoffel(d):
    """Gamma[x, y, k, i, j] at every node: the library's body on d's whole grid."""
    return np.moveaxis(cy.christoffel(whole_grid(d))[..., 0, :, :], (0, 1, 2), (2, 3, 4))


def scalar_curvature(d):
    """R^q at every node (2 x Gauss curvature): the library's geometry and
    curvature bodies on d's whole grid."""
    strip = whole_grid(d)
    return cy._scalar_curvature(strip.inv, cy.christoffel(strip), d.grid)[0]


def flat_data(n=16, alpha_dir=0):
    grid = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
    q = np.zeros((n, n, 2, 2))
    q[..., 0, 0] = 1.0
    q[..., 1, 1] = 1.0
    alpha = np.zeros((n, n, 2))
    alpha[..., alpha_dir] = 1.0
    return cy.SurfaceData(
        grid, q, np.zeros((n, n, 2, 2)), np.zeros((n, n)), alpha, np.ones((n, n))
    )


def test_flat_torus_constraints_exact_zero():
    res = cy.constraint_residuals(flat_data(), 1, 0.0, 0.0)
    assert res.curl == 0.0
    assert res.norm == 0.0
    assert res.hamiltonian == 0.0
    assert res.momentum == 0.0


def test_epsilon_recovered():
    def recovered_epsilon(d):  # mean of |alpha|^2_q - F^2 over the grid
        norm2 = np.einsum("xyij,xyi,xyj->xy", np.linalg.inv(d.q), d.alpha, d.alpha)
        return float(np.mean(norm2 - d.F**2))

    assert abs(recovered_epsilon(flat_data()) - 1.0) < 1e-14
    iso = cy.example_null_isothermal(cy.isothermal_grid(16, 16), 1.0)
    assert abs(recovered_epsilon(iso)) < 1e-14


def test_randomized_theta_breaks_hamiltonian():
    d = flat_data()
    rng = np.random.default_rng(0)
    theta = rng.normal(size=d.theta.shape, scale=0.1)
    theta = 0.5 * (theta + np.swapaxes(theta, 2, 3))
    perturbed = cy.SurfaceData(d.grid, d.q, theta, d.F, d.alpha, d.beta)
    res = cy.constraint_residuals(perturbed, 1, 0.0, 0.0)
    assert res.hamiltonian > 1e-3


def test_singular_metric_rejected():
    n = 8
    grid = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
    q = np.zeros((n, n, 2, 2))  # zero metric
    with pytest.raises(SingularMetric):
        cy.SurfaceData(grid, q, np.zeros((n, n, 2, 2)), np.zeros((n, n)),
                       np.zeros((n, n, 2)), np.ones((n, n)))


def test_flat_paracontact_generator_values():
    grid = cy.SurfaceGrid(8, 8, 0.125, 0.125)
    seq = cy.example_flat_paracontact(grid, [0.0, 0.1, 0.2], 1.0, 0.0)
    first = seq.slices[0]
    # alpha components at t = 0 with (l1, l2) = (1, 0): (0, 1), e^{2U} = 1
    assert np.allclose(first.alpha[..., 0], 0.0)
    assert np.allclose(first.alpha[..., 1], 1.0)
    assert np.allclose(first.q[..., 0, 0], 1.0)
    with pytest.raises(DegenerateParameters):
        cy.example_flat_paracontact(grid, [0.0, 0.1, 0.2], 0.0, 0.0)


def test_flat_paracontact_constraints_and_static_case():
    grid = cy.SurfaceGrid(8, 8, 0.125, 0.125)
    seq = cy.example_flat_paracontact(grid, np.linspace(0, 0.2, 5), 1.0, 0.5)
    for s in seq.slices:
        res = cy.constraint_residuals(s, 1, 0.0, 0.0)
        assert res.max_residual() < 1e-13
    # static flat slices with vanishing alpha: both evolution residuals ~ 0
    # (the alpha-flow equation forces rotation for any nonzero alpha)
    n = 8
    g0 = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
    q = np.zeros((n, n, 2, 2))
    q[..., 0, 0] = 1.0
    q[..., 1, 1] = 1.0
    zero_slice = cy.SurfaceData(g0, q, np.zeros((n, n, 2, 2)), np.zeros((n, n)),
                                np.zeros((n, n, 2)), np.ones((n, n)))
    static = cy.SurfaceSequence(tuple([zero_slice] * 3), 0.1)
    evo = cy.evolution_residuals(static, 1, 0.0, 0.0)
    assert evo.alpha_flow < 1e-13 and evo.ricci_flow < 1e-13


def test_flat_paracontact_evolution_second_order_in_time():
    resids = []
    for factor in (1, 2):
        n = 8
        steps = 8 * factor + 1
        dt = 0.1 / factor
        grid = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
        seq = cy.example_flat_paracontact(grid, [k * dt for k in range(steps)], 1.0, 0.5)
        evo = cy.evolution_residuals(seq, 1, 0.0, 0.0)
        assert evo.ricci_flow < 1e-12
        resids.append(evo.alpha_flow)
    assert resids[0] / resids[1] >= 3.5


def test_flipped_alpha_detected():
    grid = cy.SurfaceGrid(8, 8, 0.125, 0.125)
    seq = cy.example_flat_paracontact(grid, np.linspace(0, 0.4, 5), 1.0, 0.5)
    flipped = []
    for s in seq.slices:
        alpha = s.alpha.copy()
        alpha[..., 1] *= -1.0
        flipped.append(cy.SurfaceData(s.grid, s.q, s.theta, s.F, alpha, s.beta))
    evo = cy.evolution_residuals(cy.SurfaceSequence(tuple(flipped), seq.dt), 1, 0.0, 0.0)
    assert evo.alpha_flow > 0.5  # O(1) failure


def test_null_isothermal_residuals_and_convergence():
    curls = []
    for n in (32, 64):
        data = cy.example_null_isothermal(cy.isothermal_grid(n, n), 1.0)
        res = cy.constraint_residuals(data, 0, 0.0, 0.0)
        assert res.norm < 1e-13      # exact by construction
        assert res.hamiltonian < 1e-13
        assert res.momentum < 1e-13
        curls.append(res.curl)
    assert curls[0] > 1e-5  # discretization error present
    assert curls[0] / curls[1] >= 3.5  # second-order convergence


def test_null_isothermal_f0_zero_exact():
    data = cy.example_null_isothermal(cy.isothermal_grid(32, 32), 0.0)
    res = cy.constraint_residuals(data, 0, 0.0, 0.0)
    assert res.curl == 0.0  # constant alpha is closed exactly


def test_curvature_stencil_on_curved_metric():
    # conformally flat metric with known scalar curvature:
    # q = e^{2u} Id with u = a sin(2 pi x) sin(2 pi y) has R = -2 e^{-2u} Lap(u)
    for n, record in ((32, True), (64, False)):
        grid = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
        x, y = coordinates(grid)
        u = 0.05 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        lap_u = -2.0 * (2 * np.pi) ** 2 * u
        q = np.zeros((n, n, 2, 2))
        q[..., 0, 0] = np.exp(2 * u)
        q[..., 1, 1] = np.exp(2 * u)
        d = cy.SurfaceData(grid, q, np.zeros((n, n, 2, 2)), np.zeros((n, n)),
                           np.zeros((n, n, 2)), np.ones((n, n)))
        r_exact = -2.0 * np.exp(-2 * u) * lap_u
        err = float(np.max(np.abs(scalar_curvature(d) - r_exact)))
        if record:
            err32 = err
        else:
            assert err32 / err >= 3.5  # second-order stencils


def curved_metric_data(n, theta_mode="zero"):
    grid = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
    x, y = coordinates(grid)
    u = 0.08 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    q = np.zeros((n, n, 2, 2))
    q[..., 0, 0] = np.exp(2 * u)
    q[..., 1, 1] = np.exp(2 * u) * (1.0 + 0.1 * np.sin(2 * np.pi * y))
    q[..., 0, 1] = 0.05 * np.sin(2 * np.pi * (x + y))
    q[..., 1, 0] = q[..., 0, 1]
    if theta_mode == "metric":
        theta = q.copy()
    elif theta_mode == "random":
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(n, n, 2, 2), scale=0.2)
        theta = 0.5 * (theta + np.swapaxes(theta, 2, 3))
    else:
        theta = np.zeros((n, n, 2, 2))
    return cy.SurfaceData(grid, q, theta, np.zeros((n, n)), np.zeros((n, n, 2)),
                          np.ones((n, n)))


def test_momentum_constraint_metric_theta_exact():
    # Theta = q: nabla q = 0 holds exactly even for the discrete Christoffels
    # (they are built from the same finite differences), and Tr_q(q) = 2 is
    # constant, so the momentum residual vanishes identically
    d = curved_metric_data(16, theta_mode="metric")
    res = cy.constraint_residuals(d, 0, 0.0, 0.0)
    assert res.momentum < 1e-12


def test_divergence_matches_brute_force_loops():
    # independent oracle: per-node loops over explicit index sums
    d = curved_metric_data(8, theta_mode="random")
    grid = d.grid
    gamma = christoffel(d)
    dtheta = np.stack(
        [
            strided_d1(d.theta, 0, grid.hx, grid.periodic_x),
            strided_d1(d.theta, 1, grid.hy, True),
        ],
        axis=2,
    )
    inv = np.linalg.inv(d.q)
    brute = np.zeros((8, 8, 2))
    for ix in range(8):
        for iy in range(8):
            for j in range(2):
                total = 0.0
                for m in range(2):
                    for i in range(2):
                        cov = dtheta[ix, iy, m, i, j]
                        for k in range(2):
                            cov -= gamma[ix, iy, k, m, i] * d.theta[ix, iy, k, j]
                            cov -= gamma[ix, iy, k, m, j] * d.theta[ix, iy, i, k]
                        total += inv[ix, iy, m, i] * cov
                brute[ix, iy, j] = total
    # recompute the library value by reusing the residual with kappa = 0 and
    # subtracting the gradient of the trace
    tr = np.einsum("xyij,xyij->xy", inv, d.theta)
    grad_tr = np.stack([strided_d1(tr, 0, grid.hx, grid.periodic_x),
                        strided_d1(tr, 1, grid.hy, True)], axis=-1)
    r4_field = grad_tr + brute
    res = cy.constraint_residuals(d, 0, 0.0, 0.0)
    assert abs(res.momentum - float(np.max(np.abs(r4_field)))) < 1e-12


def test_scalar_curvature_matches_brute_force_loops():
    d = curved_metric_data(8)
    grid = d.grid
    gamma = christoffel(d)
    dgamma = np.stack(
        [
            strided_d1(gamma, 0, grid.hx, grid.periodic_x),
            strided_d1(gamma, 1, grid.hy, True),
        ],
        axis=2,
    )
    inv = np.linalg.inv(d.q)
    brute = np.zeros((8, 8))
    for ix in range(8):
        for iy in range(8):
            total = 0.0
            for k in range(2):
                for j in range(2):
                    ric_kj = 0.0
                    for l in range(2):
                        ric_kj += dgamma[ix, iy, l, l, j, k] - dgamma[ix, iy, j, l, l, k]
                        for m in range(2):
                            ric_kj += (
                                gamma[ix, iy, l, l, m] * gamma[ix, iy, m, j, k]
                                - gamma[ix, iy, l, j, m] * gamma[ix, iy, m, l, k]
                            )
                    total += inv[ix, iy, k, j] * ric_kj
            brute[ix, iy] = total
    assert np.allclose(scalar_curvature(d), brute, atol=1e-12)


def test_sequence_validation():
    grid = cy.SurfaceGrid(8, 8, 0.125, 0.125)
    with pytest.raises(ValueError, match="three time slices"):
        cy.SurfaceSequence(tuple([flat_data(8)] * 2), 0.1)
    with pytest.raises(ValueError, match="uniformly spaced"):
        cy.example_flat_paracontact(grid, [0.0, 0.1, 0.3], 1.0, 0.0)
    # a NaN dt fails no comparison, so it must be rejected by name
    for dt in (0.0, -0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            cy.SurfaceSequence(tuple([flat_data(8)] * 3), dt)


BAD_PARAMETERS = [
    # (eps, lambda2, kappa, message)
    (2, 0.0, 0.0, "eps must be -1, 0 or 1, got 2"),
    (0.5, 0.0, 0.0, "eps must be -1, 0 or 1, got 0.5"),
    (float("nan"), 0.0, 0.0, "eps must be -1, 0 or 1, got nan"),
    ("1", 0.0, 0.0, "eps must be -1, 0 or 1, got '1'"),
    (1, float("nan"), 0.0, "lambda2 must be a finite real number, got nan"),
    (1, float("inf"), 0.0, "lambda2 must be a finite real number, got inf"),
    (1, "0.4", 0.0, "lambda2 must be a finite real number, got '0.4'"),
    (1, True, 0.0, "lambda2 must be a finite real number, got True"),
    (-1, 0.4, float("inf"), "kappa must be a finite real number, got inf"),
    (-1, 0.4, -float("inf"), "kappa must be a finite real number, got -inf"),
    (-1, 0.4, np.float64("nan"), "kappa must be a finite real number, got np.float64\\(nan\\)"),
    (0, 0.4, None, "kappa must be a finite real number, got None"),
]


@pytest.mark.parametrize("eps, lambda2, kappa, message", BAD_PARAMETERS)
def test_passes_reject_bad_parameters(eps, lambda2, kappa, message):
    # an eps of 2 or 0.5 used to give a norm residual for another equation,
    # and a NaN lambda^2 or an infinite kappa NaN norms with RuntimeWarnings
    grid = cy.SurfaceGrid(8, 8, 0.125, 0.125)
    seq = cy.example_flat_paracontact(grid, [0.0, 0.1, 0.2], 1.0, 0.5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cy.constraint_residuals(seq.slices[1], eps, lambda2, kappa)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cy.evolution_residuals(seq, eps, lambda2, kappa)


def test_passes_take_numpy_parameters():
    seq = strip_sequence(True)
    for eps in (-1, 0, 1):
        want = norm_bits(cy.constraint_residuals(seq.slices[1], eps, 0.4, 0.7),
                         cy.evolution_residuals(seq, eps, 0.4, 0.7))
        args = (np.int64(eps), np.float64(0.4), np.float64(0.7))
        assert norm_bits(cy.constraint_residuals(seq.slices[1], *args),
                         cy.evolution_residuals(seq, *args)) == want
    d = flat_data(8)
    assert cy.constraint_residuals(d, 1, 0, 0) == cy.constraint_residuals(d, 1, 0.0, 0.0)


@pytest.mark.parametrize("field", ["hx", "hy"])
@pytest.mark.parametrize("bad", [0.0, -0.125, float("nan"), float("inf"), -float("inf")])
def test_grid_spacing_validation(field, bad):
    spacings = {"hx": 0.125, "hy": 0.125, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        cy.SurfaceGrid(8, 8, **spacings)


@pytest.mark.parametrize("field", ["nx", "ny"])
@pytest.mark.parametrize("bad", [8.0, np.float64(8.0), "8", True, np.True_, None])
def test_grid_size_validation(field, bad):
    # a float size passes the data's shape check (8 == 8.0) and fails deep inside numpy
    sizes = {"nx": 8, "ny": 8, field: bad}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
        cy.SurfaceGrid(sizes["nx"], sizes["ny"], 0.125, 0.125)


@pytest.mark.parametrize("field", ["hx", "hy"])
@pytest.mark.parametrize("bad", ["0.1", True, np.True_, None, 1j, [0.1]])
def test_grid_spacing_type_validation(field, bad):
    # hx = True ran as hx = 1.0, and a string failed inside math.isfinite
    spacings = {"hx": 0.125, "hy": 0.125, field: bad}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a real number, got {bad!r}")):
        cy.SurfaceGrid(8, 8, **spacings)


@pytest.mark.parametrize("bad", ["no", "", 0, 1, 1.0, None])
def test_grid_periodic_x_validation(bad):
    # 'no' is truthy: it built a periodic grid
    with pytest.raises(ValueError, match=re.escape(f"periodic_x must be a bool, got {bad!r}")):
        cy.SurfaceGrid(8, 8, 0.125, 0.125, periodic_x=bad)


@pytest.mark.parametrize("bad", ["0.1", True, np.True_, None])
def test_sequence_dt_type_validation(bad):
    with pytest.raises(ValueError, match=re.escape(f"dt must be a real number, got {bad!r}")):
        cy.SurfaceSequence(tuple([flat_data(8)] * 3), bad)


def test_numpy_spacings_and_flag_accepted():
    grid = cy.SurfaceGrid(8, 8, np.float64(0.125), np.float32(0.125), periodic_x=np.False_)
    assert grid == cy.SurfaceGrid(8, 8, 0.125, 0.125, periodic_x=False)
    assert cy.SurfaceSequence(tuple([flat_data(8)] * 3), np.float64(0.1)).dt == 0.1


def test_grid_size_numpy_integers():
    grid = cy.SurfaceGrid(np.int64(8), np.int32(8), 0.125, 0.125, periodic_x=False)
    want = cy.constraint_residuals(cy.example_null_isothermal(cy.isothermal_grid(8, 8), 0.5),
                                   0, 0.0, 0.0)
    assert cy.constraint_residuals(cy.example_null_isothermal(grid, 0.5), 0, 0.0, 0.0) == want


# --- per-node loop oracles for every residual ----------------------------------


def brute_geometry(d):
    """Inverse metric, sqrt(det q), Christoffels and scalar curvature, each
    node by explicit index loops over the strided first difference."""
    grid = d.grid
    nx, ny = grid.nx, grid.ny
    dq = [strided_d1(d.q, 0, grid.hx, grid.periodic_x), strided_d1(d.q, 1, grid.hy, True)]
    inv = np.zeros((nx, ny, 2, 2))
    vol = np.zeros((nx, ny))
    gamma = np.zeros((nx, ny, 2, 2, 2))
    for ix in range(nx):
        for iy in range(ny):
            (a, b), (c, e) = d.q[ix, iy]
            det = a * e - b * c
            inv[ix, iy] = np.array([[e, -b], [-c, a]]) / det
            vol[ix, iy] = np.sqrt(det)
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        total = 0.0
                        for l in range(2):
                            total += inv[ix, iy, k, l] * (
                                dq[i][ix, iy, l, j] + dq[j][ix, iy, l, i] - dq[l][ix, iy, i, j]
                            )
                        gamma[ix, iy, k, i, j] = 0.5 * total
    dgamma = [strided_d1(gamma, 0, grid.hx, grid.periodic_x),
              strided_d1(gamma, 1, grid.hy, True)]
    scalar = np.zeros((nx, ny))
    for ix in range(nx):
        for iy in range(ny):
            for k in range(2):
                for j in range(2):
                    ric = 0.0
                    for l in range(2):
                        ric += dgamma[l][ix, iy, l, j, k] - dgamma[j][ix, iy, l, l, k]
                        for m in range(2):
                            ric += (gamma[ix, iy, l, l, m] * gamma[ix, iy, m, j, k]
                                    - gamma[ix, iy, l, j, m] * gamma[ix, iy, m, l, k])
                    scalar[ix, iy] += inv[ix, iy, k, j] * ric
    return inv, vol, gamma, scalar


def brute_constraints(d, eps, lambda2, kappa):
    grid = d.grid
    inv, vol, gamma, scalar = brute_geometry(d)
    d_alpha = [strided_d1(d.alpha, 0, grid.hx, grid.periodic_x),
               strided_d1(d.alpha, 1, grid.hy, True)]
    d_theta = [strided_d1(d.theta, 0, grid.hx, grid.periodic_x),
               strided_d1(d.theta, 1, grid.hy, True)]
    tr = np.zeros((grid.nx, grid.ny))
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            for i in range(2):
                for j in range(2):
                    tr[ix, iy] += inv[ix, iy, i, j] * d.theta[ix, iy, i, j]
    d_tr = [strided_d1(tr, 0, grid.hx, grid.periodic_x), strided_d1(tr, 1, grid.hy, True)]
    worst = [0.0, 0.0, 0.0, 0.0]
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            inv_n, th, al, f = inv[ix, iy], d.theta[ix, iy], d.alpha[ix, iy], d.F[ix, iy]
            r1 = d_alpha[0][ix, iy, 1] - d_alpha[1][ix, iy, 0] - f * vol[ix, iy]
            norm2 = sum(inv_n[i, j] * al[i] * al[j] for i in range(2) for j in range(2))
            r2 = norm2 - eps - f * f
            theta2 = sum(inv_n[i, k] * inv_n[j, l] * th[i, j] * th[k, l]
                         for i in range(2) for j in range(2)
                         for k in range(2) for l in range(2))
            r3 = (scalar[ix, iy] - theta2 + tr[ix, iy] ** 2
                  + 0.5 * (5.0 * lambda2 + 3.0 * kappa * eps) - 2.0 * kappa * f * f)
            worst[:3] = [max(w, abs(r)) for w, r in zip(worst[:3], (r1, r2, r3))]
            for j in range(2):
                div = 0.0
                for m in range(2):
                    for i in range(2):
                        cov = d_theta[m][ix, iy, i, j]
                        for k in range(2):
                            cov -= gamma[ix, iy, k, m, i] * th[k, j]
                            cov -= gamma[ix, iy, k, m, j] * th[i, k]
                        div += inv_n[m, i] * cov
                r4 = d_tr[j][ix, iy] + div - kappa * f * al[j]
                worst[3] = max(worst[3], abs(r4))
    return worst


def brute_evolution(seq, eps, lambda2, kappa):
    grid = seq.grid
    worst_a, worst_r = 0.0, 0.0
    for t in range(1, len(seq.slices) - 1):
        prev_s, d, next_s = seq.slices[t - 1], seq.slices[t], seq.slices[t + 1]
        inv, vol, gamma, scalar = brute_geometry(d)
        bf = d.beta * d.F
        d_bf = [strided_d1(bf, 0, grid.hx, grid.periodic_x), strided_d1(bf, 1, grid.hy, True)]
        d_b = [strided_d1(d.beta, 0, grid.hx, grid.periodic_x),
               strided_d1(d.beta, 1, grid.hy, True)]
        dd_b = [[strided_d1(d_b[j], 0, grid.hx, grid.periodic_x),
                 strided_d1(d_b[j], 1, grid.hy, True)] for j in range(2)]
        for ix in range(grid.nx):
            for iy in range(grid.ny):
                inv_n, th, al = inv[ix, iy], d.theta[ix, iy], d.alpha[ix, iy]
                q, beta = d.q[ix, iy], d.beta[ix, iy]
                raised = [sum(inv_n[i, j] * al[j] for j in range(2)) for i in range(2)]
                star = [-vol[ix, iy] * raised[1], vol[ix, iy] * raised[0]]
                for i in range(2):
                    dt_alpha = (next_s.alpha[ix, iy, i] - prev_s.alpha[ix, iy, i]) / (2 * seq.dt)
                    e1 = star[i] + d_bf[i][ix, iy] / beta - dt_alpha / beta
                    worst_a = max(worst_a, abs(e1))
                tr = sum(inv_n[i, j] * th[i, j] for i in range(2) for j in range(2))
                for i in range(2):
                    for j in range(2):
                        theta_w = sum(th[i, k] * inv_n[k, l] * th[l, j]
                                      for k in range(2) for l in range(2))
                        hess = dd_b[j][i][ix, iy] - sum(
                            gamma[ix, iy, k, i, j] * d_b[k][ix, iy] for k in range(2))
                        dt_theta = (next_s.theta[ix, iy, i, j]
                                    - prev_s.theta[ix, iy, i, j]) / (2 * seq.dt)
                        e2 = (0.5 * scalar[ix, iy] * q[i, j] + tr * th[i, j] - 2.0 * theta_w
                              - (dt_theta + hess) / beta - kappa * al[i] * al[j]
                              + 0.5 * (lambda2 + kappa * eps) * q[i, j])
                        worst_r = max(worst_r, abs(e2))
    return worst_a, worst_r


def curved_slice(grid, t):
    """Curved, time-dependent fields with non-constant beta and nonzero
    Theta, F and alpha. The phase offsets keep each term of a residual
    nonzero at the node where its maximum is taken."""
    x, y = coordinates(grid)
    s = 2 * np.pi
    u = 0.08 * (1.0 + 0.5 * t) * np.sin(s * x) * np.cos(s * y)
    q = np.zeros((grid.nx, grid.ny, 2, 2))
    q[..., 0, 0] = np.exp(2 * u)
    q[..., 1, 1] = np.exp(2 * u) * (1.0 + 0.1 * np.sin(s * y + t))
    q[..., 0, 1] = q[..., 1, 0] = 0.05 * np.sin(s * (x + y) - t)
    theta = np.zeros_like(q)
    theta[..., 0, 0] = 0.3 * np.sin(s * y + 0.5) + 0.1 * t
    theta[..., 0, 1] = theta[..., 1, 0] = 0.2 * np.cos(s * (x - t) + 1.2)
    theta[..., 1, 1] = 0.25 * np.cos(s * x + 0.3) - 0.05 * t
    alpha = np.stack([0.4 * np.cos(s * y + t + 0.2), 0.3 * np.sin(s * x + 0.9) + 0.2 * t],
                     axis=-1)
    F = 0.5 * np.sin(s * (x + y) + t + 0.6)
    beta = 1.0 + 0.1 * np.sin(s * x + 0.4) + 0.05 * np.cos(s * (x + 2 * y) + 1.3) + 0.1 * t
    return cy.SurfaceData(grid, q, theta, F, alpha, beta)


def assert_relative(got, want, rtol=1e-12):
    assert abs(got - want) <= rtol * abs(want), (got, want)


def test_constraint_residuals_match_brute_force_loops():
    base = curved_metric_data(8, theta_mode="random")
    x, y = coordinates(base.grid)
    s = 2 * np.pi
    F = 0.3 * np.cos(s * (x - y) + 0.7)  # phases as in curved_slice
    alpha = np.stack([0.5 + 0.2 * np.sin(s * y + 1.1), 0.4 * np.cos(s * x + 0.4)], axis=-1)
    d = cy.SurfaceData(base.grid, base.q, base.theta, F, alpha, base.beta)
    res = cy.constraint_residuals(d, -1, 0.4, 0.7)
    want = brute_constraints(d, -1, 0.4, 0.7)
    for got, expected in zip((res.curl, res.norm, res.hamiltonian, res.momentum), want):
        assert expected > 1e-3  # every term of every residual is exercised
        assert_relative(got, expected)


def test_evolution_residuals_match_brute_force_loops():
    grid = cy.SurfaceGrid(8, 8, 1.0 / 8, 1.0 / 8)
    seq = cy.SurfaceSequence(tuple(curved_slice(grid, 0.1 * k) for k in range(4)), 0.1)
    evo = cy.evolution_residuals(seq, -1, 0.4, 0.7)
    want_a, want_r = brute_evolution(seq, -1, 0.4, 0.7)
    assert want_a > 1e-3 and want_r > 1e-3
    assert_relative(evo.alpha_flow, want_a)
    assert_relative(evo.ricci_flow, want_r)


def test_christoffel_computed_once_per_slice(monkeypatch):
    original, init = cy.christoffel, cy._Strip.__init__
    loaded, calls, rows = [], [], []

    def loading(strip, d, *rest):  # the slice each strip is loaded from
        loaded.append(id(d))
        init(strip, d, *rest)

    def counting(strip):
        calls.append(loaded[-1])
        rows.append(strip.grid.nx)
        return original(strip)

    monkeypatch.setattr(cy._Strip, "__init__", loading)
    monkeypatch.setattr(cy, "christoffel", counting)
    grid = cy.SurfaceGrid(8, 8, 1.0 / 8, 1.0 / 8)
    seq = cy.SurfaceSequence(tuple(curved_slice(grid, 0.1 * k) for k in range(5)), 0.1)
    cy.constraint_residuals(seq.slices[0], -1, 0.4, 0.7)
    assert len(calls) == 1
    calls.clear()
    cy.evolution_residuals(seq, -1, 0.4, 0.7)
    assert calls == [id(s) for s in seq.slices[1:4]]  # each interior slice once
    # in strips of 3, 3 and 2 rows: once per strip, over the strip's own rows
    # and its halo rows only
    monkeypatch.setattr(cy, "_STRIP_NODES", 3 * grid.ny)
    strips = 3
    per_slice = grid.nx + 2 * cy._HALO * strips
    calls.clear()
    rows.clear()
    cy.constraint_residuals(seq.slices[0], -1, 0.4, 0.7)
    assert len(calls) == strips and sum(rows) == per_slice
    calls.clear()
    rows.clear()
    cy.evolution_residuals(seq, -1, 0.4, 0.7)
    assert len(calls) == 3 * strips
    assert [sum(rows[k:k + strips]) for k in range(0, len(rows), strips)] == [per_slice] * 3


@pytest.mark.parametrize("name", ["q", "theta", "F", "alpha", "beta"])
def test_non_finite_fields_rejected(name):
    d = flat_data(8)
    fields = {k: getattr(d, k).copy() for k in ("q", "theta", "F", "alpha", "beta")}
    fields[name].flat[3] = np.nan
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cy.SurfaceData(d.grid, **fields)
    fields[name].flat[3] = np.inf
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cy.SurfaceData(d.grid, **fields)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["curl", "norm", "hamiltonian", "momentum"])
def test_constraint_max_residual_reports_non_finite(field, bad):
    # a NaN or infinite residual is not folded away by the maximum
    fields = {"curl": 0.0, "norm": 1e-16, "hamiltonian": 0.0, "momentum": 0.0}
    assert cy.ConstraintResiduals(**fields).max_residual() == 1e-16
    worst = cy.ConstraintResiduals(**{**fields, field: bad}).max_residual()
    assert not np.isfinite(worst) and not worst < 1e-13


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["alpha_flow", "ricci_flow"])
def test_evolution_max_residual_reports_non_finite(field, bad):
    fields = {"alpha_flow": 0.0, "ricci_flow": 0.0}
    assert cy.EvolutionResiduals(**fields).max_residual() == 0.0
    worst = cy.EvolutionResiduals(**{**fields, field: bad}).max_residual()
    assert not np.isfinite(worst) and not worst < 1e-13


# --- strips of grid rows ---------------------------------------------------------


def strip_sequence(periodic_x, blowup=False):
    """curved_slice data on a 13 x 8 grid; with blowup, one node of the first
    interior slice, in row 9, has a Theta so large that r3 and e2 are NaN there."""
    grid = cy.SurfaceGrid(13, 8, 1.0 / 13, 1.0 / 8, periodic_x=periodic_x)
    slices = [curved_slice(grid, 0.1 * k) for k in range(4)]
    if blowup:
        d = slices[1]
        theta = d.theta.copy()
        theta[9, 5] = 1e200 * np.eye(2)
        slices[1] = cy.SurfaceData(grid, d.q, theta, d.F, d.alpha, d.beta)
    return cy.SurfaceSequence(tuple(slices), 0.1)


def strip_norms(seq):
    with np.errstate(over="ignore", invalid="ignore"):  # Theta^2 overflows on purpose
        con = cy.constraint_residuals(seq.slices[1], -1, 0.4, 0.7)
        evo = cy.evolution_residuals(seq, -1, 0.4, 0.7)
    return {**con.as_dict(), **evo.as_dict()}


@pytest.mark.parametrize("blowup", [False, True])
@pytest.mark.parametrize("periodic_x", [True, False])
def test_strips_bit_identical_to_whole_grid(monkeypatch, periodic_x, blowup):
    seq = strip_sequence(periodic_x, blowup)
    monkeypatch.setattr(cy, "_STRIP_NODES", 13 * 8)  # one strip: the whole grid
    whole = strip_norms(seq)
    if blowup:
        assert np.isnan(whole["hamiltonian"]) and np.isnan(whole["ricci_flow"])
    else:
        assert min(whole.values()) > 1e-3
    # several strips; tails of 1 row, shorter than the halo; strips of 1-3 rows
    for height in (6, 4, 3, 2, 1):
        monkeypatch.setattr(cy, "_STRIP_NODES", height * 8)
        got = strip_norms(seq)
        for name, value in whole.items():
            assert got[name] == value or np.isnan(got[name]) and np.isnan(value), (height, name)


# float.hex of (curl, norm, hamiltonian, momentum, alpha_flow, ricci_flow) of
# strip_sequence at lambda^2 = 0.4, kappa = 0.7, per (eps, blowup), recorded
# before the strip bodies became plain numpy expressions. Each maximum is
# taken away from the x edges, so a periodic and a one-sided x axis agree.
PINNED_NORMS = {
    (-1, False): ("0x1.1ae866fbf6499p+2", "0x1.335749c336fa8p+0", "0x1.37bd058250679p+3",
                  "0x1.8eea13c2d4fbcp+1", "0x1.e2063bc6da808p+1", "0x1.30006d8239dc2p+3"),
    (-1, True): ("0x1.1ae866fbf6499p+2", "0x1.335749c336fa8p+0", "nan",
                 "0x1.7bb9c936b10c7p+668", "0x1.e2063bc6da808p+1", "nan"),
    (0, False): ("0x1.1ae866fbf6499p+2", "0x1.e09d0fec3e246p-3", "0x1.16236be8b6cdfp+3",
                 "0x1.8eea13c2d4fbcp+1", "0x1.e2063bc6da808p+1", "0x1.26082f660d9cfp+3"),
    (0, True): ("0x1.1ae866fbf6499p+2", "0x1.e09d0fec3e246p-3", "nan",
                "0x1.7bb9c936b10c7p+668", "0x1.e2063bc6da808p+1", "nan"),
    (1, False): ("0x1.1ae866fbf6499p+2", "0x1.3c13a1fd87c49p+0", "0x1.18e974e03effep+3",
                 "0x1.8eea13c2d4fbcp+1", "0x1.e2063bc6da808p+1", "0x1.1c0ff149e15ddp+3"),
    (1, True): ("0x1.1ae866fbf6499p+2", "0x1.3c13a1fd87c49p+0", "nan",
                "0x1.7bb9c936b10c7p+668", "0x1.e2063bc6da808p+1", "nan"),
}


@pytest.mark.parametrize("height", [None, 1, 3])
@pytest.mark.parametrize("blowup", [False, True])
@pytest.mark.parametrize("periodic_x", [True, False])
@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_norms_keep_their_pinned_bits(monkeypatch, eps, periodic_x, blowup, height):
    # the other bit tests compare the library with itself; these values fix
    # the operation order of every residual on curved data
    if height is not None:
        monkeypatch.setattr(cy, "_STRIP_NODES", height * 8)
    seq = strip_sequence(periodic_x, blowup)
    with np.errstate(over="ignore", invalid="ignore"):
        got = norm_bits(cy.constraint_residuals(seq.slices[1], eps, 0.4, 0.7),
                        cy.evolution_residuals(seq, eps, 0.4, 0.7))
    assert tuple(got) == PINNED_NORMS[eps, blowup]


def test_evolution_nan_in_one_slice_not_folded_away():
    # the other interior slice is finite; a running Python max drops the NaN
    evo = strip_norms(strip_sequence(True, blowup=True))
    assert np.isnan(evo["ricci_flow"]) and np.isfinite(evo["alpha_flow"])


# --- the memory of a pass ---------------------------------------------------------

# What a pass may trace beyond its planes: numpy's iterator buffers (8192
# elements for each operand of a ufunc call that buffers) and Python objects.
PASS_SLACK = 320 * 1024
# The most planes of its tallest strip that a pass holds at once, as traced at
# the grids below: a strip's fields, q^{-1}, sqrt(det q), and the planes its
# residual bodies compute, each freed when its last use ends.
CONSTRAINT_PLANES = 45
FLOW_PLANES = 55


def strip_planes_bytes(planes, grid):
    """Bytes of planes component planes of the tallest strip of grid."""
    return planes * max(g.nx for _, _, g, _ in cy._strips(grid, grid, 1)) * grid.ny * 8


def test_constraint_pass_peak_flat_in_nx():
    # on dense copies, which run on the whole grid: at ny = 64 a strip is
    # 256 rows, and 8 strips at nx = 2048 hold no more than one; nothing
    # is kept per strip
    peaks = []
    for nx in (256, 2048):
        d = materialised(cy.example_null_isothermal(cy.isothermal_grid(nx, 64), 1.0))
        _, peak = traced(lambda: cy.constraint_residuals(d, 0, 0.0, 0.0))
        assert peak <= strip_planes_bytes(CONSTRAINT_PLANES, d.grid) + PASS_SLACK, nx
        peaks.append(peak)
    assert peaks[1] <= 1.05 * peaks[0]


@pytest.mark.parametrize("nx, ny", [(64, 64), (256, 128)])
def test_evolution_pass_peak_flat_in_slices(nx, ny):
    # on dense copies, one grid in one strip, one in two; nothing is kept
    # per slice
    grid = cy.SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny)
    peaks = []
    for steps in (5, 17):
        seq = materialised_sequence(
            cy.example_flat_paracontact(grid, [k * 0.05 for k in range(steps)], 1.0, 0.5))
        _, peak = traced(lambda: cy.evolution_residuals(seq, 1, 0.0, 0.0))
        assert peak <= strip_planes_bytes(FLOW_PLANES, grid) + PASS_SLACK, steps
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= PASS_SLACK / 4


def test_broadcast_pass_peak_flat_in_ny():
    # null-isothermal is broadcast along y, so its pass runs on 4 columns at
    # any ny: 11.8 MB of full-grid planes at ny = 4096, 369 KB cut
    peaks = []
    for ny in (64, 4096):
        d = cy.example_null_isothermal(cy.isothermal_grid(256, ny), 1.0)
        cut = strip_planes_bytes(CONSTRAINT_PLANES, replace(d.grid, ny=4))
        _, peak = traced(lambda: cy.constraint_residuals(d, 0, 0.0, 0.0))
        assert peak <= cut + PASS_SLACK, ny
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= PASS_SLACK / 4  # Python objects only


def test_stacked_flow_pass_peak_flat_past_one_group():
    # flat-para on a 16 x 16 full grid: its 4 x 4 pass grid stacks 16 slices
    # in a strip, the 256 nodes of the full grid's one strip; 16, 32 and 64
    # interior slices run in 1, 2 and 4 strips, and nothing is kept per strip
    grid = cy.SurfaceGrid(16, 16, 1.0 / 16, 1.0 / 16)
    peaks = []
    for steps in (18, 34, 66):
        seq = cy.example_flat_paracontact(grid, [k * 0.05 for k in range(steps)], 1.0, 0.5)
        _, peak = traced(lambda: cy.evolution_residuals(seq, 1, 0.0, 0.0))
        assert peak <= strip_planes_bytes(FLOW_PLANES, grid) + PASS_SLACK, steps
        peaks.append(peak)
    assert max(peaks) - min(peaks) <= PASS_SLACK / 4


# --- which fields a slice holds as given ------------------------------------------

FIELDS = ("q", "theta", "F", "alpha", "beta")


def test_writeable_input_copied():
    # the caller keeps its writeable arrays; writing to them later must not
    # reach the slice
    d = flat_data(8)
    given = {k: getattr(d, k).copy() for k in FIELDS}
    held = cy.SurfaceData(d.grid, **given)
    for k in FIELDS:
        assert not getattr(held, k).flags.writeable
        given[k][...] = 7.0
        assert np.array_equal(getattr(held, k), getattr(d, k)), k


def test_read_only_view_of_writeable_array_copied():
    d = flat_data(8)
    beta = np.ones((8, 8))
    view = beta.view()
    view.flags.writeable = False
    held = cy.SurfaceData(d.grid, d.q, d.theta, d.F, d.alpha, view)
    assert not np.shares_memory(held.beta, beta)
    beta[...] = 3.0  # still writeable through the array the view shows
    assert np.all(held.beta == 1.0)


def test_fields_of_another_slice_held_without_copy():
    d = flat_data(8)
    again = cy.SurfaceData(d.grid, d.q, d.theta, d.F, d.alpha, d.beta)
    for k in FIELDS:
        assert np.shares_memory(getattr(again, k), getattr(d, k)), k


def test_int_input_held_as_float64_copy():
    d = flat_data(8)
    beta = np.ones((8, 8), dtype=np.int64)
    beta.flags.writeable = False  # read-only and owning, but not float64
    held = cy.SurfaceData(d.grid, d.q, d.theta, d.F, d.alpha, beta)
    assert held.beta.dtype == np.float64 and not held.beta.flags.writeable
    assert not np.shares_memory(held.beta, beta)
    assert np.all(held.beta == 1.0)


@pytest.mark.parametrize("name", ["q", "theta"])
def test_asymmetric_fields_rejected(name):
    # one node off by one ulp of its entry: symmetry is exact
    d = flat_data(8)
    fields = {k: getattr(d, k).copy() for k in FIELDS}
    fields[name][3, 5, 0, 1] = np.nextafter(0.0, 1.0)
    with pytest.raises(ValueError, match=f"{name} must be symmetric at every node"):
        cy.SurfaceData(d.grid, **fields)
    fields[name][3, 5, 1, 0] = fields[name][3, 5, 0, 1]
    cy.SurfaceData(d.grid, **fields)


def test_frozen_broadcast_of_frozen_array_held_as_given():
    d = flat_data(8)
    compact, row = 2.0 * np.eye(2), np.arange(8.0)[:, None].copy()  # each owns its memory
    q, F = cy._broadcast(compact, (8, 8, 2, 2)), cy._broadcast(row, (8, 8))
    held = cy.SurfaceData(d.grid, q, d.theta, F, d.alpha, d.beta)
    assert held.q is q and held.F is F
    assert np.shares_memory(held.q, compact) and np.shares_memory(held.F, row)
    assert held.q.strides[:2] == (0, 0) and held.F.strides[1] == 0


def test_broadcast_of_writeable_array_copied():
    d = flat_data(8)
    compact = 2.0 * np.eye(2)
    q = np.broadcast_to(compact, (8, 8, 2, 2))  # read-only, over a writeable array
    held = cy.SurfaceData(d.grid, q, d.theta, d.F, d.alpha, d.beta)
    assert not np.shares_memory(held.q, compact) and 0 not in held.q.strides
    assert not held.q.flags.writeable
    compact[...] = 7.0
    assert np.all(held.q[..., 0, 0] == 2.0)


BAD_ENTRIES = [
    # (field, entry of a node's components, value there, error, message)
    ("q", (0, 0), np.nan, ValueError, "q must be finite at every node"),
    ("theta", (1, 0), np.inf, ValueError, "theta must be finite at every node"),
    ("F", (), np.nan, ValueError, "F must be finite at every node"),
    ("alpha", (1,), -np.inf, ValueError, "alpha must be finite at every node"),
    ("beta", (), np.nan, ValueError, "beta must be finite at every node"),
    ("q", (0, 1), np.nextafter(0.0, 1.0), ValueError, "q must be symmetric at every node"),
    ("theta", (1, 0), 0.5, ValueError, "theta must be symmetric at every node"),
    ("q", (1, 1), 0.0, SingularMetric, "q must be positive definite at every node"),
    ("q", (0, 0), -1.0, SingularMetric, "q must be positive definite at every node"),
    ("beta", (), 0.0, ValueError, "beta must be positive"),
    ("beta", (), -2.0, ValueError, "beta must be positive"),
]


@pytest.mark.parametrize("profile", ["constant", "row", "column"])
@pytest.mark.parametrize("name, entry, value, error, message", BAD_ENTRIES)
def test_bad_entry_behind_a_view_rejected(name, entry, value, error, message, profile):
    # the checks read the compact array once per entry, with the messages
    # they give on a full-size copy
    d = flat_data(8)
    fields = {k: getattr(d, k) for k in FIELDS}
    full = fields[name]
    node = {"constant": (slice(0, 1), slice(0, 1)), "row": (slice(None), slice(0, 1)),
            "column": (slice(0, 1), slice(None))}[profile]
    compact = np.array(full[node])
    compact[(min(5, compact.shape[0] - 1), min(3, compact.shape[1] - 1), *entry)] = value
    fields[name] = cy._broadcast(compact, full.shape)
    assert cy._held(fields[name])  # so checked as the view
    with pytest.raises(error, match=message):
        cy.SurfaceData(d.grid, **fields)


# --- example fields as broadcast views --------------------------------------------


def materialised(d):
    """d with every field a frozen contiguous copy, held as given."""
    fields = {}
    for k in FIELDS:
        fields[k] = np.array(getattr(d, k))
        fields[k].flags.writeable = False
    out = cy.SurfaceData(d.grid, **fields)
    assert all(getattr(out, k) is fields[k] and 0 not in fields[k].strides for k in FIELDS)
    return out


def materialised_sequence(seq):
    """seq with every field of every slice a frozen contiguous copy."""
    return cy.SurfaceSequence(tuple(map(materialised, seq.slices)), seq.dt)


def norm_bits(*residuals):
    return [float(v).hex() for r in residuals for v in r.as_dict().values()]


@pytest.fixture
def pass_strips(monkeypatch):
    """(slices, rows, ny) of each strip that a residual pass starts, in
    order: the shape of its planes."""
    strips, init = [], cy._Strip.__init__

    def recording(strip, *args):
        init(strip, *args)
        strips.append(strip.F.shape)

    monkeypatch.setattr(cy._Strip, "__init__", recording)
    return strips


@pytest.mark.parametrize("f0", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("periodic_x", [False, True])
def test_isothermal_views_bit_equal_to_materialised(pass_strips, f0, periodic_x):
    # the views run on 4 columns; at f0 = 0 every field is constant along x
    # too, and the x axis is cut to 4 rows, or 5 where it is one-sided
    grid = cy.SurfaceGrid(24, 20, 1.0 / 24, 1.0 / 20, periodic_x=periodic_x)
    d = cy.example_null_isothermal(grid, f0)
    assert all(0 in getattr(d, k).strides for k in FIELDS)
    rows = 24 if f0 else 4 if periodic_x else 5
    for eps, lambda2, kappa in ((0, 0.0, 0.0), (-1, 0.4, 0.7)):
        pass_strips.clear()
        got = cy.constraint_residuals(d, eps, lambda2, kappa)
        want = cy.constraint_residuals(materialised(d), eps, lambda2, kappa)
        assert norm_bits(got) == norm_bits(want)
        assert pass_strips == [(1, rows, 4), (1, 24, 20)]


@pytest.mark.parametrize("height", [None, 3])
@pytest.mark.parametrize("nx, ny", [(4, 4), (5, 5), (13, 13), (16, 12)])
@pytest.mark.parametrize("periodic_x", [True, False])
def test_flat_para_views_bit_equal_to_materialised(monkeypatch, pass_strips, periodic_x,
                                                   nx, ny, height):
    # both axes cut; the copies in strips of 3 rows, wrapped halos on a
    # periodic axis, and so the views too where the cut grid is taller
    if height is not None:
        monkeypatch.setattr(cy, "_STRIP_NODES", height * ny)
    grid = cy.SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny, periodic_x=periodic_x)
    seq = cy.example_flat_paracontact(grid, [0.1 * k for k in range(5)], 1.0, 0.5)
    copies = materialised_sequence(seq)
    assert all(s.q is seq.slices[0].q and s.beta is seq.slices[0].beta for s in seq.slices)
    rows = min(nx, 4 if periodic_x else 5)
    for eps, lambda2, kappa in ((1, 0.0, 0.0), (-1, 0.4, 0.7)):
        pass_strips.clear()
        got = norm_bits(cy.constraint_residuals(seq.slices[1], eps, lambda2, kappa),
                        cy.evolution_residuals(seq, eps, lambda2, kappa))
        assert {ny for _, _, ny in pass_strips} == {4}
        if height is None:  # the constraint slice, then the three interior
            # slices: in one strip where the full grid holds three cut slices
            stacked = nx * ny >= 3 * rows * 4
            assert pass_strips == [(1, rows, 4)] + ([(3, rows, 4)] if stacked else
                                                    [(1, rows, 4)] * 3)
        want = norm_bits(cy.constraint_residuals(copies.slices[1], eps, lambda2, kappa),
                         cy.evolution_residuals(copies, eps, lambda2, kappa))
        assert got == want


def test_sequence_with_one_dense_slice_runs_the_whole_grid(pass_strips):
    # the flow pass reads every slice, so one dense slice leaves every axis
    grid = cy.SurfaceGrid(16, 12, 1.0 / 16, 1.0 / 12)
    seq = cy.example_flat_paracontact(grid, [0.1 * k for k in range(5)], 1.0, 0.5)
    slices = list(seq.slices)
    slices[2] = materialised(slices[2])
    got = cy.evolution_residuals(cy.SurfaceSequence(tuple(slices), seq.dt), -1, 0.4, 0.7)
    assert pass_strips == [(1, 16, 12)] * 3
    want = cy.evolution_residuals(materialised_sequence(seq), -1, 0.4, 0.7)
    assert norm_bits(got) == norm_bits(want)


def test_non_finite_residuals_of_views_bit_equal_to_materialised(pass_strips):
    # --f0 700, whose |alpha|^2 and F^2 overflow, on 4 columns; a broadcast
    # Theta of 1e200 Id, whose square overflows, on 4 x 4 nodes
    d = cy.example_null_isothermal(cy.isothermal_grid(32, 32), 700.0)
    grid = cy.SurfaceGrid(16, 12, 1.0 / 16, 1.0 / 12)
    seq = cy.example_flat_paracontact(grid, [0.1 * k for k in range(5)], 1.0, 0.5)
    theta = cy._broadcast(1e200 * np.eye(2), (16, 12, 2, 2))
    seq = cy.SurfaceSequence(tuple(replace(s, theta=theta) for s in seq.slices), seq.dt)

    def norms(d, seq):
        with np.errstate(over="ignore", invalid="ignore"):
            return (cy.constraint_residuals(d, 0, 0.0, 0.0),
                    cy.constraint_residuals(seq.slices[1], 1, 0.0, 0.0),
                    cy.evolution_residuals(seq, 1, 0.0, 0.0))

    got = norms(d, seq)
    assert pass_strips == [(1, 32, 4), (1, 4, 4), (3, 4, 4)]
    assert np.isnan(got[0].norm) and np.isnan(got[1].hamiltonian)
    assert not np.isfinite(got[2].ricci_flow)
    assert norm_bits(*got) == norm_bits(*norms(materialised(d), materialised_sequence(seq)))


def test_isothermal_views_bit_equal_to_materialised_in_strips(pass_strips):
    # the views run one strip of 512 x 4 nodes; the copy runs 16 strips of
    # 32 rows, each 512 wide
    d = cy.example_null_isothermal(cy.isothermal_grid(512, 512), 1.0)
    got = cy.constraint_residuals(d, 0, 0.0, 0.0)
    assert pass_strips == [(1, 512, 4)]
    pass_strips.clear()
    want = cy.constraint_residuals(materialised(d), 0, 0.0, 0.0)
    assert len(pass_strips) == 16 and {strip[::2] for strip in pass_strips} == {(1, 512)}
    assert norm_bits(got) == norm_bits(want)


def x_constant_sequence(nx, periodic_x):
    """Four time slices whose fields are curved_slice's at x = 1/16,
    broadcast along an x axis of nx nodes: curved in y, constant in x."""
    grid = cy.SurfaceGrid(nx, 12, 1.0 / 16, 1.0 / 12, periodic_x=periodic_x)
    slices = []
    for k in range(4):
        d = curved_slice(replace(grid, nx=4), 0.1 * k)
        slices.append(cy.SurfaceData(grid, **{
            name: cy._broadcast(np.array(getattr(d, name)[1:2]), (nx, *getattr(d, name).shape[1:]))
            for name in FIELDS}))
    return cy.SurfaceSequence(tuple(slices), 0.1)


@pytest.mark.parametrize("periodic_x", [True, False])
def test_x_cut_keeps_the_rows_edge_stencils_reach(pass_strips, periodic_x):
    # a one-sided stencil of equal values a gives fl(3a) - 3a, negated, not
    # 0.0, so on a one-sided x axis the two rows at each edge differ from the
    # interior: the cut keeps 5 rows there, and 4 rows give other bits
    def norms(seq):
        return norm_bits(cy.constraint_residuals(seq.slices[1], -1, 0.4, 0.7),
                         cy.evolution_residuals(seq, -1, 0.4, 0.7))

    seq = x_constant_sequence(16, periodic_x)
    rows = 4 if periodic_x else 5
    got = norms(seq)
    assert pass_strips == [(1, rows, 12), (2, rows, 12)]
    assert got == norms(materialised_sequence(seq))
    assert got == norms(materialised_sequence(x_constant_sequence(rows, periodic_x)))
    if not periodic_x:
        assert got != norms(materialised_sequence(x_constant_sequence(4, periodic_x)))


# --- strips of stacked time slices -----------------------------------------------

# Slices of the 4 x 4 (periodic) or 5 x 4 (one-sided) pass grid of flat-para
# on a 16 x 12 full grid that fit in the full grid's tallest strip: 192 nodes
# in one strip, or 7 rows of 12 in strips of 3 rows
STACKED = {(None, True): 12, (None, False): 9, (3, True): 5, (3, False): 4}


@pytest.mark.parametrize("height", [None, 3])
@pytest.mark.parametrize("interior", [1, 3, 7, 15, 40])
@pytest.mark.parametrize("periodic_x", [True, False])
def test_stacked_flow_bit_equal_to_materialised(monkeypatch, pass_strips, periodic_x,
                                                interior, height):
    # the copies run one slice per strip, in strips of 3 rows at height 3;
    # the views stack their slices, in two or more strips from 15 on
    if height is not None:
        monkeypatch.setattr(cy, "_STRIP_NODES", height * 12)
    grid = cy.SurfaceGrid(16, 12, 1.0 / 16, 1.0 / 12, periodic_x=periodic_x)
    seq = cy.example_flat_paracontact(grid, [0.1 * k for k in range(interior + 2)], 1.0, 0.5)
    copies = materialised_sequence(seq)
    rows, size = 4 if periodic_x else 5, STACKED[height, periodic_x]
    for eps, lambda2, kappa in ((1, 0.0, 0.0), (-1, 0.4, 0.7)):
        pass_strips.clear()
        got = norm_bits(cy.evolution_residuals(seq, eps, lambda2, kappa))
        assert pass_strips == [(min(size, interior - t), rows, 4)
                               for t in range(0, interior, size)]
        assert len(pass_strips) >= 2 or interior < 15
        pass_strips.clear()
        assert norm_bits(cy.evolution_residuals(copies, eps, lambda2, kappa)) == got
        assert {strip[0] for strip in pass_strips} == {1}


@pytest.mark.parametrize("height", [None, 3, 1])
@pytest.mark.parametrize("n", [1, 3, 15, 40])
@pytest.mark.parametrize("periodic_x", [True, False])
@pytest.mark.parametrize("nx, ny, cut_x, cut_y", [
    (16, 12, True, True), (16, 12, False, False), (13, 8, False, False),
    (64, 64, True, True), (512, 512, False, True), (16, 12, True, False)])
def test_strips_own_every_slice_row_once(monkeypatch, nx, ny, cut_x, cut_y, periodic_x, n,
                                         height):
    # each (slice, row) of a pass is owned by exactly one strip, and no strip
    # holds more nodes than the tallest strip of a dense pass on the full grid
    if height is not None:
        monkeypatch.setattr(cy, "_STRIP_NODES", height * ny)
    full = cy.SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny, periodic_x=periodic_x)
    grid = replace(full, nx=min(nx, 4 if periodic_x else 5) if cut_x else nx,
                   ny=4 if cut_y else ny)
    owners, last, tallest = {}, 0, strip_planes_bytes(1, full) // 8
    for group, rows, strip, own in cy._strips(full, grid, n):
        assert group.start >= last and group.stop > group.start  # slice group by group
        last = group.start
        read = np.concatenate([np.arange(grid.nx)[r] for r in rows])
        assert (strip.nx, strip.ny) == (len(read), grid.ny)
        assert len(range(n)[group]) * strip.nx * strip.ny <= tallest
        for t in range(n)[group]:
            for x in read[own]:
                owners[t, x] = owners.get((t, x), 0) + 1
    assert owners == {(t, x): 1 for t in range(n) for x in range(grid.nx)}


# --- the first difference --------------------------------------------------------


def strided_d1(f, axis, h, periodic):
    """The second-order first difference along any axis of f, its interior
    one strided subtraction of slices along axis: the reference for
    _partial's subtraction over the flattened stack, and the stencil of the
    per-node oracles."""
    sl = [slice(None)] * f.ndim

    def at(idx):
        s = list(sl)
        s[axis] = idx
        return tuple(s)

    out = np.empty_like(f)
    np.subtract(f[at(slice(2, None))], f[at(slice(0, -2))], out=out[at(slice(1, -1))])
    if periodic:
        out[at(0)] = f[at(1)] - f[at(-1)]
        out[at(-1)] = f[at(0)] - f[at(-2)]
    else:
        out[at(0)] = -3.0 * f[at(0)] + 4.0 * f[at(1)] - f[at(2)]
        out[at(-1)] = 3.0 * f[at(-1)] - 4.0 * f[at(-2)] + f[at(-3)]
    out /= 2.0 * h
    return out


def strided_partial(f, m, grid):
    """d_m f of planes f by strided_d1: x along axis -2, y along the
    periodic axis -1."""
    if m == 0:
        return strided_d1(f, -2, grid.hx, grid.periodic_x)
    return strided_d1(f, -1, grid.hy, True)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("ny", [4, 64])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("m", [0, 1])
def test_difference_bit_equal_to_strided_form(m, periodic, ny, swapped):
    rng = np.random.default_rng(ny)
    f = rng.normal(size=(2, 2, 64, ny)) * 10.0 ** rng.integers(-8, 9, size=(2, 2, 64, ny))
    if swapped:  # not C-contiguous; its x difference runs over a C-contiguous view
        f = f.swapaxes(-1, -2)
    grid = cy.SurfaceGrid(*f.shape[-2:], 0.37, 0.29, periodic_x=periodic)
    want = strided_partial(f, m, grid)
    assert same_bits(cy._partial(f, m, grid), want)
    out = np.full_like(f, np.nan)  # in f's layout
    assert cy._partial(f, m, grid, out) is out and same_bits(out, want)


def test_y_difference_allocates_no_buffer():
    # the strided form buffered its operands: 194 KB at this shape
    f = np.random.default_rng(5).normal(size=(2, 2, 64, 64))
    out = np.empty_like(f)
    grid = cy.SurfaceGrid(64, 64, 0.1, 0.1)
    cy._partial(f, 1, grid, out)
    _, peak = traced(lambda: cy._partial(f, 1, grid, out))
    assert peak < 16 * 1024


def test_christoffel_holds_dq_term_and_gamma_at_most():
    # dq, the Koszul term and Gamma, 8 planes each, are the most christoffel
    # holds at once; d_l q_ij is subtracted one plane pair at a time, since a
    # transposed dq is buffered. Gamma keeps the bits of the one-line form
    n = 64
    rng = np.random.default_rng(11)
    s = rng.normal(size=(n, n, 2, 2), scale=0.1)
    q = np.eye(2) + 0.5 * (s + np.swapaxes(s, 2, 3))
    d = cy.SurfaceData(cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n), q, np.zeros((n, n, 2, 2)),
                       np.ones((n, n)), np.ones((n, n, 2)), np.ones((n, n)))
    strip = whole_grid(d)
    dq = cy._partials(strip.q, d.grid)
    term = (dq.transpose(0, 2, 1, 3, 4, 5) + dq.transpose(2, 0, 1, 3, 4, 5)
            - dq.transpose(1, 2, 0, 3, 4, 5))
    want = 0.5 * (strip.inv[:, 0, None, None] * term[None, :, :, 0]
                  + strip.inv[:, 1, None, None] * term[None, :, :, 1])
    gamma, peak = traced(lambda: cy.christoffel(strip))
    assert same_bits(gamma, want) and np.abs(want).max() > 0.1
    assert peak < 24 * n * n * 8 + 16 * 1024


def test_wrapped_differences_raise_no_warning():
    # 1e308 - (-1e308) overflows, and inf - inf is invalid, only across a row
    # end, where the edge stencils overwrite the wrapped difference (a
    # one-sided stencil overflows itself on entries that large). The x
    # difference of f.T runs over f's rows as the y difference of f does
    over, invalid = np.zeros((4, 8)), np.zeros((4, 8))
    over[0, -1], over[1, 1] = -1e308, 1e308
    invalid[0, -1] = invalid[1, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, m, periodic in ((over, 0, True), (over, 1, True), (invalid, 0, True),
                               (invalid, 1, True), (invalid, 0, False)):
            f = f.T if m == 0 else f
            grid = cy.SurfaceGrid(*f.shape, 1.0, 1.0, periodic_x=periodic)
            assert same_bits(cy._partial(f, m, grid), strided_partial(f, m, grid))
    # an overflow inside a row warns once, as in the strided form
    f = over
    f[1, 3], f[1, 5] = 1e308, -1e308
    for m, g in ((0, f.T), (1, f)):
        grid = cy.SurfaceGrid(*g.shape, 1.0, 1.0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in subtract") as got:
            d = cy._partial(g, m, grid)
        with pytest.warns(RuntimeWarning, match="overflow encountered in subtract") as want:
            ref = strided_partial(g, m, grid)
        assert len(got) == len(want) == 1 and same_bits(d, ref)


def traced(run):
    """run()'s result, and the peak bytes traced while it ran over the bytes
    traced before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Python objects and the compact arrays behind the views: a field held at
# full size would trace megabytes at these grids
BUILD_BOUND = 64 * 1024


def test_examples_trace_under_64_kb():
    # 29.4 and 19.9 MB with every field held at full size
    _, iso = traced(lambda: cy.example_null_isothermal(cy.isothermal_grid(512, 512), 1.0))
    assert iso < BUILD_BOUND
    grid = cy.SurfaceGrid(256, 256, 1.0 / 256, 1.0 / 256)
    _, flat = traced(lambda: cy.example_flat_paracontact(grid, [0.0, 0.05, 0.1], 1.0, 0.5))
    assert flat < BUILD_BOUND


# --- the lambda^2 and kappa terms ------------------------------------------------


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_lambda_kappa_terms_on_constant_slice(eps):
    # q = s Id, Theta = 0 and constant F, alpha: R^q and every Theta term
    # vanish, so r3 is c - 2 kappa F^2 and r4 is -kappa F alpha
    n, s, F, a, lambda2, kappa = 8, 1.7, 0.6, (0.3, -0.8), 0.4, 0.7
    grid = cy.SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
    d = cy.SurfaceData(grid, np.broadcast_to(s * np.eye(2), (n, n, 2, 2)), np.zeros((n, n, 2, 2)),
                       np.full((n, n), F), np.broadcast_to(a, (n, n, 2)), np.ones((n, n)))
    res = cy.constraint_residuals(d, eps, lambda2, kappa)
    c = (5 * lambda2 + 3 * kappa * eps) / 2
    assert res.hamiltonian == pytest.approx(abs(c - 2 * kappa * F**2), rel=1e-14)
    assert res.momentum == pytest.approx(max(abs(kappa * F * ai) for ai in a), rel=1e-14)


def test_lambda_kappa_terms_of_ricci_flow():
    # flat, static q with Theta = 0 and beta = 1: e2 is
    # -kappa alpha_i alpha_j + (lambda^2 + kappa eps) q_ij / 2, eps = 1
    lambda2, kappa = 0.4, 0.7
    grid = cy.SurfaceGrid(8, 8, 1.0 / 8, 1.0 / 8)
    seq = cy.example_flat_paracontact(grid, [0.0, 0.3, 0.6, 0.9], 1.0, 0.5)
    evo = cy.evolution_residuals(seq, 1, lambda2, kappa)
    want = max(
        np.max(np.abs(-kappa * np.outer(s.alpha[0, 0], s.alpha[0, 0])
                      + 0.5 * (lambda2 + kappa) * s.q[0, 0]))
        for s in seq.slices[1:-1]
    )
    assert want > 0.1
    assert evo.ricci_flow == pytest.approx(want, rel=1e-14)
