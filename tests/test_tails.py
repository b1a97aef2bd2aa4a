"""Exponential tail rates: characteristic roots, dispersion relation,
log-linear fits."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from latticefronts.bvp import infinite_range_problem, nagumo_problem
from latticefronts.mfde import characteristic_matrix
from latticefronts import tails
from latticefronts.model import (
    CubicNonlinearity,
    LatticeModel,
    build_infinite_range,
    build_nagumo,
)
from latticefronts.tails import (
    NoRealRootError,
    ReducibleMatrixError,
    TailFitError,
    cutoff_principal_value,
    decay_rates_constant,
    dispersion_value,
    fit_tail,
    folded_weight_matrix,
    periodic_decay_rate,
    principal_eigenpair,
    tail_report_constant,
)


# --------------------------------------------------------------------------
# characteristic roots, constant coefficients

def test_decay_rates_sign_conventions(nagumo_front):
    problem, _, sol = nagumo_front
    report = tail_report_constant(problem.operator(sol.c))
    assert report.lambda0 > 0.0
    assert report.lambda1 < 0.0
    js = report.to_json()
    assert js["lambda0"] == report.lambda0
    assert js["method"] == "characteristic_root"


def test_decay_rates_are_characteristic_roots(nagumo_front):
    problem, _, sol = nagumo_front
    op = problem.operator(sol.c)
    for end in (-1, 1):
        for root in decay_rates_constant(op, end):
            val = np.linalg.det(characteristic_matrix(op, end, complex(root)))
            assert abs(val) <= 1e-8


@pytest.mark.parametrize("front", ["nagumo_front", "traveling_two_site_front"])
def test_tail_eigenvectors_span_the_kernel(front, request):
    problem, _, sol = request.getfixturevalue(front)
    op = problem.operator(sol.c)
    report = tail_report_constant(op)
    for end, lam, vec in ((-1, report.lambda0, report.eigvec0),
                          (+1, report.lambda1, report.eigvec1)):
        assert vec.shape == (op.dimension,)
        assert np.max(np.abs(vec)) == 1.0 and vec[np.argmax(np.abs(vec))] == 1.0
        delta = characteristic_matrix(op, end, complex(lam))
        assert np.linalg.norm(delta @ vec) <= 1e-8


def test_infinite_range_tail_scan_stays_in_float_range():
    # criterion-10 kernel, shifts up to |r| = 40: e^{20 r} would overflow
    irm = build_infinite_range(0.3, 0.5, 1.0, 1, 40)
    c = 0.2613165766630871          # its wave speed at eps = 0.1
    report = tail_report_constant(infinite_range_problem(irm, 0.1).operator(c))
    mu_minus, _ = periodic_decay_rate(irm.full_model(0.1), -1, c)
    assert abs(report.lambda0 - mu_minus) <= 1e-10


def test_decay_rates_need_nonzero_speed(nagumo_front):
    problem, _, _ = nagumo_front
    with pytest.raises(ValueError):
        decay_rates_constant(problem.operator(0.0), -1)


def test_pde_limit_rate(pde_limit_front):
    # continuum front phi = (1 + tanh(-x / (2 sqrt 2)))^{-1}-type tail,
    # decay rate 1/sqrt(2) at -inf
    problem, _, sol = pde_limit_front
    rate, r2, npts = fit_tail(sol.grid.xi, sol.profile, -1)
    assert abs(rate - 1.0 / math.sqrt(2.0)) <= 0.02 * (1.0 / math.sqrt(2.0))
    assert r2 > 0.999
    assert npts >= 8


# --------------------------------------------------------------------------
# tail fits cross-checked against roots

def test_fitted_rates_match_roots(nagumo_front):
    problem, grid, sol = nagumo_front
    report = tail_report_constant(problem.operator(sol.c))
    rate_m, r2_m, _ = fit_tail(grid.xi, sol.profile, -1)
    rate_p, r2_p, _ = fit_tail(grid.xi, sol.profile, +1)
    assert abs(rate_m - report.lambda0) <= 0.05 * abs(report.lambda0)
    assert abs(rate_p - report.lambda1) <= 0.05 * abs(report.lambda1)
    assert min(r2_m, r2_p) > 0.999


def test_fit_tail_rejects_constant_profile():
    xi = np.linspace(-20.0, 20.0, 201)
    with pytest.raises(TailFitError):
        fit_tail(xi, np.full(201, 0.5), -1)


# --------------------------------------------------------------------------
# principal eigenpair

def test_principal_eigenpair_matches_dense_solver():
    rng = np.random.default_rng(5)
    B = rng.uniform(0.1, 1.0, size=(6, 6))
    np.fill_diagonal(B, rng.uniform(-2.0, 2.0, size=6))
    lam, v = principal_eigenpair(B)
    eigs = np.linalg.eigvals(B)
    assert abs(lam - float(np.max(eigs.real))) <= 1e-9
    assert np.all(v > 0.0)
    resid = np.max(np.abs(B @ v - lam * v))
    assert resid <= 1e-8 * np.max(np.abs(B))


def test_principal_eigenpair_rejects_reducible():
    with pytest.raises(ReducibleMatrixError):
        principal_eigenpair(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_principal_eigenpair_rejects_negative_offdiagonal():
    with pytest.raises(ValueError):
        principal_eigenpair(np.array([[0.0, -1.0], [1.0, 0.0]]))


# --------------------------------------------------------------------------
# periodic dispersion relation

def test_period_one_dispersion_reduces_to_constant_roots(nagumo_front):
    problem, _, sol = nagumo_front
    model = build_nagumo(1.0, 0.0, 0.3)
    op = problem.operator(sol.c)
    mu_minus, vec = periodic_decay_rate(model, -1, sol.c)
    roots = [r for r in decay_rates_constant(op, -1) if r > 1e-12]
    assert abs(mu_minus - min(roots)) <= 1e-10
    assert np.all(vec > 0.0)
    assert abs(dispersion_value(model, np.array([0.3]), sol.c, mu_minus)) <= 1e-9


def test_periodic_rate_signs(nagumo_front):
    model = build_nagumo(1.0, 0.0, 0.3)
    _, _, sol = nagumo_front
    mu_m, _ = periodic_decay_rate(model, -1, sol.c)
    mu_p, _ = periodic_decay_rate(model, +1, sol.c)
    assert mu_m > 0.0
    assert mu_p < 0.0


def test_periodic_rate_widens_its_bracket_for_a_fast_front():
    # at c = 3000 the -inf rate lies beyond the first bracket (1e-12, 10]
    a, c = 0.3, 3000.0
    mu, vec = periodic_decay_rate(build_nagumo(1.0, 0.0, a), -1, c)
    assert mu > 10.0
    root = brentq(lambda m: c * m - 2.0 * (math.cosh(m) - 1.0) + a, 10.0, 20.0,
                  xtol=1e-15, rtol=1e-15, maxiter=200)
    assert abs(mu - root) <= 1e-10
    lam0 = tail_report_constant(nagumo_problem(1.0, 0.0, a).operator(c)).lambda0
    assert abs(mu - lam0) <= 1e-10
    assert vec.tolist() == [1.0]


def test_periodic_rate_checks_perron_frobenius_once(monkeypatch):
    calls = []
    components = tails.connected_components
    monkeypatch.setattr(tails, "connected_components",
                        lambda *a, **k: calls.append(a) or components(*a, **k))
    couplings = {(0, -1): 1.0, (0, 0): -2.0, (0, 1): 1.0,
                 (1, -1): 0.5, (1, 0): -1.0, (1, 1): 0.5}
    model = LatticeModel(2, couplings, (CubicNonlinearity(1.0, 0.3),
                                        CubicNonlinearity(1.0, 0.4)))
    mu, vec = periodic_decay_rate(model, -1, 0.2)
    assert len(calls) == 1
    assert mu > 0.0 and np.all(vec > 0.0)
    gammas = np.array([0.3, 0.4])
    assert abs(dispersion_value(model, gammas, 0.2, mu)) <= 1e-9
    # the stacked dispersion values are those of one mu at a time
    mus = np.linspace(0.1, 2.0, 7)
    stacked = dispersion_value(model, gammas, 0.2, mus)
    one = [0.2 * m - principal_eigenpair(folded_weight_matrix(model, m) - np.diag(gammas))[0]
           for m in mus]
    assert np.max(np.abs(stacked - one)) <= 1e-13


def test_periodic_rate_needs_nonzero_speed():
    model = build_nagumo(1.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        periodic_decay_rate(model, -1, 0.0)


def test_folded_weight_matrix_scalar_symbol():
    model = build_nagumo(1.0, 0.0, 0.3)
    mu = 0.4
    M = folded_weight_matrix(model, mu)
    expected = math.exp(mu) + math.exp(-mu) - 2.0
    assert M.shape == (1, 1)
    assert abs(M[0, 0] - expected) <= 1e-14


# --------------------------------------------------------------------------
# geometric-kernel cutoff limit

def test_cutoff_values_monotone_cauchy():
    irm = build_infinite_range(0.3, 0.5, 1.0, 1, 60)
    # added terms scale like (q e^mu)^k, so keep q e^mu well below 1
    mu = 0.1
    vals = [cutoff_principal_value(irm, mu, k0) for k0 in range(1, 31)]
    diffs = np.diff(vals)
    assert np.all(diffs > 0.0)          # adding coupling raises the value
    assert abs(vals[-1] - vals[-2]) < 1e-6
