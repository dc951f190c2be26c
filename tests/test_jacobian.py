import copy

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gridsim.opf import ipm_solve, opf_build
from gridsim.parsers import load_network
from gridsim.powerflow import (
    HeldPowerFlow,
    PfOptions,
    jacobian_rect,
    model_build,
    nr_solve,
    residual_current,
    solve_network,
)
from gridsim.powerflow.model import model_refresh
from gridsim.powerflow.pattern import FrozenCsc
from gridsim.powerflow.solver import NewtonSystem

from conftest import CASES
from networks import _loaded_mixed_net, _pv_delta_net, _zip_net


def _fd_jacobian(model, v, s_g, eps=1e-7):
    """Central finite differences of the stacked real residual."""
    n = model.n_node

    def f(x):
        vv = x[:n] + 1j * x[n:]
        r = residual_current(model, vv, s_g)
        return np.concatenate([r.real, r.imag])

    x0 = np.concatenate([v.real, v.imag])
    jac = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        step = np.zeros(2 * n)
        step[j] = eps
        jac[:, j] = (f(x0 + step) - f(x0 - step)) / (2 * eps)
    return jac


def _random_state(model, rng, spread=0.15):
    n = model.n_node
    v = 1.0 + spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return v


def _check(model, v, s_g=None, rtol=1e-6):
    analytic = jacobian_rect(model, v, s_g).toarray()
    fd = _fd_jacobian(model, v, s_g if s_g is not None else model.s_g)
    scale = max(1.0, np.max(np.abs(fd)))
    np.testing.assert_allclose(analytic, fd, atol=rtol * scale)


def test_jacobian_wye_loads():
    net = _zip_net(delta=False)
    model = model_build(net)
    rng = np.random.default_rng(11)
    for _ in range(5):
        _check(model, _random_state(model, rng))


def test_jacobian_delta_loads():
    net = _zip_net(delta=True)
    model = model_build(net)
    rng = np.random.default_rng(12)
    for _ in range(5):
        _check(model, _random_state(model, rng))


def test_jacobian_with_generation():
    net = _zip_net()
    model = model_build(net)
    rng = np.random.default_rng(13)
    s_g = model.s_g.copy()
    s_g[:3] = 0.4 + 0.1j
    for _ in range(5):
        _check(model, _random_state(model, rng), s_g)


@pytest.mark.parametrize("case", ["case14", "case57"])
def test_jacobian_standard_cases(case):
    net, _ = load_network(CASES / f"{case}.m")
    model = model_build(net)
    rng = np.random.default_rng(7)
    for _ in range(3):
        _check(model, _random_state(model, rng, spread=0.05), rtol=2e-6)


def test_jacobian_directional_derivative():
    # first-order Taylor check along a random complex direction
    net = _zip_net(delta=True)
    model = model_build(net)
    rng = np.random.default_rng(21)
    v = _random_state(model, rng)
    d = rng.standard_normal(model.n_node) + 1j * rng.standard_normal(model.n_node)
    d /= np.linalg.norm(d)
    jac = jacobian_rect(model, v)
    dx = np.concatenate([d.real, d.imag])
    eps = 1e-6
    r0 = residual_current(model, v - eps * d)
    r1 = residual_current(model, v + eps * d)
    fd = np.concatenate([(r1 - r0).real, (r1 - r0).imag]) / (2 * eps)
    np.testing.assert_allclose(jac @ dx, fd, atol=1e-6)


def _newton_fd(system, v, s_g, eps=1e-7):
    """Central differences of NewtonSystem.residual over its unknowns."""

    def f(x):
        return system.residual(*system.point(x, v, s_g))

    x0 = system.unknowns(v, s_g)
    jac = np.zeros((len(x0), len(x0)))
    for j in range(len(x0)):
        step = np.zeros(len(x0))
        step[j] = eps
        jac[:, j] = (f(x0 + step) - f(x0 - step)) / (2 * eps)
    return jac


@pytest.mark.parametrize(
    "net_fn",
    [lambda: load_network(CASES / "case57.m")[0], _pv_delta_net,
     _loaded_mixed_net],
    ids=["case57", "pv_delta", "loaded_mixed"],
)
def test_newton_matrix_matches_finite_differences(net_fn):
    # the matrix nr_solve factors, including the PV magnitude rows and
    # dQg columns, against its own stacked residual
    model = model_build(net_fn())
    system = NewtonSystem(model)
    assert len(system.pv)
    rng = np.random.default_rng(17)
    for _ in range(3):
        v = _random_state(model, rng, spread=0.05)
        s_g = model.s_g.copy()
        s_g[system.pv] += 1j * rng.uniform(-0.3, 0.3, len(system.pv))
        analytic = system.jacobian(v, s_g).toarray()
        fd = _newton_fd(system, v, s_g)
        scale = max(1.0, np.max(np.abs(fd)))
        np.testing.assert_allclose(analytic, fd, atol=2e-6 * scale)


def test_unknowns_round_trip():
    # x carries V at the free nodes and Q at the PV nodes; point() takes
    # the slack voltages and the PV real power from the state it is given
    model = model_build(_pv_delta_net())
    system = NewtonSystem(model)
    rng = np.random.default_rng(3)
    v, v0 = _random_state(model, rng), _random_state(model, rng)
    s_g = model.s_g.copy()
    s_g[system.pv] += 1j * rng.uniform(-0.3, 0.3, len(system.pv))
    s0 = s_g + rng.standard_normal(len(s_g)) + 1j * rng.standard_normal(len(s_g))
    x = system.unknowns(v, s_g)
    assert len(x) == system.pattern.shape[0]
    v1, s1 = system.point(x, v0, s0)
    free, pv = system.free, system.pv
    slack = np.setdiff1d(np.arange(model.n_node), free)
    assert len(slack) and len(pv)
    assert np.array_equal(v1[free], v[free])
    assert np.array_equal(v1[slack], v0[slack])
    assert np.array_equal(s1[pv].imag, s_g[pv].imag)
    assert np.array_equal(s1[pv].real, s0[pv].real)
    others = np.setdiff1d(np.arange(model.n_node), pv)
    assert np.array_equal(s1[others], s0[others])
    assert np.array_equal(system.unknowns(v1, s1), x)


def _cold_pf(net):
    return nr_solve(model_build(net))


def _cold_opf(net):
    return ipm_solve(opf_build(net))


@pytest.mark.parametrize("solve,net_fn,tol,first", [
    (_cold_pf, lambda: load_network(CASES / "case57.m")[0], 1e-12,
     "MMD_AT_PLUS_A"),
    (_cold_pf, _pv_delta_net, 1e-12, "MMD_AT_PLUS_A"),
    (_cold_opf, lambda: load_network(CASES / "case57.m")[0], 1e-9, "COLAMD"),
], ids=["case57", "pv_delta", "case57-opf"])
def test_kept_ordering_step_matches_fresh_factor(solve, net_fn, tol, first,
                                                 monkeypatch):
    # every step of a cold solve, chord steps included, against a fresh
    # default (COLAMD) splu of the same matrix: the first factor orders
    # by the pattern's own order, minimum degree on A + A^T for a Newton
    # Jacobian and COLAMD for a KKT matrix, and every later one takes the
    # kept symmetric ordering
    errors, specs, fills = [], [], []
    factor, splu = FrozenCsc.factor, spla.splu

    def spy(matrix, permc_spec="COLAMD", **kwargs):
        specs.append(permc_spec)
        lu = splu(matrix, permc_spec=permc_spec, **kwargs)
        fills.append(lu.nnz)
        return lu

    def checked(self, values):
        kept, fresh = factor(self, values), splu(self.matrix(values)).solve

        def both(rhs):
            step, ref = kept(rhs), fresh(rhs)
            errors.append(np.abs(step - ref).max() / np.abs(ref).max())
            return step

        return both

    monkeypatch.setattr(FrozenCsc, "factor", checked)
    monkeypatch.setattr(spla, "splu", spy)
    sol = solve(net_fn())
    assert sol.converged
    assert specs == [first] + ["NATURAL"] * (sol.factorizations - 1)
    # each step that factored reports its factor's fill, every other 0
    assert [it["fill"] for it in sol.trace if it["fill"]] == fills
    assert sol.factorizations >= 2 and len(errors) >= sol.iterations - 1
    assert max(errors) <= tol, max(errors)


def test_loaded_system_equals_a_fresh_one():
    # new injection values, one delta power term dropping to zero while
    # its current term keeps the entry: same pattern, same matrix
    net = _pv_delta_net()
    built = model_build(net)
    system = NewtonSystem(built)
    net.zips["ld"].set_delta(0, 1, s=0.0, i=0.04)
    net.zips["ld"].set_wye(1, s=0.5 + 0.1j)
    net.gens["gp"].s[:] = [0.3, 0.0, 0.2]
    model = model_refresh(built, net)
    assert model.y is built.y
    system.load(model)
    fresh = NewtonSystem(model)
    rng = np.random.default_rng(5)
    v = _random_state(model, rng, spread=0.05)
    s_g = model.s_g.copy()
    s_g[system.pv] += 1j * rng.uniform(-0.3, 0.3, len(system.pv))
    held_jac, fresh_jac = system.jacobian(v, s_g), fresh.jacobian(v, s_g)
    assert np.array_equal(held_jac.indptr, fresh_jac.indptr)
    assert np.array_equal(held_jac.indices, fresh_jac.indices)
    assert np.array_equal(held_jac.data, fresh_jac.data)
    assert np.array_equal(system.residual(v, s_g), fresh.residual(v, s_g))


def test_held_power_flow_rebuilds_when_a_delta_entry_goes():
    net = _pv_delta_net()
    held = HeldPowerFlow()
    opts = PfOptions(start="warm", tol_pu=1e-10)

    def solve():
        cold = solve_network(copy.deepcopy(net), PfOptions(tol_pu=1e-10))
        sol = solve_network(net, opts, held=held)
        assert np.max(np.abs(sol.v - cold.v)) < 1e-8
        return sol

    first = solve()
    net.zips["ld"].set_wye(1, s=0.4 + 0.1j)
    second = solve()
    assert held.builds == 1 and second.model.y is first.model.y
    # a delta entry with both terms at zero leaves the model: new pattern
    net.zips["ds"].set_delta(0, 2, s=0.0, i=0.0)
    third = solve()
    assert held.builds == 2 and len(third.model.di) == len(first.model.di) - 2


def test_held_power_flow_rebuilds_when_a_delta_entry_comes():
    net = _pv_delta_net()
    held = HeldPowerFlow()
    opts = PfOptions(start="warm", tol_pu=1e-10)
    first = solve_network(net, opts, held=held)
    # ld has no delta term between slots 0 and 2: a power term there adds
    # a pair of entries, so a new Jacobian pattern
    net.zips["ld"].set_delta(0, 2, s=0.05 + 0.01j)
    assert model_refresh(first.model, net) is None
    cold = solve_network(copy.deepcopy(net), PfOptions(tol_pu=1e-10))
    second = solve_network(net, opts, held=held)
    assert held.builds == 2 and second.model.y is not first.model.y
    assert len(second.model.di) == len(first.model.di) + 2
    assert np.max(np.abs(second.v - cold.v)) < 1e-8
