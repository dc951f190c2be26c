"""FrozenCsc.factor: the column order of a pattern's first LU factor, kept."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gridsim.opf import opf_build
from gridsim.opf.ipm import _solve_reg
from gridsim.parsers import load_network
from gridsim.powerflow import model_build
from gridsim.powerflow.pattern import COLUMN_MODE, FrozenCsc
from gridsim.powerflow.solver import NewtonSystem, flat_start

from conftest import CASES
from networks import _loaded_mixed_net


def _newton(rng):
    """The case57 Newton pattern and the values of a Jacobian near flat."""
    model = model_build(load_network(CASES / "case57.m")[0])
    system = NewtonSystem(model)
    v = flat_start(model) * (1 + 0.05 * rng.standard_normal(model.n_node))
    return system.pattern, system.jacobian(v, model.s_g).data.copy()


def _kkt(rng):
    """The case57 KKT pattern and the values of one of its matrices."""
    prob = opf_build(load_network(CASES / "case57.m")[0])
    res = prob.eval_all(prob.x0)
    lam = rng.standard_normal(len(res.g))
    mu = np.abs(rng.standard_normal(len(res.h)))
    sigma = np.abs(rng.standard_normal(len(res.h)))
    values = prob.kkt.values(res.hess(lam, mu), res.jac_g, res.jac_h, sigma)
    return prob.kkt.pattern, values


def _error(solve, pattern, values, rhs) -> float:
    """Largest difference from a fresh solve in the pattern's own order,
    relative to it."""
    fresh = spla.splu(pattern.matrix(values), permc_spec=pattern.permc_spec,
                      **COLUMN_MODE).solve(rhs)
    return float(np.abs(solve(rhs) - fresh).max() / np.abs(fresh).max())


@pytest.fixture(params=[_newton, _kkt], ids=["newton", "kkt"])
def system(request):
    rng = np.random.default_rng(11)
    pattern, values = request.param(rng)
    return pattern, values, rng.standard_normal(pattern.shape[0])


def test_a_kept_factor_solves_as_a_fresh_one(system):
    pattern, values, rhs = system
    assert pattern.perm_c is None
    first = pattern.factor(values)
    perm_c = pattern.perm_c
    assert sorted(perm_c) == list(range(pattern.shape[0]))
    assert _error(first, pattern, values, rhs) == 0.0
    # new values, same pattern: a kept-order factor, equal to round-off
    values = values * np.linspace(0.5, 1.5, len(values))
    assert _error(pattern.factor(values), pattern, values, rhs) <= 1e-12
    assert pattern.perm_c is perm_c


def test_a_layout_gathered_for_another_order_fails_the_comparison(system):
    # the mutation check of the comparison above
    pattern, values, rhs = system
    pattern.factor(values)
    assert _error(pattern.factor(values), pattern, values, rhs) <= 1e-12
    other = FrozenCsc(pattern.rows, pattern.cols, pattern.shape)
    other.perm_c = pattern.perm_c[::-1].copy()
    other._permute()
    pattern._gather = other._gather
    assert _error(pattern.factor(values), pattern, values, rhs) > 1e-12


def test_every_factor_runs_in_column_mode(monkeypatch):
    calls = []
    splu = spla.splu

    def spy(matrix, permc_spec="COLAMD", **kwargs):
        calls.append((permc_spec, kwargs.get("panel_size"), kwargs.get("relax")))
        return splu(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    rng = np.random.default_rng(11)
    pattern, values = _newton(rng)
    pattern.factor(values)                # the first, MMD_AT_PLUS_A
    pattern.factor(values)                # kept
    # an all-zero KKT matrix is singular: each solve retries regularized,
    # first while no order is recorded, then in the kept one
    kkt = opf_build(load_network(CASES / "case57.m")[0]).kkt
    zeros = np.zeros(len(kkt.pattern.rows))
    rhs = rng.standard_normal(kkt.pattern.shape[0])
    for kept in (False, True):
        entry = {"factor_s": 0.0}
        _solve_reg(kkt, zeros, rhs, entry)
        assert entry["reg"] == 1e-10 and entry["kept_order"] is kept
    assert [spec for spec, _, _ in calls] == [
        "MMD_AT_PLUS_A", "NATURAL", "COLAMD", "COLAMD", "NATURAL", "NATURAL"]
    assert all((panel, relax) == (1, 1) for _, panel, relax in calls)


@pytest.mark.parametrize("net_fn", [
    lambda: load_network(CASES / "case14.m")[0],
    lambda: load_network(CASES / "case30.m")[0],
    lambda: load_network(CASES / "case57.m")[0],
    _loaded_mixed_net,
], ids=["case14", "case30", "case57", "loaded_mixed"])
def test_the_newton_order_fills_no_more_than_colamd(net_fn):
    # the first factor at flat start, in the Newton pattern's own order
    # against COLAMD's (350 against 459 stored entries on case14).
    # _pv_delta_net, 15 unknowns, is the one small network where minimum
    # degree on A + A^T fills more: 111 against 101.
    model = model_build(net_fn())
    system = NewtonSystem(model)
    values = system.jacobian(flat_start(model), model.s_g).data.copy()
    pattern = system.pattern
    assert pattern.permc_spec == "MMD_AT_PLUS_A" and pattern.fill == 0
    pattern.factor(values)
    colamd = spla.splu(pattern.matrix(values), **COLUMN_MODE)
    assert 0 < pattern.fill <= colamd.nnz
