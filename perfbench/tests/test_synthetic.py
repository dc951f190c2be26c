"""The manufactured-solution generator behind the synthetic-scale workload."""

import numpy as np
import pytest

from gridsim.parsers import case_to_network, load_case, matpower_parse
from gridsim.powerflow import PfOptions, solve_network

import synthetic
import workloads


@pytest.fixture(scope="module")
def base():
    case = load_case(workloads.CASE57)
    return case, workloads.oracle_voltages(workloads.load_oracle(), case)


def _member(base, tiles, seed):
    case, base_v = base
    return synthetic.tiled_case(case, base_v, tiles, np.random.default_rng(seed))


@pytest.mark.parametrize("tiles", [1, 3, 8])
def test_flat_start_recovers_v_star(base, tiles):
    text, v_star = _member(base, tiles, 5)
    net = case_to_network(matpower_parse(text))
    sol = solve_network(net, PfOptions(start="flat"))
    v = np.array([bus.v[0] for bus in net.buses])
    assert sol.converged
    assert np.max(np.abs(v - v_star)) < 1e-6


def test_independent_oracle_agrees_with_v_star(base):
    text, v_star = _member(base, 2, 9)
    v = workloads.oracle_voltages(workloads.load_oracle(), matpower_parse(text))
    assert v is not None
    assert np.max(np.abs(v - v_star)) < 1e-6


def test_table_is_flat_with_one_slack_in_tile_zero(base):
    text, _ = _member(base, 4, 1)
    case = matpower_parse(text)
    assert case.n_bus == 4 * 57
    assert np.all(case.bus[:, 7] == 1.0) and np.all(case.bus[:, 8] == 0.0)
    slack = case.bus[case.bus[:, 1] == 3, 0]
    assert list(slack) == [1.0]
    assert case.branch.shape[0] == 4 * 80 + 3 * synthetic.TIES_PER_TILE


def test_same_seed_same_case_other_seed_other_case(base):
    assert _member(base, 2, 3)[0] == _member(base, 2, 3)[0]
    assert _member(base, 2, 3)[0] != _member(base, 2, 4)[0]


def _tree_ties(n_base, tiles, rng):
    """Two ties from each tile to a random earlier one: a random tree."""
    ties = []
    for t in range(1, tiles):
        parent = int(rng.integers(0, t))
        for b in rng.choice(n_base, size=2, replace=False):
            ties.append((parent, t, int(b), float(rng.uniform(0.03, 0.08))))
    return ties


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the Newton line search keeps steps that raise the "
    "residual, so flat start fails on this member although V* solves it"))
def test_flat_start_solves_a_deep_tie_tree(base, monkeypatch):
    monkeypatch.setattr(synthetic, "_tie_lines", _tree_ties)
    case, base_v = base
    text, v_star = synthetic.tiled_case(case, base_v, 64, np.random.default_rng([0, 1, 0]))
    net = case_to_network(matpower_parse(text))
    sol = solve_network(net, PfOptions(start="flat"))
    v = np.array([bus.v[0] for bus in net.buses])
    assert sol.converged and np.max(np.abs(v - v_star)) < 1e-6
