"""Span coverage and neutrality of the traced run, and the per-layer numbers
that must show today's behaviour as it is."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gridsim.parsers import load_network
from gridsim.powerflow import PfOptions, solve_network
from gridsim.powerflow import solver as solver_mod
from gridsim.simulation import engine as engine_mod

import spans
import workloads

SMALL = {
    "ieee57-cold": lambda: workloads.Ieee57Cold(seed=3),
    "synthetic-scale": lambda: workloads.SyntheticScale(seed=3, pf_tiles=4, opf_tiles=1),
    "pvdemo-24h": lambda: workloads.Pvdemo(seed=3),
}


@pytest.fixture(scope="module")
def replays():
    """Untraced and traced passes of a small run of each workload, run once."""
    done = {}

    def get(name):
        if name not in done:
            workload = SMALL[name]()
            done[name] = (workload, *workloads.traced_replay(workload, 0.2))
        return done[name]

    return get


@pytest.fixture(params=sorted(SMALL))
def replay(request, replays):
    return replays(request.param)


def test_every_declared_span_fires(replay):
    workload, _plain, _traced, tracer, missing = replay
    assert missing == []
    # and nothing fires that the workload should not reach
    for name in tracer.fired() - {"perfbench.listener"}:
        assert workload.name in spans.SPAN_COVERAGE[name]


def test_traced_replay_reproduces_iterations_and_objectives(replay):
    _workload, plain, traced, _tracer, _missing = replay
    assert plain.plan == traced.plan
    assert plain.fingerprints == traced.fingerprints
    assert plain.failed == traced.failed == 0


def test_uninstall_restores_the_library(replay):
    # the replay ran with the tracer installed and removed it afterwards
    assert not hasattr(solver_mod.solve_network, "__wrapped__")
    assert not hasattr(engine_mod.Simulation.do_timestep, "__wrapped__")


def test_every_layer_metric_reported(replay):
    _workload, plain, traced, tracer, _missing = replay
    layers = workloads.per_layer(plain, traced, tracer)
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(layers) == sorted(m["name"] for m in declared)


def test_pvdemo_shows_todays_defects(replays):
    """The harness reports these as they are; a change that fixes one of
    them updates the number here."""
    _workload, plain, traced, tracer, _ = replays("pvdemo-24h")
    m = workloads.per_layer(plain, traced, tracer)
    assert m["simulation.timesteps"] == 145
    # SimNetwork.solve applies the solution a second time
    assert m["powerflow.apply_calls"] == 2.0
    # one Y-bus and model build for the PF, another inside opf_build
    assert m["network.ybus_calls"] == pytest.approx((146 + 145) / 145)
    assert m["powerflow.model_builds"] == pytest.approx((146 + 145) / 145)
    assert m["simlib.SimNetwork.solves_per_step"] == pytest.approx(146 / 145)
    assert m["simlib.VoltVarController.solves"] == 145
    # "warm" restarts from nominal voltages, so each re-solve iterates
    assert m["powerflow.nr_iters"] > 3.0


def test_warm_start_is_not_warm():
    net, _ = load_network(workloads.CASE57)
    flat = solve_network(net, PfOptions(start="flat"))
    warm = solve_network(net, PfOptions(start="warm"))
    assert warm.iterations == flat.iterations > 1


def test_layer_self_time_subtracts_children():
    spans_ = [
        ["opf.ipm_solve", 0.0, 0.010, -1, "opf0", {"iters": 2}],
        ["opf.eval_all", 0.001, 0.003, 0, "opf0", None],
        ["opf.hess", 0.004, 0.005, 0, "opf0", None],
    ]
    m = spans.layer_metrics(spans_, 1, None)
    assert m["opf.ipm_self_ms"] == pytest.approx(7.0)
    assert m["opf.eval_all_ms"] == pytest.approx(2.0)
    assert m["opf.eval_all_calls"] == 1.0
    assert m["opf.ipm_iters"] == 2.0


def test_run_fails_without_the_sources(tmp_path):
    root = Path(workloads.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ieee57-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
