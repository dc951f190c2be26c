import contextlib
import io
import json
import re
import textwrap

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from gridsim.cli import main, report_schema
from gridsim.parsers import load_case

from conftest import CASES, DATA


def test_pf_success_exit_code(capsys):
    assert main(["pf", str(CASES / "case14.m")]) == 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_pf_json_report_matches_schema(tmp_path, capsys):
    report_path = tmp_path / "pf.json"
    assert main([
        "pf", str(CASES / "case14.m"), "--json", str(report_path), "--quiet"
    ]) == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, report_schema())
    assert report["command"] == "pf"
    assert report["status"] == "converged"
    assert report["residual_pu"] < 1e-8
    assert len(report["solution"]["nodes"]) == 14
    assert report["timing"]["network_s"] > 0
    assert report["timing"]["build_s"] > 0
    assert 0 < report["timing"]["factor_s"] < report["timing"]["solve_s"]
    trace = report["trace"]
    assert len(trace) == report["iterations"]
    assert trace[0]["residual_pu"] > trace[-1]["residual_pu"] > report["residual_pu"]
    # the first step factors; a chord step reuses the newest factor and
    # cut the max residual at least tenfold, and the report counts factors
    # and gives each one's fill
    after = [it["residual_pu"] for it in trace[1:]] + [report["residual_pu"]]
    assert trace[0]["factored"] is True
    for it, new in zip(trace, after):
        assert it["factored"] is (it["factor_s"] > 0) is (it["fill"] > 0)
        assert it["factored"] or new <= 0.1 * it["residual_pu"]
    assert report["factorizations"] == sum(it["factored"] for it in trace)
    assert 1 <= report["factorizations"] < report["iterations"]
    trace[0]["alpha"] = 0.0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    trace[0]["alpha"] = 1.0
    trace[0]["factored"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    trace[0]["factored"] = True
    fill = trace[0]["fill"]
    for bad in (-1, 0.5 + fill):
        trace[0]["fill"] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, report_schema())
    trace[0]["fill"] = fill
    for part, field in [(report["timing"], "network_s"),
                        (report["timing"], "factor_s"),
                        (report, "factorizations")]:
        value = part.pop(field)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, report_schema())
        part[field] = value
    jsonschema.validate(report, report_schema())


def test_pf_non_convergence_exit_code(tmp_path, capsys):
    text = (CASES / "case14.m").read_text()
    # inflate every load far beyond feasibility
    hard = tmp_path / "impossible.m"
    hard.write_text(text.replace("mpc.baseMVA = 100", "mpc.baseMVA = 1"))
    assert main(["pf", str(hard), "--max-iter", "10", "--quiet"]) == 2


def test_pf_singular_jacobian_exit_code(capsys, monkeypatch):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    assert main(["pf", str(CASES / "case14.m"), "--quiet"]) == 2
    assert "singular Jacobian at iteration 1" in capsys.readouterr().err


# One edit of case14 each (old None: the file is ``new``, or no file at
# all), the commands run on it, and the one `error:` line they print,
# where `{path}` is the edited file; an error found in reading the case
# names it.
@pytest.mark.parametrize("old,new,commands,message", [
    (None, None, ("pf",),
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    (None, "this is not a case file", ("pf",),
     "{path}: line 1: missing mpc.baseMVA assignment"),
    # gen row 2, on PV bus 2, with Vg 0; and gen row 1, on the slack bus
    ("\t-40\t1.045\t", "\t-40\t0\t", ("pf", "opf"),
     "PV bus '2': generator 'gen_1_2' has voltage setpoint 0.0, which must "
     "be positive and finite"),
    ("\t0\t1.06\t100\t", "\t0\t0\t100\t", ("pf", "opf"),
     "slack node 1:BAL has voltage magnitude 0.0, which must be positive "
     "and finite"),
    # branch row 1, bus 1 to bus 2, with r = x = 0
    ("\t1\t2\t0.01938\t0.05917\t", "\t1\t2\t0\t0\t", ("pf", "opf"),
     "{path}: mpc.branch row 1 (bus 1 to bus 2) has zero series impedance "
     "(r = x = 0)"),
    # and with r = 1e-310, x = 0, whose admittance 1/(r + jx) overflows
    ("\t1\t2\t0.01938\t0.05917\t", "\t1\t2\t1e-310\t0\t", ("pf", "opf"),
     "{path}: mpc.branch row 1 (bus 1 to bus 2): r is 1e-310, which must be "
     "large enough, with x = 0.0, for a finite series admittance 1/(r + jx)"),
    # bus row 2's Pd, type and id; gen row 2's bus and status
    ("\t21.7\t", "\tNaN\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 2): Pd is nan, which must be finite"),
    ("\t21.7\t", "\tInf\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 2): Pd is inf, which must be finite"),
    ("\t21.7\t", "\t-Inf\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 2): Pd is -inf, which must be finite"),
    ("\t2\t2\t21.7\t", "\t2\tInf\t21.7\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 2): type is inf, which must be finite"),
    ("\t2\t2\t21.7\t", "\t2\t2.5\t21.7\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 2): type is 2.5, which must be a whole "
     "number in 1..4"),
    ("\t2\t2\t21.7\t", "\t2.5\t2\t21.7\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 2.5): bus_i is 2.5, which must be a whole "
     "number in 1..2147483647"),
    ("\t2\t2\t21.7\t", "\t1e30\t2\t21.7\t", ("pf", "opf"),
     "{path}: mpc.bus row 2 (bus 1e+30): bus_i is 1e+30, which must be a "
     "whole number in 1..2147483647"),
    ("\t2\t40\t42.4\t", "\tInf\t40\t42.4\t", ("pf", "opf"),
     "{path}: mpc.gen row 2 (bus inf): bus is inf, which must be finite"),
    ("\t100\t1\t140\t", "\t100\t1.5\t140\t", ("pf", "opf"),
     "{path}: mpc.gen row 2 (bus 2): status is 1.5, which must be a whole "
     "number"),
    # gencost row 1's NCOST
    ("\t0\t3\t0.0430293\t", "\t0\t2.5\t0.0430293\t", ("pf", "opf"),
     "{path}: mpc.gencost row 1: column 4 is 2.5, which must be a whole "
     "number in 0..3"),
    # a base of 0 MVA would divide every per-unit value by zero
    ("mpc.baseMVA = 100;", "mpc.baseMVA = 0;", ("pf", "opf"),
     "{path}: mpc.baseMVA is 0.0, which must be positive and finite"),
    # bus row 2, on line 13, with a cell that is no number, and with a cell
    # too many
    ("\t21.7\t", "\tabc\t", ("pf", "opf"),
     "{path}: line 13: bad number in mpc.bus: could not convert string to "
     "float: 'abc'"),
    ("\t2\t2\t21.7\t", "\t2\t2\t21.7\t0\t", ("pf", "opf"),
     "{path}: line 13: row width 14 != 13 in mpc.bus"),
], ids=["missing", "not-a-case", "pv-vg-0", "slack-vg-0", "zero-z", "tiny-z",
        "pd-nan", "pd-inf", "pd-minus-inf", "type-inf", "type-2.5", "bus-id-2.5",
        "bus-id-1e30", "gen-bus-inf", "gen-status-1.5", "ncost-2.5",
        "base-mva-0", "bad-number", "row-width"])
def test_pf_input_error_exit_code(tmp_path, capsys, old, new, commands,
                                  message):
    path = tmp_path / "case.m"
    if old is not None:
        text = (CASES / "case14.m").read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    elif new is not None:
        path.write_text(new)
    for command in commands:
        assert main([command, str(path), "--quiet"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["error: " + message.format(path=path)]


def test_a_number_with_an_underscore_reads_as_python_reads_it(tmp_path):
    # float() reads 2_1.7 as 21.7, where numpy does not: such a table is
    # read row by row, and read the same
    text = (CASES / "case14.m").read_text()
    path = tmp_path / "case.m"
    path.write_text(text.replace("\t21.7\t", "\t2_1.7\t"))
    assert main(["pf", str(path), "--quiet"]) == 0
    assert load_case(path).bus.tobytes() == load_case(CASES / "case14.m").bus.tobytes()


# The Matpower column contract, by table: the integer columns (ids,
# types, statuses, gencost MODEL and NCOST) and the limit columns, which
# alone may be infinite.  Columns count from 0.
_INT_COLS = {"bus": (0, 1), "gen": (0, 7), "branch": (0, 1, 10),
             "gencost": (0, 3)}
_LIMIT_COLS = {"bus": (11, 12), "gen": (3, 4, 8, 9), "branch": (5, 6, 7)}
_CELL_VALUES = ("NaN", "Inf", "-Inf", "2.5", "1e30", "-1", "0", "1e", "abc")


def _table_rows(lines):
    """(line number, table) of each data row of a case's tables."""
    rows, table = [], None
    for i, line in enumerate(lines):
        start = re.match(r"mpc\.(\w+) = \[", line)
        if start:
            table = start.group(1)
        elif line.startswith("]"):
            table = None
        elif table:
            rows.append((i, table))
    return rows


@st.composite
def _mutated_case(draw):
    """A bundled case with one cell set to a drawn value, or with one row,
    cell, row terminator or closing bracket dropped; the mutated text and
    the (table, column, value) of a set cell."""
    lines = (CASES / f"{draw(st.sampled_from(['case3', 'case14']))}.m"
             ).read_text().split("\n")
    i, table = draw(st.sampled_from(_table_rows(lines)))
    cells = lines[i].rstrip(";").split("\t")[1:]
    # half the cells drawn are in integer columns, and most mutations set a
    # cell, since the contract says most about those
    col = draw(st.sampled_from(_INT_COLS[table]) | st.integers(0, len(cells) - 1))
    kind = draw(st.sampled_from(["set", "set", "set", "drop-row", "drop-cell",
                                 "drop-;", "drop-]"]))
    value = draw(st.sampled_from(_CELL_VALUES)) if kind == "set" else None
    if kind in ("set", "drop-cell"):
        cells[col:col + 1] = [value] if kind == "set" else []
        lines[i] = "\t" + "\t".join(cells) + ";"
    elif kind == "drop-;":
        lines[i] = lines[i].rstrip(";")
    elif kind == "drop-]":
        end = next(j for j in range(i, len(lines)) if lines[j] == "];")
        lines[end] = ";"
    else:
        del lines[i]
    return "\n".join(lines), table, col, value


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=120, deadline=None)
@given(mutant=_mutated_case())
def test_a_mutated_case_exits_by_the_contract(tmp_path_factory, mutant):
    text, table, col, value = mutant
    path = tmp_path_factory.getbasetemp() / "mutant.m"
    path.write_text(text)
    for command in ("pf", "opf"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path), "--quiet"])
        assert code in (0, 1, 2)
        if value == "2.5" and col in _INT_COLS[table]:
            assert code == 1, "a non-whole number in an integer column"
        if value in ("NaN", "Inf", "-Inf") and \
                col not in _LIMIT_COLS.get(table, ()):
            assert code == 1, "a non-finite number outside the limit columns"


@pytest.mark.parametrize("old,new", [
    ("\t14\t1\t14.9\t5\t0\t0\t", "\t14\t1\t14.9\t5\t1e30\t0\t"),
    ("\t14\t1\t14.9\t5\t0\t0\t", "\t14\t1\t14.9\t5\t0\t1e30\t"),
    ("\t6\t11\t0.09498\t0.1989\t0\t", "\t6\t11\t0.09498\t0.1989\t1e30\t"),
], ids=["bus-14-gs", "bus-14-bs", "branch-11-b"])
def test_pf_zero_voltage_after_a_step_is_a_breakdown(tmp_path, capsys, old,
                                                     new):
    # a huge shunt pulls a loaded node to 0 V in the first trial step, where
    # its load divides by the voltage
    path = tmp_path / "case.m"
    text = (CASES / "case14.m").read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert main(["pf", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert re.fullmatch(r"error: case: power flow broke down: zero voltage at "
                        r"node \d+:BAL with nonzero power term after the step "
                        r"at iteration 1", err[0]), err[0]


@pytest.mark.parametrize("argv", [
    [],
    ["pf"],
    ["frob"],
    ["pf", "x.m", "--tol", "abc"],
    ["opf", "x.m", "--max-iter", "1.5"],
], ids=["no-command", "pf-no-case", "unknown-command", "bad-float", "bad-int"])
def test_usage_error_exits_1_not_2(argv, capsys):
    # 2 means non-convergence; argparse's own usage-error code would clash
    assert main(argv) == 1
    assert "usage: gridsim" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["pf", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: gridsim" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value,message", [
    ("--max-iter", "0", "max_iter must be at least 1"),
    ("--tol", "0", "tol must be positive"),
])
def test_opf_bad_option_exits_1(flag, value, message, capsys):
    assert main(["opf", str(CASES / "case14.m"), flag, value, "--quiet"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--repeat", "0", "--repeat must be at least 1"),
    ("--tol", "0", "tol_pu must be positive"),
])
def test_bench_bad_option_exits_1(flag, value, message, capsys):
    assert main(["bench", str(CASES / "case14.m"), flag, value]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    # rejected before any case is run, so no table is printed
    assert captured.out == ""


def test_opf_json_report(tmp_path, capsys):
    report_path = tmp_path / "opf.json"
    assert main([
        "opf", str(CASES / "case14.m"), "--json", str(report_path), "--quiet"
    ]) == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, report_schema())
    assert report["command"] == "opf"
    assert report["status"] == "optimal"
    assert report["objective"] == pytest.approx(8081.53, rel=1e-3)
    assert max(report["kkt"].values()) <= 1e-6
    assert report["solution"]["gens"]
    assert report["timing"]["network_s"] > 0
    assert 0 < report["timing"]["factor_s"] < report["timing"]["solve_s"]
    # one trace entry per iteration; the last finds the point optimal and
    # takes no step
    trace = report["trace"]
    assert len(trace) == report["iterations"]
    assert {k: trace[-1][k] for k in report["kkt"]} == report["kkt"]
    assert trace[-1]["alpha_p"] is None and trace[-1]["alpha_d"] is None
    assert all(0 < it["alpha_p"] <= 1 and 0 < it["alpha_d"] <= 1
               for it in trace[:-1])
    mu_b = [it["mu_b"] for it in trace]
    assert mu_b == sorted(mu_b, reverse=True) and mu_b[-1] < mu_b[0]
    assert trace[0]["primal"] > trace[-1]["primal"]
    # COLAMD orders the first factor, every later one keeps its order,
    # none needs regularization, and the report counts the factors and
    # gives each one's fill
    assert [it["kept_order"] for it in trace[:-1]] == \
        [False] + [True] * (len(trace) - 2)
    assert all(it["reg"] == 0.0 for it in trace)
    assert all(it["factor_s"] > 0 and it["fill"] > 0 for it in trace[:-1])
    assert trace[-1]["fill"] == 0
    assert report["factorizations"] == report["iterations"] - 1
    trace[0]["kept_order"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    trace[0]["kept_order"] = False
    trace[0]["mu_b"] = 0.0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    trace[0]["mu_b"] = mu_b[0]
    trace[0]["fill"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    trace[0]["fill"] = trace[1]["fill"]
    factor_s = report["timing"].pop("factor_s")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    report["timing"]["factor_s"] = factor_s
    factorizations = report.pop("factorizations")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())
    report["factorizations"] = factorizations
    # a power-flow iteration is no optimization iteration
    report["trace"] = [{"residual_pu": 1.0, "alpha": 1.0, "halvings": 0,
                        "factored": True, "factor_s": 1e-3, "fill": 100}]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())


def test_opf_binding_constraints_reported(tmp_path, capsys):
    report_path = tmp_path / "opf3.json"
    assert main([
        "opf", str(CASES / "case3.m"), "--json", str(report_path), "--quiet"
    ]) == 0
    report = json.loads(report_path.read_text())
    assert "flow:branch_1_1_3:0" in report["solution"]["binding_constraints"]


@pytest.mark.parametrize("case", ["case3", "case14"])
@pytest.mark.parametrize("command, keys", [
    ("pf", {"nodes"}), ("opf", {"nodes", "gens", "binding_constraints"})],
    ids=["pf", "opf"])
def test_a_report_states_each_fact_once(tmp_path, capsys, case, command,
                                        keys):
    # the solution holds only what no other key states; the status, the
    # counts, the solver's norms and the timing are top-level facts
    report_path = tmp_path / "report.json"
    assert main([command, str(CASES / f"{case}.m"), "--json",
                 str(report_path), "--quiet"]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["solution"]) == keys
    assert len(report["solution"]["nodes"]) == load_case(
        CASES / f"{case}.m").n_bus
    assert report_path.read_text().count('"timing"') == 1
    report["solution"]["timing"] = report["timing"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, report_schema())


def test_bench_table(capsys):
    assert main([
        "bench", str(CASES / "case14.m"), str(CASES / "case30.m"),
        "--repeat", "1",
    ]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split("\t") == [
        "case", "n_bus", "pf_ms", "opf_ms", "pf_iters", "opf_iters",
        "pf_factors", "opf_factors", "status"
    ]
    assert len(lines) == 3
    for line in lines[1:]:
        row = dict(zip(lines[0].split("\t"), line.split("\t")))
        assert row["status"] == "ok"
        # a chord step reuses a factor; every IPM step but the last factors
        assert 1 <= int(row["pf_factors"]) <= int(row["pf_iters"])
        assert int(row["opf_factors"]) == int(row["opf_iters"]) - 1


def test_sim_run_writes_outputs(tmp_path, capsys):
    cfg = textwrap.dedent(
        f"""
        - simulation:
            start_time: 0
            end_time: 1200
        - matpower:
            input_file: {CASES / 'case14.m'}
            id: grid
        - time_series:
            id: ld
            times: [0, 600, 1200]
            values: [[21.7, 12.7], [30.0, 15.0], [25.0, 12.0]]
        - time_series_zip:
            id: drive
            zip: load_2
            series: ld
        - volt_var_controller:
            id: vvc
            inverters: []
        """
    )
    path = tmp_path / "run.yaml"
    path.write_text(cfg)
    out_dir = tmp_path / "out"
    assert main(["sim", str(path), "--out", str(out_dir), "--log"]) == 0
    # one solve per knot; the power-flow structure and the volt-VAR problem
    # are each built once for the run.  With no inverter nothing marks
    # generation alone, so the five later models (the controller's and the
    # solves') are full refreshes
    assert re.search(
        r"; network grid: 3 solves, \d+\.\d\d iterations per solve, "
        r"\d+ LU factors, 5 full refreshes, 0 generation-only refreshes, "
        r"1 model builds; volt-var vvc: 3 solves, "
        r"\d+\.\d\d IPM iterations per solve, 1 problem builds, "
        r"0 failed solves$",
        capsys.readouterr().out.rstrip())
    network_csv = (out_dir / "network.csv").read_text().strip().split("\n")
    assert network_csv[0] == "time,node,Vmag_pu"
    assert len(network_csv) == 1 + 3 * 14  # 3 timesteps x 14 nodes
    updates = (out_dir / "updates.csv").read_text()
    assert updates.startswith("time,component_id,kind,rank\n")
    assert ",grid,contingent," in updates or ",grid,scheduled," in updates


def test_sim_config_errors(tmp_path, capsys):
    assert main(["sim", str(tmp_path / "none.yaml")]) == 1
    no_sim = tmp_path / "nosim.yaml"
    no_sim.write_text("- heartbeat:\n    id: hb\n    interval_s: 10\n")
    assert main(["sim", str(no_sim)]) == 1
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text(
        "- simulation:\n    start_time: 0\n    end_time: 1\n- wat:\n    id: x\n"
    )
    assert main(["sim", str(unknown)]) == 1
    capsys.readouterr()
    # a component that does not advance its clock would run one instant
    # forever: its interval is rejected when it is made
    for interval in (0, -10):
        stuck = tmp_path / "stuck.yaml"
        stuck.write_text(
            "- simulation:\n    start_time: 0\n    end_time: 3600\n"
            "- battery:\n    id: b\n    capacity_kwh: 10\n"
            f"    update_interval_s: {interval}\n"
        )
        assert main(["sim", str(stuck), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: 1: battery: Battery 'b': update_interval_s "
                       f"must be positive and finite, got {float(interval)}"]


@pytest.mark.parametrize("text, where", [
    (b"- simulation:\n    start_time: 0\n    end_time: [1\n", "line 4, column 1"),
    (b"- simulation:\n    start_time: 0\n    end_time: [1\n- heartbeat:\n"
     b"    id: hb\n", "line 4, column 12"),
    (b"\xff\xfe- simulation:\n    start_time: 0\n", "byte 0"),
    (b"- simulation:\n    start_time: \x07\n", "offset 30"),
], ids=["unclosed-at-end", "unclosed", "not-utf-8", "control-character"])
def test_sim_config_that_does_not_parse_names_the_file_and_the_place(
        tmp_path, capsys, text, where):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    assert main(["sim", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # libyaml and PyYAML word the problem differently, so only the place
    # is pinned
    lines = err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: {where}: ")


def _pvdemo_copy(tmp_path):
    """A copy of the pvdemo scenario and its case; the path of its config."""
    (tmp_path / "cases").mkdir()
    (tmp_path / "cases" / "case57.m").write_text(
        (CASES / "case57.m").read_text())
    pvdemo = tmp_path / "pvdemo"
    (pvdemo / "loads").mkdir(parents=True)
    config = pvdemo / "pvdemo_ieee57.yaml"
    config.write_text((DATA / "pvdemo" / "pvdemo_ieee57.yaml").read_text())
    for csv in (DATA / "pvdemo" / "loads").iterdir():
        (pvdemo / "loads" / csv.name).write_text(csv.read_text())
    return config


@pytest.mark.parametrize("edit,message", [
    (lambda row: row.replace(",37.230900,", ",nan,"),
     r"value is not finite: \[nan, 11\.507733\]"),
    (lambda row: row.rsplit(",", 1)[0], r"1 values, where the first row has 2"),
], ids=["nan", "short-row"])
def test_sim_bad_load_series_is_an_input_error(tmp_path, capsys, edit, message):
    # a copy of pvdemo whose first load series has one bad row, on line 3
    config = _pvdemo_copy(tmp_path)
    load_1 = config.parent / "loads" / "load_1.csv"
    lines = load_1.read_text().split("\n")
    assert lines[2] == "600,37.230900,11.507733"
    lines[2] = edit(lines[2])
    load_1.write_text("\n".join(lines))
    assert main(["sim", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert re.search(f"^error: .*{re.escape(str(load_1))}:3: {message}$",
                     err[0]), err[0]


def test_sim_names_the_case_file_of_a_matpower_contract_error(tmp_path, capsys):
    # a copy of pvdemo whose case57 gives bus 2 a type that is no whole number
    config = _pvdemo_copy(tmp_path)
    case = tmp_path / "cases" / "case57.m"
    text = case.read_text()
    assert "\n\t2\t2\t3\t88\t" in text
    case.write_text(text.replace("\n\t2\t2\t3\t88\t", "\n\t2\t2.5\t3\t88\t", 1))
    assert main(["sim", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"error: 2: matpower: {config.parent / '../cases/case57.m'}: "
                   f"mpc.bus row 2 (bus 2): type is 2.5, which must be a whole "
                   f"number in 1..4"]


def test_sim_input_error_at_the_first_solve_exits_1(tmp_path, capsys):
    # a copy of pvdemo whose case has gen row 2, on PV bus 2, at Vg 0: the
    # model rejects it at the first solve, and that is no failed solve
    config = _pvdemo_copy(tmp_path)
    case = tmp_path / "cases" / "case57.m"
    text = case.read_text()
    assert text.count("\t-17\t1.01\t") == 1
    case.write_text(text.replace("\t-17\t1.01\t", "\t-17\t0\t"))
    assert main(["sim", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["error: simulation failed: component 'grid' failed at "
                   "t=0.0: PV bus '2': generator 'gen_1_2' has voltage "
                   "setpoint 0.0, which must be positive and finite"]


def test_schema_is_valid_draft():
    schema = report_schema()
    jsonschema.validators.Draft202012Validator.check_schema(schema)


def test_opf_numerical_breakdown_exit_code(monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    # every factorization fails, regularized retries included
    monkeypatch.setattr(spla, "splu", singular)
    assert main(["opf", str(CASES / "case14.m"), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "numerically singular" in err[0]


def test_sim_power_flow_abort_exit_code(tmp_path, capsys):
    cfg = textwrap.dedent(
        f"""
        - simulation:
            start_time: 0
            end_time: 600
        - matpower:
            input_file: {CASES / 'case14.m'}
            id: grid
        - time_series:
            id: ld
            times: [0, 600]
            values: [[5000.0, 2000.0], [5000.0, 2000.0]]
        - time_series_zip:
            id: drive
            zip: load_2
            series: ld
        """
    )
    path = tmp_path / "abort.yaml"
    path.write_text(cfg)
    assert main(["sim", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "power flow did not converge" in err[0]


def test_sim_solver_breakdown_exit_code(tmp_path, monkeypatch, capsys):
    from gridsim.opf import NumericalBreakdownError
    from gridsim.simlib import control as control_mod

    def breaks_down(*args, **kwargs):
        raise NumericalBreakdownError("KKT matrix is numerically singular")

    monkeypatch.setattr(control_mod, "ipm_solve", breaks_down)
    cfg = textwrap.dedent(
        f"""
        - simulation:
            start_time: 0
            end_time: 600
        - matpower:
            input_file: {CASES / 'case14.m'}
            id: grid
        - volt_var_controller:
            id: vvc
            inverters: []
        """
    )
    path = tmp_path / "breakdown.yaml"
    path.write_text(cfg)
    assert main(["sim", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "'vvc' failed at t=0" in err[0]
    assert "numerically singular" in err[0]
