import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from gridsim.network import Phase
from gridsim.parsers import (
    DanglingReferenceError,
    DuplicateBusError,
    MatpowerCase,
    MatpowerSyntaxError,
    case_to_network,
    load_case,
    load_network,
    matpower_parse,
)

from gridsim.parsers import matpower as mp_mod
from gridsim.parsers.matpower import _islands

from conftest import CASES, GOLDEN

MINI = """
function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1  3  0    0   0  0  1  1.0  0  230  1  1.1  0.9;
    2  1  90  30   0  5  1  1.0  0  230  1  1.1  0.9;
];
mpc.gen = [
    1  0  0  300  -300  1.02  100  1  250  10;
];
mpc.branch = [
    1  2  0.01  0.1  0.02  130  0  0  0  0  1;
];
mpc.gencost = [
    2  0  0  3  0.02  5  0;
];
"""


def test_parse_minimal_case():
    case = matpower_parse(MINI, name="mini")
    assert case.base_mva == 100.0
    assert case.n_bus == 2
    assert case.bus.shape == (2, 13)
    assert case.gen.shape == (1, 10)
    assert case.branch.shape == (1, 11)
    assert case.gencost is not None
    assert case.name == "mini"


def test_comments_and_separators_ignored():
    text = MINI.replace(
        "2  1  90  30   0  5  1  1.0  0  230  1  1.1  0.9;",
        "2, 1, 90, 30,  0, 5, 1, 1.0, 0, 230, 1, 1.1, 0.9;  % end comment",
    )
    case = matpower_parse(text)
    assert case.bus[1, 2] == 90.0
    assert case.bus.shape == (2, 13)


# Cells a table body may hold: numbers float() reads, numbers it reads
# that loadtxt does not (1_0, an Arabic-Indic one), and tokens neither
# reads; "#" must not start a comment.
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(str),
    st.sampled_from(["nan", "-NaN", "Inf", "-Infinity", "1e500", "-0",
                     "1_0", "\u0661", "#", "1e", "abc", ""]),
)


@st.composite
def _table_body(draw):
    """A table body: rows of cells split by blanks, tabs or commas, ended
    by ";" or a line break, several rows on a line or a row over none,
    of one width mostly and of another at times, and rows of commas
    alone, which hold no number."""
    width = draw(st.integers(1, 4))
    body = draw(st.sampled_from(["", "\n", " "]))
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.sampled_from([width] * 4 + [0, width + 1, width - 1]))
        cells = draw(st.lists(_CELL | st.just("1.5") | st.just("-2"),
                              min_size=n, max_size=n))
        sep = draw(st.sampled_from([" ", "\t", ",", ", ", "  \t"]))
        row = draw(st.sampled_from([sep.join(cells)] * 6 + [",", " ,\t, "]))
        body += row + draw(st.sampled_from(
            [";", ";\n", "\n", "; ", ";;\n", "\n\n", "\t;\n  "]))
    return body


def _read(parse, body):
    """What ``parse`` makes of a body: an array, or the line and message
    of the MatpowerSyntaxError it raised."""
    try:
        return parse("bus", body, 12)
    except MatpowerSyntaxError as exc:
        return exc.line, str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(body=_table_body())
def test_a_table_reads_as_it_does_row_by_row(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _read(mp_mod._parse_matrix, body)
        slow = _read(mp_mod._parse_rows, body)
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape)
        assert fast.tobytes() == slow.tobytes()


def test_a_clean_table_is_read_in_one_call(monkeypatch):
    monkeypatch.setattr(mp_mod, "_parse_rows", None)
    case = load_case(CASES / "case57.m")
    assert case.bus.shape == (57, 13)
    text = MINI.replace("2  1  90  30", "2, 1, 90, 30")
    assert matpower_parse(text).bus[1, 2] == 90.0


def test_unknown_fields_warn_and_are_recorded():
    text = MINI + "\nmpc.bus_name = [ 1; 2 ];\n"
    with pytest.warns(UserWarning):
        case = matpower_parse(text)
    assert case.extra_fields == ["bus_name"]


def test_syntax_errors():
    with pytest.raises(MatpowerSyntaxError):
        matpower_parse("mpc.bus = [1 2 3];")  # missing baseMVA
    with pytest.raises(MatpowerSyntaxError):
        matpower_parse("mpc.baseMVA = 100;")  # missing tables
    with pytest.raises(MatpowerSyntaxError):
        matpower_parse(MINI.replace("0.01", "zz"))
    with pytest.raises(MatpowerSyntaxError):
        matpower_parse(MINI.replace("230  1  1.1  0.9;\n", "230;\n", 1))
    bad = MINI.replace(
        "mpc.branch = [", "mpc.branch = [\n 1 2 3", 1
    ).replace("1  2  0.01  0.1  0.02  130  0  0  0  0  1;", "", 1)
    with pytest.raises(MatpowerSyntaxError):
        matpower_parse(bad)


def test_duplicate_bus_rejected():
    text = MINI.replace(
        "2  1  90  30", "1  1  90  30"
    )
    with pytest.raises(DuplicateBusError):
        matpower_parse(text)


def test_dangling_references_rejected():
    with pytest.raises(DanglingReferenceError):
        matpower_parse(MINI.replace("1  0  0  300", "7  0  0  300"))
    with pytest.raises(DanglingReferenceError):
        matpower_parse(MINI.replace("1  2  0.01", "1  9  0.01"))


def test_island_slack_counting():
    # second island (buses 3-4) has no slack
    text = MINI.replace(
        "mpc.bus = [",
        "mpc.bus = [\n"
        "    3  1  10  0  0  0  1  1.0  0  230  1  1.1  0.9;\n"
        "    4  1  10  0  0  0  1  1.0  0  230  1  1.1  0.9;",
    ).replace(
        "mpc.branch = [",
        "mpc.branch = [\n    3  4  0.01  0.1  0  0  0  0  0  0  1;",
    )
    with pytest.raises(DanglingReferenceError):
        matpower_parse(text)


def _pairs(values) -> list:
    """Complex values as (re, im) pairs: JSON round-trips every float
    exactly."""
    return [[z.real, z.imag] for z in np.ravel(values).astype(complex).tolist()]


def _network_doc(net) -> dict:
    """What a network built from a case holds, component by component."""
    return {
        "buses": [{"id": b.id, "phases": [p.name for p in b.phases],
                   "type": b.bus_type, "v_base": b.v_base,
                   "v_nom": _pairs(b.v_nom), "v_mag_min": b.v_mag_min.tolist(),
                   "v_mag_max": b.v_mag_max.tolist()} for b in net.buses],
        "zips": [{"id": z.id, "bus": z.terminal.bus_id,
                  "y": _pairs(z.y_const), "i": _pairs(z.i_const),
                  "s": _pairs(z.s_const)} for z in net.zips],
        "gens": [{"id": g.id, "bus": g.terminal.bus_id, "s": _pairs(g.s),
                  "p": [g.p_min, g.p_max], "q": [g.q_min, g.q_max],
                  "v_setpoint": g.v_setpoint, "cost": list(g.cost)}
                 for g in net.gens],
        "branches": [{"id": br.id, "bus0": br.terminals[0].bus_id,
                      "bus1": br.terminals[1].bus_id,
                      "y_series": _pairs(br.model.y_series),
                      "y_shunt": _pairs(br.model.y_shunt), "tap": br.model.tap,
                      "phase_shift_deg": br.model.phase_shift_deg,
                      "s_max_mva": br.s_max_mva} for br in net.branches],
    }


@pytest.mark.parametrize("case", ["case3", "case14", "case30", "case57"])
def test_case_network_golden(case):
    # recorded before the constructors and case_to_network were made
    # leaner; every value must stay bit-identical
    golden = json.loads((GOLDEN / "matpower_networks.json").read_text())[case]
    assert _network_doc(load_network(CASES / f"{case}.m")[0]) == golden


def test_case_to_network_structure():
    case = matpower_parse(MINI, name="mini")
    net = case_to_network(case)
    assert list(net.buses.keys()) == ["1", "2"]
    assert net.buses["1"].bus_type == "SL"
    assert net.buses["1"].phases == (Phase.BAL,)
    # slack voltage magnitude comes from the generator setpoint
    assert abs(net.buses["1"].v_nom[0]) == pytest.approx(1.02)
    assert net.buses["2"].v_mag_max == pytest.approx(1.1)
    gen = net.gens["gen_0_1"]
    assert gen.p_max == 250.0 and gen.p_min == 10.0
    assert gen.cost == (0.0, 5.0, 0.02)
    zl = net.zips["load_2"]
    assert zl.s_const[1, 0] == pytest.approx(0.9 + 0.3j)
    assert zl.y_const[1, 0] == pytest.approx(0.05j)
    br = net.branches["branch_0_1_2"]
    assert br.s_max_mva == 130.0
    assert br.model.y_series == pytest.approx(1.0 / (0.01 + 0.1j))
    assert br.model.y_shunt == pytest.approx(0.02j)


def test_out_of_service_rows_skipped():
    # each out-of-service row breaks a device rule: Pmin > Pmax, Qmin > Qmax,
    # a ratio below 0, r = x = 0; none is checked, and none is built
    text = MINI.replace(
        "mpc.gen = [\n    1  0  0  300  -300  1.02  100  1  250  10;",
        "mpc.gen = [\n    1  0  0  300  -300  1.02  100  1  250  10;\n"
        "    2  0  0  300  400  1.0  100  0  250  260;",
    ).replace(
        "mpc.branch = [",
        "mpc.branch = [\n    1  2  0.01  0.1  0  0  0  0  -1  0  0;\n"
        "    2  1  0  0  0  0  0  0  0  0  0;",
    )
    net = case_to_network(matpower_parse(text))
    assert list(net.gens.keys()) == ["gen_0_1"]
    assert list(net.branches.keys()) == ["branch_2_1_2"]


def test_zero_ratio_means_unity_tap():
    net = case_to_network(matpower_parse(MINI))
    assert net.branches["branch_0_1_2"].model.tap == 1.0


@pytest.mark.parametrize("table,row,col,value,message", [
    ("bus", 1, 2, np.nan, "mpc.bus row 2 (bus 2): Pd is nan"),
    ("bus", 1, 8, -np.inf, "mpc.bus row 2 (bus 2): Va is -inf"),
    ("bus", 0, 11, np.nan, "mpc.bus row 1 (bus 1): Vmax is nan"),
    ("gen", 0, 5, np.inf, "mpc.gen row 1 (bus 1): Vg is inf"),
    ("gen", 0, 8, np.nan, "mpc.gen row 1 (bus 1): Pmax is nan"),
    ("branch", 0, 3, np.inf, "mpc.branch row 1 (bus 1 to bus 2): x is inf"),
    ("branch", 0, 9, np.nan, "mpc.branch row 1 (bus 1 to bus 2): angle is nan"),
    ("gencost", 0, 4, np.nan, "mpc.gencost row 1: column 5 is nan"),
    # ids, types, statuses and the gencost are read, so never infinite
    ("bus", 1, 1, np.inf, "mpc.bus row 2 (bus 2): type is inf"),
    ("gen", 0, 0, np.inf, "mpc.gen row 1 (bus inf): bus is inf"),
    ("gen", 0, 7, -np.inf, "mpc.gen row 1 (bus 1): status is -inf"),
    ("branch", 0, 1, np.inf, "mpc.branch row 1 (bus 1 to bus inf): tbus is inf"),
    ("gencost", 0, 3, np.inf, "mpc.gencost row 1: column 4 is inf"),
])
def test_non_finite_numbers_rejected(table, row, col, value, message):
    case = matpower_parse(MINI)
    data = getattr(case, table).copy()       # a case's tables are read-only
    data[row, col] = value
    full = f"{message}, which must be finite"
    with pytest.raises(ValueError, match=f"^{re.escape(full)}$"):
        dataclasses.replace(case, **{table: data})


@pytest.mark.parametrize("table,col,value,message", [
    ("bus", 1, 5.0, "mpc.bus row 2 (bus 2): type is 5.0, which must be a "
                    "whole number in 1..4"),
    ("branch", 1, 0.0, "mpc.branch row 1 (bus 1 to bus 0): tbus is 0.0, which "
                       "must be a whole number in 1..2147483647"),
    ("gen", 7, 0.5, "mpc.gen row 1 (bus 1): status is 0.5, which must be a "
                    "whole number"),
    ("gencost", 0, 1.0, "mpc.gencost row 1: column 1 is 1.0, which must be a "
                        "whole number in 2..2"),
    ("gencost", 3, 4.0, "mpc.gencost row 1: column 4 is 4.0, which must be a "
                        "whole number in 0..3"),
    # a row's device rules, checked in the case, not by a device constructor
    ("bus", 12, 1.2, "mpc.bus row 2 (bus 2): Vmin is 1.2, which must be at "
                     "most Vmax (1.1)"),
    ("gen", 9, 300.0, "mpc.gen row 1 (bus 1): Pmin is 300.0, which must be at "
                      "most Pmax (250.0)"),
    ("gen", 4, 400.0, "mpc.gen row 1 (bus 1): Qmin is 400.0, which must be at "
                      "most Qmax (300.0)"),
    ("branch", 8, -1.0, "mpc.branch row 1 (bus 1 to bus 2): ratio is -1.0, "
                        "which must be at least 0"),
])
def test_integer_columns_hold_whole_numbers_in_range(table, col, value,
                                                     message):
    case = matpower_parse(MINI)
    data = getattr(case, table).copy()
    data[-1, col] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(case, **{table: data})


def test_gencost_coefficients_fit_in_the_row():
    text = MINI.replace("2  0  0  3  0.02  5  0;", "2  0  0  3  0.02  5;")
    with pytest.raises(ValueError, match=re.escape(
            "mpc.gencost row 1: column 4 is 3.0, which must be a whole number "
            "in 0..2")):
        matpower_parse(text)
    linear = matpower_parse(text.replace("2  0  0  3", "2  0  0  2"))
    assert case_to_network(linear).gens["gen_0_1"].cost == (5.0, 0.02, 0.0)


@pytest.mark.parametrize("bad", ["NaN", "Inf", "-Inf"])
def test_parse_rejects_a_non_finite_number_before_reading_bus_types(bad):
    text = MINI.replace("2  1  90  30", f"2  {bad}  90  30")
    with pytest.raises(ValueError, match=re.escape(
            f"mpc.bus row 2 (bus 2): type is {float(bad)}, which must be "
            f"finite")):
        matpower_parse(text)


@pytest.mark.parametrize("base", ["0", "-100", "Inf", "-Inf", "NaN"])
def test_parse_rejects_a_base_mva_that_is_not_positive(base):
    text = MINI.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {base};")
    with pytest.raises(ValueError, match=re.escape(
            f"mpc.baseMVA is {float(base)}, which must be positive and finite")):
        matpower_parse(text)


@pytest.mark.parametrize("base", ["1e", "abc", "100 200"])
def test_parse_names_the_line_of_a_base_mva_that_is_no_number(base):
    text = MINI.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {base};")
    with pytest.raises(MatpowerSyntaxError, match=re.escape(
            f"line 4: bad number in mpc.baseMVA: {base!r}")):
        matpower_parse(text)


def test_a_parsed_case_is_read_only_and_checked_once(monkeypatch):
    case = matpower_parse(MINI)
    for table in ("bus", "gen", "branch", "gencost"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(case, table)[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.base_mva = 0.0
    # an edited case is a new case, checked as it is made
    with pytest.raises(ValueError, match=re.escape(
            "mpc.baseMVA is 0.0, which must be positive and finite")):
        dataclasses.replace(case, base_mva=0.0)
    bus = case.bus.copy()
    bus[1, 2] = 45.0
    edited = dataclasses.replace(case, bus=bus)
    with pytest.raises(ValueError, match="read-only"):
        bus[1, 2] = 0.0
    checked = []
    monkeypatch.setattr(mp_mod, "_validate", checked.append)
    case_to_network(case)
    assert case_to_network(edited).zips["load_2"].s_const[1, 0] == 0.45 + 0.3j
    assert checked == []


def test_infinite_limits_accepted():
    parsed = matpower_parse(MINI)
    bus, gen, branch = parsed.bus.copy(), parsed.gen.copy(), parsed.branch.copy()
    bus[:, 11] = np.inf         # Vmax
    gen[0, [3, 8]] = np.inf     # Qmax, Pmax
    gen[0, 4] = -np.inf         # Qmin
    branch[0, 5] = np.inf       # rateA
    # a column past the named ones (PC1) is never read
    gen = np.hstack([gen, [[np.inf]]])
    case = dataclasses.replace(parsed, bus=bus, gen=gen, branch=branch)
    net = case_to_network(case)
    assert net.gens["gen_0_1"].q_max == np.inf
    assert net.branches["branch_0_1_2"].s_max_mva == np.inf


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=60))))
def test_islands_match_connected_components(graph):
    n, edges = graph
    a, b = np.array(edges, dtype=int).reshape(-1, 2).T
    count, ref = connected_components(
        sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n)), directed=False)
    label = _islands(n, a, b)
    # the same partition, each island named by its smallest node
    assert len(set(zip(ref, label))) == count == len(set(label))
    assert all(label[i] == np.flatnonzero(label == label[i])[0] for i in range(n))


@pytest.mark.parametrize("case", ["case14", "case30", "case57"])
def test_canonical_json_golden(case):
    parsed = load_case(CASES / f"{case}.m")
    golden = (GOLDEN / f"{case}_canonical.json").read_text()
    assert parsed.to_canonical_json() == golden


@pytest.mark.parametrize("case", ["case14", "case57"])
def test_canonical_json_round_trip(case):
    import json

    parsed = load_case(CASES / f"{case}.m")
    doc = json.loads(parsed.to_canonical_json())
    rebuilt = MatpowerCase(
        base_mva=doc["base_mva"],
        bus=np.asarray(doc["bus"], dtype=float),
        gen=np.asarray(doc["gen"], dtype=float),
        branch=np.asarray(doc["branch"], dtype=float),
        gencost=None if doc["gencost"] is None
        else np.asarray(doc["gencost"], dtype=float),
    )
    assert rebuilt.to_canonical_json() == parsed.to_canonical_json()
