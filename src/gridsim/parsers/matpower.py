"""Matpower case-file reader (version-2 subset) and network conversion."""

from __future__ import annotations

import io
import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..network import Branch, Bus, CommonBranch, Gen, Network, Phase, Terminal, Zip

BUS_COLS = [
    "bus_i", "type", "Pd", "Qd", "Gs", "Bs", "area", "Vm", "Va",
    "baseKV", "zone", "Vmax", "Vmin",
]
GEN_COLS = [
    "bus", "Pg", "Qg", "Qmax", "Qmin", "Vg", "mBase", "status", "Pmax", "Pmin",
]
BRANCH_COLS = [
    "fbus", "tbus", "r", "x", "b", "rateA", "rateB", "rateC",
    "ratio", "angle", "status",
]

_KNOWN_FIELDS = {"version", "baseMVA", "bus", "gen", "branch", "gencost"}
_NAMES = {"bus": BUS_COLS, "gen": GEN_COLS, "branch": BRANCH_COLS}

# The column contract.  A NaN is never allowed, and every number must be
# finite but in the limit columns and in the columns past the named ones of
# bus, gen and branch (ramp rates, angle limits, results), never read.  The
# integer columns hold whole numbers within the bounds given.  A gencost row
# (MODEL, STARTUP, SHUTDOWN, NCOST, NCOST coefficients) is read whole, and
# its columns are named by position.
_LIMIT_COLS = {
    "bus": ("Vmax", "Vmin"),
    "gen": ("Qmax", "Qmin", "Pmax", "Pmin"),
    "branch": ("rateA", "rateB", "rateC"),
}
_ID, _ANY = (1, 2**31 - 1), (-np.inf, np.inf)
_INT_COLS = {
    "bus": {"bus_i": _ID, "type": (1, 4)},
    "gen": {"bus": _ID, "status": _ANY},
    "branch": {"fbus": _ID, "tbus": _ID, "status": _ANY},
    # MODEL 2 is a polynomial, of at most NCOST = 3 coefficients
    "gencost": {"column 1": (2, 2), "column 4": (0, 3)},
}

_BAL = (Phase.BAL,)  # the phases of every bus of a case, shared
_BUS_TYPES = (None, "PQ", "PV", "SL", "PQ")  # by the bus type column
_NO_NUMBER = re.compile(r"^[^\S\n]*,(?:[^\S\n]|,)*$", re.M)  # a row of commas


class MatpowerSyntaxError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DanglingReferenceError(ValueError):
    pass


class DuplicateBusError(ValueError):
    pass


@dataclass(frozen=True)
class MatpowerCase:
    """A Matpower case, checked against the case contract (see
    :func:`_validate`) when it is made, with read-only tables: to edit a
    case, ``dataclasses.replace`` it with edited copies of its tables."""

    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray
    gencost: np.ndarray | None = None
    name: str = "case"
    extra_fields: list[str] = field(default_factory=list)

    def __post_init__(self):
        _validate(self)
        for table in (self.bus, self.gen, self.branch, self.gencost):
            if table is not None:
                table.flags.writeable = False

    @property
    def n_bus(self) -> int:
        return self.bus.shape[0]

    def to_canonical_json(self) -> str:
        """Deterministic dump used for golden-file comparison."""

        def table(arr):
            return [[float(x) for x in row] for row in arr] if arr is not None else None

        doc = {
            "base_mva": float(self.base_mva),
            "bus": table(self.bus),
            "gen": table(self.gen),
            "branch": table(self.branch),
            "gencost": table(self.gencost),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _parse_matrix(name: str, body: str, start_line: int) -> np.ndarray:
    """A table body as a 2-D float array, read in one numpy call if it can
    be, else row by row (:func:`_parse_rows`), which names the bad line."""
    rows = body.replace(";", "\n")
    # loadtxt warns on no input and skips a row of commas alone
    if rows.strip() and not ("," in rows and _NO_NUMBER.search(rows)):
        try:  # float() rejects a "#", where loadtxt would start a comment
            return np.loadtxt(io.StringIO(rows.replace(",", " ")), ndmin=2,
                              comments=None)
        except ValueError:
            pass
    return _parse_rows(name, body, start_line)


def _parse_rows(name: str, body: str, start_line: int) -> np.ndarray:
    rows = []
    width = None
    for offset, chunk in enumerate(body.split("\n")):
        for piece in chunk.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            tokens = piece.replace(",", " ").split()
            try:
                row = [float(t) for t in tokens]
            except ValueError as exc:
                raise MatpowerSyntaxError(
                    start_line + offset, f"bad number in mpc.{name}: {exc}"
                ) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MatpowerSyntaxError(
                    start_line + offset,
                    f"row width {len(row)} != {width} in mpc.{name}",
                )
            rows.append(row)
    if not rows:
        raise MatpowerSyntaxError(start_line, f"empty matrix mpc.{name}")
    return np.asarray(rows, dtype=float)


def matpower_parse(text: str, name: str = "case") -> MatpowerCase:
    # every line break made "\n", and each "%" comment cut off its line
    clean = re.sub(r"%[^\n]*", "", text.replace("\r\n", "\n").replace("\r", "\n"))

    base = re.search(r"mpc\.baseMVA\s*=([^;\n]*)", clean)
    if base is None:
        raise MatpowerSyntaxError(1, "missing mpc.baseMVA assignment")
    try:
        base_mva = float(base.group(1))
    except ValueError:
        raise MatpowerSyntaxError(clean.count("\n", 0, base.start()) + 1,
                                  f"bad number in mpc.baseMVA: "
                                  f"{base.group(1).strip()!r}") from None

    tables: dict[str, np.ndarray] = {}
    extra: list[str] = []
    for match in re.finditer(r"mpc\.(\w+)\s*=\s*\[", clean):
        field_name = match.group(1)
        start = match.end()
        end = clean.find("]", start)
        if end < 0:
            line = clean.count("\n", 0, match.start()) + 1
            raise MatpowerSyntaxError(line, f"unterminated matrix mpc.{field_name}")
        if field_name not in _KNOWN_FIELDS:
            extra.append(field_name)
            continue
        start_line = clean.count("\n", 0, start) + 1
        tables[field_name] = _parse_matrix(field_name, clean[start:end], start_line)
    if extra:
        warnings.warn(f"ignoring unsupported mpc fields: {sorted(extra)}")

    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise MatpowerSyntaxError(1, f"missing mpc.{required} table")
    return MatpowerCase(
        base_mva=base_mva,
        bus=tables["bus"],
        gen=tables["gen"],
        branch=tables["branch"],
        gencost=tables.get("gencost"),
        name=name,
        extra_fields=sorted(extra),
    )


def load_case(path) -> MatpowerCase:
    path = Path(path)
    return matpower_parse(path.read_text(), name=path.stem)


def _check_columns(table: str, data: np.ndarray) -> None:
    """Raise ValueError at the first number of a table that breaks the
    column contract, naming its row and column."""
    named = _NAMES.get(table, [])
    need = len(named) or 4  # MODEL, STARTUP, SHUTDOWN, NCOST
    if data.shape[1] < need:
        raise MatpowerSyntaxError(1, f"{table} table needs at least {need} columns")
    cols = named + [f"column {c + 1}" for c in range(len(named), data.shape[1])]
    bounds = {cols.index(c): b for c, b in _INT_COLS[table].items()}
    if table == "gencost":  # the NCOST coefficients must fit in a row
        bounds[3] = (0, min(3, data.shape[1] - 4))
    bad = ~np.isfinite(data)
    if bad.any():
        free = [cols.index(c) for c in _LIMIT_COLS.get(table, ())]
        free += range(len(named), len(cols)) if named else []
        bad[:, free] = np.isnan(data[:, free])
    finite = not bad.any()
    if finite:
        ints = list(bounds)
        lo, hi = np.array(list(bounds.values()), dtype=float).T
        vals = data[:, ints]
        bad[:, ints] = (vals != np.floor(vals)) | (vals < lo) | (vals > hi)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        row = data[r]
        lo, hi = bounds.get(c, (0, np.inf))
        rule = ("finite" if not finite else "a whole number" if hi == np.inf
                else f"a whole number in {lo:.0f}..{hi:.0f}")
        where = {"bus": f" (bus {row[0]:g})", "gen": f" (bus {row[0]:g})",
                 "branch": f" (bus {row[0]:g} to bus {row[1]:g})"}
        raise ValueError(f"mpc.{table} row {r + 1}{where.get(table, '')}: "
                         f"{cols[c]} is {row[c]}, which must be {rule}")


def _islands(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label each of ``n`` nodes with the smallest node of its island over
    the edges (a, b): hook roots together along edges, then flatten."""
    label = np.arange(n)
    while (cross := label[a] != label[b]).any():
        la, lb = label[a][cross], label[b][cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while (label[label] != label).any():
            label = label[label]
    return label


def _validate(case: MatpowerCase) -> None:
    """Raise ValueError at the first break of the case contract: a bad
    ``baseMVA`` or column (:func:`_check_columns`), a bus id twice, an
    unknown bus, an island over in-service branches without exactly one
    slack bus, an in-service branch with r = x = 0, or a row that breaks a
    device rule (:func:`_check_rows`)."""
    if not 0.0 < case.base_mva < np.inf:
        raise ValueError(f"mpc.baseMVA is {case.base_mva}, which must be "
                         f"positive and finite")
    for table in ("bus", "gen", "branch", "gencost"):
        if getattr(case, table) is not None:
            _check_columns(table, getattr(case, table))

    bus, branch = case.bus, case.branch
    ids = np.sort(bus[:, 0])
    twice = ids[1:] == ids[:-1]
    if twice.any():
        raise DuplicateBusError(
            f"duplicate bus ids: {np.unique(ids[1:][twice]).astype(int).tolist()}")
    # a bus is numbered by its place in ``ids``
    refs = np.concatenate([case.gen[:, 0], branch[:, :2].ravel()])
    pos = np.searchsorted(ids, refs).clip(max=len(ids) - 1)
    if (ids[pos] != refs).any():
        j = int(np.argmax(ids[pos] != refs))
        raise DanglingReferenceError(f"{'gen' if j < len(case.gen) else 'branch'} "
                                     f"references unknown bus {int(refs[j])}")

    on = branch[:, 10] > 0
    ends = pos[len(case.gen):].reshape(-1, 2)[on]
    island = _islands(len(ids), ends[:, 0], ends[:, 1])
    slacks = np.bincount(island[np.searchsorted(ids, bus[bus[:, 1] == 3, 0])],
                         minlength=len(ids))
    wrong = (island == np.arange(len(ids))) & (slacks != 1)
    if wrong.any():
        k = int(np.argmax(wrong))
        raise DanglingReferenceError(
            f"island containing bus {int(ids[k])} has {slacks[k]} slack "
            f"buses, expected 1")

    zero = on & (branch[:, 2] == 0.0) & (branch[:, 3] == 0.0)
    if zero.any():
        r = int(np.argmax(zero))
        raise ValueError(f"mpc.branch row {r + 1} (bus {int(branch[r, 0])} to bus "
                         f"{int(branch[r, 1])}) has zero series impedance (r = x = 0)")
    _check_rows(case)


def _check_rows(case: MatpowerCase) -> None:
    """Raise ValueError at the first row that breaks a device rule, naming
    its row and column: a bus with Vmin > Vmax; an in-service gen with
    Pmin > Pmax or Qmin > Qmax; an in-service branch whose series
    admittance 1/(r + jx) is not finite, or whose ratio is below 0 (a
    ratio of 0 means 1)."""
    bus, gen, branch = case.bus, case.gen, case.branch
    gen_on, branch_on = gen[:, 7] > 0, branch[:, 10] > 0
    with np.errstate(all="ignore"):  # r = x = 0 is rejected before
        y_series = 1.0 / (branch[:, 2] + 1j * branch[:, 3])
    rules = [  # (table, the rows that break it, the column named, the rule)
        ("bus", bus[:, 12] > bus[:, 11], 12, "at most Vmax ({row[11]})"),
        ("gen", gen_on & (gen[:, 9] > gen[:, 8]), 9, "at most Pmax ({row[8]})"),
        ("gen", gen_on & (gen[:, 4] > gen[:, 3]), 4, "at most Qmax ({row[3]})"),
        ("branch", branch_on & ~np.isfinite(y_series), 2,
         "large enough, with x = {row[3]}, for a finite series admittance "
         "1/(r + jx)"),
        ("branch", branch_on & (branch[:, 8] < 0.0), 8, "at least 0"),
    ]
    for table, bad, col, rule in rules:
        if bad.any():
            k = int(np.argmax(bad))
            row = getattr(case, table)[k].tolist()
            where = (f"bus {row[0]:g} to bus {row[1]:g}" if table == "branch"
                     else f"bus {row[0]:g}")
            raise ValueError(f"mpc.{table} row {k + 1} ({where}): "
                             f"{_NAMES[table][col]} is {row[col]}, which must "
                             f"be {rule.format(row=row)}")


def case_to_network(case: MatpowerCase) -> Network:
    """Build a single-phase (BAL) network from a case, which was checked
    when it was made, one pass per device kind over the case's columns.

    The contract holds every rule the device constructors check, so each
    object is made by its class's ``_set`` alone and bound to its bus's
    shared terminal, and each collection takes its devices in one insert.
    The small arrays of the devices of one kind are views of one array.
    Each number has the bits the constructors gave it
    (``tests/golden/matpower_networks.json``): a ZIP's per-unit powers
    come from real divisions, where numpy's complex division can differ in
    the last bit, and each series admittance from CPython's 1/complex(r, x).
    """
    base_mva = case.base_mva
    net = Network(s_base_mva=base_mva)
    bus, gen, branch = case.bus, case.gen, case.branch
    new = object.__new__

    # the row of each bus id; a slack or PV bus holds the voltage setpoint
    # of its first in-service generator
    order = np.argsort(bus[:, 0], kind="stable")

    def rows_of(ids):
        return order[np.searchsorted(bus[:, 0], ids, sorter=order)]

    g_on = np.flatnonzero(gen[:, 7] > 0)
    g_bus, first = np.unique(gen[g_on, 0], return_index=True)
    vm = np.where(bus[:, 7] > 0, bus[:, 7], 1.0)
    held = rows_of(g_bus)
    regulated = np.isin(bus[held, 1], (2, 3))
    vm[held[regulated]] = gen[g_on[first[regulated]], 5]
    v_nom = (vm * np.exp(1j * np.deg2rad(bus[:, 8])))[:, None]

    ids = list(map(str, bus[:, 0].astype(np.int64).tolist()))
    types = map(_BUS_TYPES.__getitem__, bus[:, 1].astype(np.int64).tolist())
    # a default is one shared float, as in a constructor call: a float per
    # device would add a third of a megabyte to a 64-tile network
    v_base = [kv * 1e3 if kv > 0 else 1.0 for kv in bus[:, 9].tolist()]
    buses = [new(Bus)._set(i, _BAL, Terminal(i, _BAL), kv, t, vn, v, lo, hi)
             for i, kv, t, vn, v, lo, hi in zip(
                 ids, v_base, types, v_nom, v_nom.copy(), bus[:, [12]],
                 bus[:, [11]])]
    net.buses.insert_all(ids, buses)
    terminals = [b.terminal for b in buses]

    # a ZIP at each bus with a load or a shunt; (Pd, Qd) and (Gs, Bs) per
    # unit, each pair viewed as one complex number
    loaded = np.flatnonzero(bus[:, 2:6].any(axis=1))
    y_const, i_const, s_const = np.zeros((3, len(loaded), 2, 2), dtype=complex)
    s_const[:, 1, 0], y_const[:, 1, 0] = \
        (bus[loaded, 2:6] / base_mva).view(complex).T
    zip_ids = [f"load_{ids[k]}" for k in loaded.tolist()]
    net.zips.insert_all(zip_ids, [
        new(Zip)._set(i, terminals[k], y, c, s, True)
        for i, k, y, c, s in zip(zip_ids, loaded.tolist(), y_const, i_const,
                                 s_const)])

    costs = {} if case.gencost is None else {
        # (c0, c1, c2) of NCOST coefficients, the highest order first
        k: tuple(row[4:4 + int(row[3])][::-1]) + (0.0,) * (3 - int(row[3]))
        for k, row in enumerate(case.gencost[:len(gen)].tolist())}
    # each in-service gen, at the row of its bus
    rows = gen[g_on]
    at = rows_of(rows[:, 0]).tolist()
    gen_ids = [f"gen_{k}_{ids[b]}" for k, b in zip(g_on.tolist(), at)]
    net.gens.insert_all(gen_ids, [
        new(Gen)._set(i, terminals[b], s, pmin, pmax, qmin, qmax, vg,
                      costs.get(k, (0.0, 1.0, 0.0)), True)
        for i, k, b, s, (qmax, qmin, vg, pmax, pmin) in zip(
            gen_ids, g_on.tolist(), at,
            np.ascontiguousarray(rows[:, 1:3]).view(complex),  # Pg + jQg
            rows[:, [3, 4, 5, 8, 9]].tolist())])

    # each in-service branch; a ratio of 0 is a tap of 1
    on = np.flatnonzero(branch[:, 10] > 0)
    rows = branch[on]
    ends = rows_of(rows[:, :2]).tolist()
    tap = [a if a != 0.0 else 1.0 for a in rows[:, 8].tolist()]
    s_max = [rate if rate > 0 else np.inf for rate in rows[:, 5].tolist()]
    branch_ids = [f"branch_{k}_{ids[f]}_{ids[t]}"
                  for k, (f, t) in zip(on.tolist(), ends)]
    net.branches.insert_all(branch_ids, [
        new(Branch)._set(
            i, new(CommonBranch)._set(1.0 / complex(r, x), y_sh, a, shift),
            (terminals[f], terminals[t]), rate, True)
        for i, (f, t), r, x, y_sh, a, shift, rate in zip(
            branch_ids, ends, rows[:, 2].tolist(), rows[:, 3].tolist(),
            (1j * rows[:, 4]).tolist(), tap, rows[:, 9].tolist(), s_max)])
    return net


def load_network(path) -> tuple[Network, MatpowerCase]:
    case = load_case(path)
    return case_to_network(case), case
