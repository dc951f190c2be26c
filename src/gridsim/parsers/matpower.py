"""Matpower case-file reader (version-2 subset) and network conversion."""

from __future__ import annotations

import io
import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..network import Branch, Bus, CommonBranch, Gen, Network, Phase, Zip

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
    slack bus, or an in-service branch with r = x = 0."""
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


def case_to_network(case: MatpowerCase) -> Network:
    """Build a single-phase (BAL) network from a case, which was checked
    when it was made."""
    base_mva = case.base_mva
    net = Network(s_base_mva=base_mva)

    gens = case.gen.tolist()
    vg_by_bus: dict[int, float] = {}
    for row in gens:
        if int(row[7]) > 0 and int(row[0]) not in vg_by_bus:
            vg_by_bus[int(row[0])] = row[5]

    type_map = {3: "SL", 2: "PV", 1: "PQ", 4: "PQ"}
    # a slack or PV bus holds the setpoint of its first in-service generator
    vm = np.array([
        vg_by_bus[int(i)] if int(t) in (2, 3) and int(i) in vg_by_bus
        else m if m > 0 else 1.0
        for i, t, m in case.bus[:, [0, 1, 7]].tolist()
    ])
    v_nom = (vm * np.exp(1j * np.deg2rad(case.bus[:, 8]))).tolist()
    # each row as Python floats, read one at a time: a list of the whole
    # table would raise the peak memory of a large case
    for row, v in zip(map(np.ndarray.tolist, case.bus), v_nom):
        bus_id = str(int(row[0]))
        base_kv = row[9]
        net.add_bus(Bus(
            id=bus_id,
            phases=_BAL,
            v_base=base_kv * 1e3 if base_kv > 0 else 1.0,
            bus_type=type_map[int(row[1])],
            v_nom=[v],
            v_mag_min=row[12],
            v_mag_max=row[11],
        ))
        pd, qd, gs, bs = row[2:6]
        if pd != 0.0 or qd != 0.0 or gs != 0.0 or bs != 0.0:
            zip_ = Zip(f"load_{bus_id}", n_phase=1)
            zip_.set_wye(
                0,
                s=(pd + 1j * qd) / base_mva,
                y=(gs + 1j * bs) / base_mva,
            )
            net.add_zip(zip_, bus=bus_id)

    costs = [] if case.gencost is None else case.gencost.tolist()
    for idx, row in enumerate(gens):
        if int(row[7]) <= 0:
            continue  # out of service
        bus_id = str(int(row[0]))
        cost = (0.0, 1.0, 0.0)
        if idx < len(costs):
            # (c0, c1, c2) of NCOST coefficients, the highest order first
            n, coeffs = int(costs[idx][3]), costs[idx][4:]
            cost = tuple(coeffs[:n][::-1]) + (0.0,) * (3 - n)
        gen = Gen(
            id=f"gen_{idx}_{bus_id}",
            n_phase=1,
            s=complex(row[1], row[2]),
            p_min=row[9],
            p_max=row[8],
            q_min=row[4],
            q_max=row[3],
            v_setpoint=row[5],
            cost=cost,
        )
        net.add_gen(gen, bus=bus_id)

    for idx, row in enumerate(map(np.ndarray.tolist, case.branch)):
        if int(row[10]) <= 0:
            continue  # out of service
        fbus, tbus = str(int(row[0])), str(int(row[1]))
        model = CommonBranch(
            y_series=1.0 / complex(row[2], row[3]),
            y_shunt=1j * row[4],
            tap=row[8] if row[8] != 0.0 else 1.0,
            phase_shift_deg=row[9],
        )
        rate_a = row[5]
        branch = Branch(
            id=f"branch_{idx}_{fbus}_{tbus}",
            model=model,
            s_max_mva=rate_a if rate_a > 0 else np.inf,
        )
        net.add_branch(branch, bus0=fbus, bus1=tbus)

    return net


def load_network(path) -> tuple[Network, MatpowerCase]:
    case = load_case(path)
    return case_to_network(case), case
