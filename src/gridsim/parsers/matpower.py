"""Matpower case-file reader (version-2 subset) and network conversion."""

from __future__ import annotations

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

# The limit columns, which may be infinite.  Every other number of a case
# must be finite, but for the columns past the named ones of bus, gen and
# branch (ramp rates, angle limits, results), which are never read.
_LIMIT_COLS = {
    "bus": ("Vmax", "Vmin"),
    "gen": ("Qmax", "Qmin", "Pmax", "Pmin"),
    "branch": ("rateA", "rateB", "rateC"),
}


class MatpowerSyntaxError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DanglingReferenceError(ValueError):
    pass


class DuplicateBusError(ValueError):
    pass


@dataclass
class MatpowerCase:
    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray
    gencost: np.ndarray | None = None
    name: str = "case"
    extra_fields: list[str] = field(default_factory=list)

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


def _strip_comments(text: str) -> list[str]:
    lines = []
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        pos = raw.find("%")
        lines.append(raw if pos < 0 else raw[:pos])
    return lines


def _parse_matrix(name: str, body: str, start_line: int) -> np.ndarray:
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
    lines = _strip_comments(text)
    clean = "\n".join(lines)

    base_match = re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;", clean)
    if base_match is None:
        raise MatpowerSyntaxError(1, "missing mpc.baseMVA assignment")
    base_mva = float(base_match.group(1))

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

    bus = tables["bus"]
    gen = tables["gen"]
    branch = tables["branch"]
    if bus.shape[1] < 13:
        raise MatpowerSyntaxError(1, "bus table needs at least 13 columns")
    if gen.shape[1] < 10:
        raise MatpowerSyntaxError(1, "gen table needs at least 10 columns")
    if branch.shape[1] < 11:
        raise MatpowerSyntaxError(1, "branch table needs at least 11 columns")
    case = MatpowerCase(
        base_mva=base_mva,
        bus=bus,
        gen=gen,
        branch=branch,
        gencost=tables.get("gencost"),
        name=name,
        extra_fields=sorted(extra),
    )
    # before any bus id, type or status is read as an integer
    _check_finite(case)

    bus_ids = bus[:, 0].astype(int)
    if len(set(bus_ids)) != len(bus_ids):
        seen, dupes = set(), set()
        for b in bus_ids:
            (dupes if b in seen else seen).add(int(b))
        raise DuplicateBusError(f"duplicate bus ids: {sorted(dupes)}")
    known = set(int(b) for b in bus_ids)
    for g in gen:
        if int(g[0]) not in known:
            raise DanglingReferenceError(f"gen references unknown bus {int(g[0])}")
    for br in branch:
        for col in (0, 1):
            if int(br[col]) not in known:
                raise DanglingReferenceError(
                    f"branch references unknown bus {int(br[col])}"
                )
    _check_island_slacks(case)
    return case


def _check_island_slacks(case: MatpowerCase) -> None:
    """Every island (over in-service branches) needs exactly one slack."""
    ids = [int(b) for b in case.bus[:, 0]]
    parent = {b: b for b in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for br in case.branch:
        if br[10] == 0:
            continue
        a, b = find(int(br[0])), find(int(br[1]))
        if a != b:
            parent[a] = b
    slack_count: dict[int, int] = {}
    for row in case.bus:
        root = find(int(row[0]))
        slack_count.setdefault(root, 0)
        if int(row[1]) == 3:
            slack_count[root] += 1
    for root, count in slack_count.items():
        if count != 1:
            raise DanglingReferenceError(
                f"island containing bus {root} has {count} slack buses, expected 1"
            )


def load_case(path) -> MatpowerCase:
    path = Path(path)
    return matpower_parse(path.read_text(), name=path.stem)


def _gencost_tuple(row: np.ndarray) -> tuple[float, float, float]:
    """Convert a polynomial gencost row (model 2, <=3 coeffs) to (c0, c1, c2)."""
    model = int(row[0])
    if model != 2:
        raise ValueError(f"only polynomial gencost (model 2) supported, got {model}")
    n = int(row[3])
    if n > 3:
        raise ValueError(f"gencost polynomials limited to degree 2, got n={n}")
    coeffs = list(row[4 : 4 + n])  # highest order first
    c2 = c1 = c0 = 0.0
    if n == 3:
        c2, c1, c0 = coeffs
    elif n == 2:
        c1, c0 = coeffs
    elif n == 1:
        (c0,) = coeffs
    return (float(c0), float(c1), float(c2))


def _check_finite(case: MatpowerCase) -> None:
    """Raise ValueError, naming the table, row and column, at the first
    NaN of a case, or the first ±Inf outside the columns that may be
    infinite (:data:`_LIMIT_COLS`); or naming ``baseMVA`` when it is not
    positive and finite."""
    if not 0.0 < case.base_mva < np.inf:
        raise ValueError(f"mpc.baseMVA is {case.base_mva}, which must be "
                         f"positive and finite")
    tables = (("bus", case.bus, BUS_COLS), ("gen", case.gen, GEN_COLS),
              ("branch", case.branch, BRANCH_COLS),
              ("gencost", case.gencost, ()))
    for table, data, cols in tables:
        if data is None or np.isfinite(data).all():
            continue
        bad = ~np.isfinite(data)
        free = [cols.index(c) for c in _LIMIT_COLS.get(table, ())]
        if cols:
            free += range(len(cols), data.shape[1])
        bad[:, free] = np.isnan(data[:, free])
        if not bad.any():
            continue
        r, c = np.argwhere(bad)[0]
        row = data[r]
        where = {"bus": f" (bus {row[0]:g})", "gen": f" (bus {row[0]:g})",
                 "branch": f" (bus {row[0]:g} to bus {row[1]:g})"}
        col = cols[c] if c < len(cols) else f"column {c + 1}"
        raise ValueError(f"mpc.{table} row {r + 1}{where.get(table, '')}: "
                         f"{col} is {row[c]}, which must be finite")


def case_to_network(case: MatpowerCase) -> Network:
    """Build a single-phase (BAL) network from a parsed case.

    A baseMVA that is not positive, a NaN anywhere in the case, an
    infinite value outside the limit columns, or a branch with r = x = 0
    raises ValueError.
    """
    _check_finite(case)
    net = Network(s_base_mva=case.base_mva)

    vg_by_bus: dict[int, float] = {}
    for row in case.gen:
        if int(row[7]) > 0 and int(row[0]) not in vg_by_bus:
            vg_by_bus[int(row[0])] = float(row[5])

    type_map = {3: "SL", 2: "PV", 1: "PQ", 4: "PQ"}
    for row in case.bus:
        bus_id = str(int(row[0]))
        btype = type_map.get(int(row[1]), "PQ")
        vm = float(row[7]) if row[7] > 0 else 1.0
        if btype in ("SL", "PV") and int(row[0]) in vg_by_bus:
            vm = vg_by_bus[int(row[0])]
        va = np.deg2rad(float(row[8]))
        base_kv = float(row[9])
        bus = Bus(
            id=bus_id,
            phases=(Phase.BAL,),
            v_base=base_kv * 1e3 if base_kv > 0 else 1.0,
            bus_type=btype,
            v_nom=[vm * np.exp(1j * va)],
            v_mag_min=float(row[12]),
            v_mag_max=float(row[11]),
        )
        net.add_bus(bus)
        pd, qd = float(row[2]), float(row[3])
        gs, bs = float(row[4]), float(row[5])
        if pd != 0.0 or qd != 0.0 or gs != 0.0 or bs != 0.0:
            zip_ = Zip(f"load_{bus_id}", n_phase=1)
            zip_.set_wye(
                0,
                s=(pd + 1j * qd) / case.base_mva,
                y=(gs + 1j * bs) / case.base_mva,
            )
            net.add_zip(zip_, bus=bus_id)

    for idx, row in enumerate(case.gen):
        if int(row[7]) <= 0:
            continue  # out of service
        bus_id = str(int(row[0]))
        cost = (0.0, 1.0, 0.0)
        if case.gencost is not None and idx < case.gencost.shape[0]:
            cost = _gencost_tuple(case.gencost[idx])
        gen = Gen(
            id=f"gen_{idx}_{bus_id}",
            n_phase=1,
            s=complex(row[1], row[2]),
            p_min=float(row[9]),
            p_max=float(row[8]),
            q_min=float(row[4]),
            q_max=float(row[3]),
            v_setpoint=float(row[5]),
            cost=cost,
        )
        net.add_gen(gen, bus=bus_id)

    for idx, row in enumerate(case.branch):
        if int(row[10]) <= 0:
            continue  # out of service
        fbus, tbus = str(int(row[0])), str(int(row[1]))
        r, x, b = float(row[2]), float(row[3]), float(row[4])
        if r == 0.0 and x == 0.0:
            raise ValueError(f"mpc.branch row {idx + 1} (bus {fbus} to bus "
                             f"{tbus}) has zero series impedance (r = x = 0)")
        ratio = float(row[8]) if row[8] != 0.0 else 1.0
        model = CommonBranch(
            y_series=1.0 / complex(r, x),
            y_shunt=1j * b,
            tap=ratio,
            phase_shift_deg=float(row[9]),
        )
        rate_a = float(row[5])
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
