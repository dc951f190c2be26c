"""Manufactured-solution power-flow cases tiled from the IEEE 57-bus case.

``tiled_case`` copies the base case ``tiles`` times, joins the copies with
seeded tie lines and keeps a slack bus only in tile 0.  It then picks a
voltage profile V* close to the solved base profile and sets every load and
every generator's P and V setpoint so that S = V*·conj(Y V*) holds at each
bus.  V* is therefore an exact power-flow solution of the emitted case,
whatever the size, which is what makes the family solvable by construction
(ad-hoc tiling, without the manufactured injections, stops converging around
seven or eight tiles).

The bus table is left flat (Vm = 1, Va = 0), so a flat start starts from
nothing the solution leaks into; only generator setpoints carry |V*|.  The
result is Matpower text, so parsing is part of what a benchmark can time.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

TILE_STRIDE = 100      # bus id of base bus b in tile t is TILE_STRIDE*t + b
MAG_JITTER = 0.001     # |V*| = |V_base| * (1 ± MAG_JITTER)
ANG_JITTER = 0.001     # arg V* = arg V_base ± ANG_JITTER rad
TIES_PER_TILE = 4


def _tie_lines(n_base: int, tiles: int, rng) -> list[tuple[int, int, int, float]]:
    """(tile_a, tile_b, base bus, reactance) per tie: every tile to tile 0.

    A tie joins the same base bus in two tiles, whose V* differ only by the
    jitter, so tie flows stay of the order of the base case's own flows.
    Tiles hang directly off the slack tile by four ties each.  With deeper
    tie trees (random recursive trees, chains) or two ties per tile, the
    package's flat-start Newton fails on a few members in a hundred,
    although V* solves them: it stalls at 50 iterations or converges to
    another, low-voltage solution.
    """
    ties = []
    for t in range(1, tiles):
        for b in rng.choice(n_base, size=TIES_PER_TILE, replace=False):
            ties.append((0, t, int(b), float(rng.uniform(0.03, 0.08))))
    return ties


def _ybus(bus_idx, branch, bus_shunt, base_mva, n):
    """Sparse Matpower pi-model admittance, the same stamping as oracle_pf."""
    f = np.array([bus_idx[int(b)] for b in branch[:, 0]])
    t = np.array([bus_idx[int(b)] for b in branch[:, 1]])
    ys = 1.0 / (branch[:, 2] + 1j * branch[:, 3])
    bc = 1j * branch[:, 4] / 2.0
    tau = np.where(branch[:, 8] != 0.0, branch[:, 8], 1.0)
    tap = tau * np.exp(1j * np.deg2rad(branch[:, 9]))
    rows = np.concatenate([f, t, f, t, np.arange(n)])
    cols = np.concatenate([f, t, t, f, np.arange(n)])
    vals = np.concatenate([
        (ys + bc) / (tau * tau), ys + bc, -ys / np.conj(tap), -ys / tap,
        bus_shunt / base_mva,
    ])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def tiled_case(base, base_v: np.ndarray, tiles: int, rng) -> tuple[str, np.ndarray]:
    """Matpower text of a ``tiles``-fold manufactured case, and its V*.

    ``base`` is a parsed single-slack case with no out-of-service rows and
    one generator per generator bus, ``base_v`` its solved complex bus
    voltages in bus-table order.  V* is returned in the emitted bus order.
    """
    nb = base.n_bus
    ids = base.bus[:, 0].astype(int)
    if ids.max() >= TILE_STRIDE:
        raise ValueError("base case bus ids must be below the tile stride")
    if np.any(base.gen[:, 7] <= 0) or np.any(base.branch[:, 10] <= 0):
        raise ValueError("base case must have every gen and branch in service")
    if len(set(base.gen[:, 0].astype(int))) != len(base.gen):
        raise ValueError("base case must have one generator per bus")

    n = nb * tiles
    bus = np.tile(base.bus, (tiles, 1))
    tile_of = np.repeat(np.arange(tiles), nb)
    bus[:, 0] = TILE_STRIDE * tile_of + bus[:, 0]
    bus[(tile_of > 0) & (bus[:, 1] == 3), 1] = 2   # one slack, in tile 0
    bus[:, 7] = 1.0
    bus[:, 8] = 0.0
    bus_idx = {int(b): i for i, b in enumerate(bus[:, 0])}

    gen = np.tile(base.gen, (tiles, 1))
    gen[:, 0] += TILE_STRIDE * np.repeat(np.arange(tiles), len(base.gen))
    gencost = None if base.gencost is None else np.tile(base.gencost, (tiles, 1))

    branch = np.tile(base.branch, (tiles, 1))
    branch[:, :2] += TILE_STRIDE * np.repeat(np.arange(tiles), len(base.branch))[:, None]
    ties = _tie_lines(nb, tiles, rng)
    if ties:
        tie_rows = np.zeros((len(ties), base.branch.shape[1]))
        for r, (ta, tb, b, x) in enumerate(ties):
            tie_rows[r, :5] = [TILE_STRIDE * ta + ids[b], TILE_STRIDE * tb + ids[b],
                               x / 10.0, x, 0.0]
            tie_rows[r, 10] = 1.0
        branch = np.vstack([branch, tie_rows])

    v_star = np.tile(base_v, tiles)
    v_star = v_star * (1.0 + rng.uniform(-MAG_JITTER, MAG_JITTER, n)) \
        * np.exp(1j * rng.uniform(-ANG_JITTER, ANG_JITTER, n))
    slack = np.flatnonzero(bus[:, 1] == 3)
    v_star[slack] = np.abs(v_star[slack])           # reference angle 0

    y = _ybus(bus_idx, branch, bus[:, 4] + 1j * bus[:, 5], base.base_mva, n)
    s_star = v_star * np.conj(y @ v_star) * base.base_mva   # net injection, MVA

    # A generator on a PV or slack bus takes the bus's injection and holds
    # |V*|; every other bus's load absorbs it.
    gen_bus = np.array([bus_idx[int(b)] for b in gen[:, 0]])
    s_fixed = np.zeros(n, dtype=complex)
    s_fixed[gen_bus] = gen[:, 1] + 1j * gen[:, 2]
    regulating = bus[gen_bus, 1] != 1
    load_bus = np.ones(n, dtype=bool)
    load_bus[gen_bus[regulating]] = False
    load = s_fixed[load_bus] - s_star[load_bus]
    bus[load_bus, 2], bus[load_bus, 3] = load.real, load.imag
    g = gen_bus[regulating]
    s_gen = s_star[g] + bus[g, 2] + 1j * bus[g, 3]
    gen[regulating, 1], gen[regulating, 2] = s_gen.real, s_gen.imag
    gen[regulating, 5] = np.abs(v_star[g])
    gen[regulating, 8] = np.maximum(gen[regulating, 8], 1.5 * s_gen.real)

    def table(name, arr):
        body = "\n".join("\t" + "\t".join(f"{x:.17g}" for x in row) + ";" for row in arr)
        return f"mpc.{name} = [\n{body}\n];\n"

    text = (
        f"function mpc = tiled{tiles}\n"
        f"% {tiles} tiles of {base.name}, manufactured solution\n"
        "mpc.version = '2';\n"
        f"mpc.baseMVA = {base.base_mva:.17g};\n"
        + table("bus", bus) + table("gen", gen) + table("branch", branch)
        + ("" if gencost is None else table("gencost", gencost))
    )
    return text, v_star
