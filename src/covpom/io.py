"""JSON codecs for the library's value types.

Conventions: an operator is {"dim": d, "entries": flat row-major complex
array}; a state is written in the spectral form {"spectral": [{"weight": w,
"vector": [...]}]} and read from it or from the operator form {"op": ...},
which is factored once on reading and its weights renormalised; a POM is
{"space_tag", "outcomes", "effects"}.  Group data uses moduli tuples, dual
points are encoded as comma-joined index strings.  Measures are
{"atoms": [[x, w]], "density": {"x0", "dx", "values"}}.  In memory the
documents hold complex ndarrays; ``dumps`` writes each as a list of [re, im]
pairs, so files are unchanged, and the decoders read either form.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .abelian import DiagonalRep, FiniteAbelianGroup, IsometryFamily, RepBlock, Subgroup
from .grids import Grid1D, WaveFunction
from .hilbert import (
    Effect,
    IntervalCell,
    Operator,
    Outcome,
    PointCell,
    Pom,
    RectCell,
    State,
    make_state,
)
from .posmom import ProbMeasure1D

__all__ = [
    "dumps",
    "operator_to_json",
    "operator_from_json",
    "state_to_json",
    "state_from_json",
    "effect_to_json",
    "effect_from_json",
    "pom_to_json",
    "pom_from_json",
    "grid_to_json",
    "grid_from_json",
    "measure_to_json",
    "measure_from_json",
    "group_to_json",
    "group_from_json",
    "subgroup_to_json",
    "subgroup_from_json",
    "rep_to_json",
    "rep_from_json",
    "isometries_to_json",
    "isometries_from_json",
    "wavefunction_to_json",
    "wavefunction_from_json",
]


def dumps(doc) -> str:
    """``json.dumps`` of ``doc`` with each complex ndarray written as [[re, im], ...].

    A covariant POM's effects repeat their entries, so json formats each
    distinct float of the document (by bit pattern: -0.0 and 0.0 differ) once.
    """
    hole, leaves, parts = "", [], []

    def hold(obj):
        if not (isinstance(obj, np.ndarray) and obj.dtype == complex):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        leaves.append(obj.ravel())
        return hole

    while len(parts) != len(leaves) + 1:  # a string in doc held the stand-in: lengthen it
        hole, leaves[:] = hole + "\x00", []
        parts = json.dumps(doc, default=hold).split(json.dumps(hole))
    bits = np.concatenate([np.zeros(0, complex), *leaves]).view(np.int64)  # re, im, re, ...
    uniq, inv = np.unique(bits, return_inverse=True)
    words = np.array(json.dumps(uniq.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    tokens = np.tile(np.array([None, ", ", None, "], ["], dtype=object), bits.size // 2)
    tokens[0::2] = words[inv]
    out, stop = [parts[0]], 0
    for leaf, tail in zip(leaves, parts[1:]):
        start, stop = stop, stop + 4 * leaf.size
        out += ["[[" + "".join(tokens[start:stop - 1].tolist()) + "]]" if leaf.size else "[]", tail]
    return "".join(out)


def _cvector_to_json(vec) -> np.ndarray:
    """The flattened entries as one complex array, which ``dumps`` writes as [re, im] pairs."""
    return np.asarray(vec, dtype=complex).ravel()


def _cvector_from_json(obj) -> np.ndarray:
    """Complex entries from [[re, im], ...] pairs, or a copy of an in-memory complex array."""
    if isinstance(obj, np.ndarray) and obj.dtype == complex:
        return obj.ravel().copy()
    pairs = np.ascontiguousarray(obj, dtype=float)
    if pairs.shape[1:] != (2,) and pairs.shape != (0,):
        raise ValueError(f"complex entries must be [re, im] pairs, not shape {pairs.shape}")
    return pairs.reshape(-1, 2).view(complex).ravel()  # bit-exact, unlike re + 1j * im


def operator_to_json(op: Operator) -> dict:
    return {"dim": op.dim, "entries": _cvector_to_json(op.mat)}


def operator_from_json(obj) -> Operator:
    dim = int(obj["dim"])
    entries = _cvector_from_json(obj["entries"])
    if entries.size != dim * dim:
        raise ValueError(f"operator entry count {entries.size} is not dim^2 = {dim * dim}")
    return Operator(entries.reshape(dim, dim))


def state_to_json(state: State) -> dict:
    return {
        "spectral": [
            {"weight": w, "vector": v} for w, v in zip(state.weights.tolist(), state.vectors)
        ]
    }


def state_from_json(obj) -> State:
    if "spectral" in obj:
        return make_state(
            [
                (float(item["weight"]), _cvector_from_json(item["vector"]))
                for item in obj["spectral"]
            ]
        )
    state = State.from_operator(operator_from_json(obj["op"]), 1e-8)
    return State(state.weights / state.weights.sum(), state.vectors)  # as make_state leaves them


def effect_to_json(effect: Effect) -> dict:
    return {"op": operator_to_json(effect.op)}


def effect_from_json(obj) -> Effect:
    return Effect(operator_from_json(obj["op"]))


def _cell_to_json(cell) -> dict:
    if isinstance(cell, PointCell):
        return {"kind": "point", "value": list(cell.value)}
    if isinstance(cell, IntervalCell):
        return {"kind": "interval", "value": [cell.lo, cell.hi]}
    if isinstance(cell, RectCell):
        return {
            "kind": "rect",
            "value": [[cell.q_lo, cell.q_hi], [cell.p_lo, cell.p_hi]],
        }
    raise TypeError(f"unknown cell type {type(cell)}")


def _cell_from_json(obj):
    kind = obj["kind"]
    value = obj["value"]
    if kind == "point":
        return PointCell(tuple(int(v) for v in value))
    if kind == "interval":
        return IntervalCell(float(value[0]), float(value[1]))
    if kind == "rect":
        (qlo, qhi), (plo, phi) = value
        return RectCell(float(qlo), float(qhi), float(plo), float(phi))
    raise ValueError(f"unknown cell kind {kind!r}")


def pom_to_json(pom: Pom) -> dict:
    return {
        "space_tag": pom.space_tag,
        "outcomes": [
            {"label": o.label, "cell": _cell_to_json(o.cell)} for o in pom.outcomes
        ],
        "effects": [effect_to_json(e) for e in pom.effects],
    }


def pom_from_json(obj) -> Pom:
    outcomes = tuple(
        Outcome(str(o["label"]), _cell_from_json(o["cell"])) for o in obj["outcomes"]
    )
    effects = tuple(effect_from_json(e) for e in obj["effects"])
    return Pom(str(obj["space_tag"]), outcomes, effects)


def grid_to_json(grid: Grid1D) -> dict:
    return {"n": grid.n, "x0": grid.x0, "dx": grid.dx}


def grid_from_json(obj) -> Grid1D:
    return Grid1D(int(obj["n"]), float(obj["x0"]), float(obj["dx"]))


def measure_to_json(measure: ProbMeasure1D) -> dict:
    out: dict = {"atoms": [[x, w] for x, w in measure.atoms]}
    if measure.density is not None:
        out["density"] = {
            "x0": measure.grid.x0,
            "dx": measure.grid.dx,
            "values": [float(v) for v in measure.density],
        }
    return out


def measure_from_json(obj) -> ProbMeasure1D:
    atoms = tuple((float(x), float(w)) for x, w in obj.get("atoms", []))
    dens = obj.get("density")
    if dens is None:
        return ProbMeasure1D(atoms=atoms)
    values = np.asarray(dens["values"], dtype=float)
    grid = Grid1D(len(values), float(dens["x0"]), float(dens["dx"]))
    return ProbMeasure1D(atoms=atoms, grid=grid, density=values)


def wavefunction_to_json(psi: WaveFunction) -> dict:
    return {"grid": grid_to_json(psi.grid), "values": _cvector_to_json(psi.values)}


def wavefunction_from_json(obj) -> WaveFunction:
    grid = grid_from_json(obj["grid"])
    return WaveFunction(grid, _cvector_from_json(obj["values"]))


# --- group-side data --------------------------------------------------------


def group_to_json(group: FiniteAbelianGroup) -> dict:
    return {"moduli": list(group.moduli)}


def group_from_json(obj) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(int(m) for m in obj["moduli"]))


def subgroup_to_json(sub: Subgroup) -> dict:
    return {
        "moduli": list(sub.parent.moduli),
        "generators": [list(g) for g in sub.elements],
    }


def subgroup_from_json(obj, parent: FiniteAbelianGroup | None = None) -> Subgroup:
    group = parent or FiniteAbelianGroup(tuple(int(m) for m in obj["moduli"]))
    gens = [tuple(int(v) for v in g) for g in obj["generators"]]
    return Subgroup.from_generators(group, gens)


def _dual_key(x: Sequence[int]) -> str:
    return ",".join(str(int(v)) for v in x)


def _dual_from_key(key: str):
    return tuple(int(v) for v in key.split(","))


def rep_to_json(rep: DiagonalRep) -> dict:
    return {
        "moduli": list(rep.group.moduli),
        "blocks": [
            {
                "weights": {_dual_key(x): w for x, w in blk.weights},
                "mult": blk.mult,
            }
            for blk in rep.blocks
        ],
    }


def rep_from_json(obj) -> DiagonalRep:
    group = FiniteAbelianGroup(tuple(int(m) for m in obj["moduli"]))
    blocks = tuple(
        RepBlock.from_mapping(
            {_dual_from_key(k): float(w) for k, w in blk["weights"].items()},
            int(blk["mult"]),
        )
        for blk in obj["blocks"]
    )
    return DiagonalRep(group, blocks)


def _cmatrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"shape": list(mat.shape), "entries": _cvector_to_json(mat)}


def _cmatrix_from_json(obj) -> np.ndarray:
    shape = tuple(int(s) for s in obj["shape"])
    return _cvector_from_json(obj["entries"]).reshape(shape)


def isometries_to_json(fam: IsometryFamily) -> dict:
    return {
        "aux_dim": fam.aux_dim,
        "blocks": [
            {"entries": {_dual_key(x): _cmatrix_to_json(m) for x, m in blk}}
            for blk in fam.blocks
        ],
    }


def isometries_from_json(obj) -> IsometryFamily:
    blocks = []
    for blk in obj["blocks"]:
        blocks.append(
            {
                _dual_from_key(k): _cmatrix_from_json(m)
                for k, m in blk["entries"].items()
            }
        )
    return IsometryFamily.from_mappings(int(obj["aux_dim"]), blocks)
