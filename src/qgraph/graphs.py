"""Metric graphs with flux-conserving vertices and scattering leads.

A graph here is a set of vertices joined by one-dimensional edges of finite
length (in units of a base length, so a unit edge contributes one step of
phase e^{ikl} per traversal).  Semi-infinite leads may be attached to two
vertices; lead 0 is the entrance channel and lead 1 the exit channel of the
two-port scattering problem handled by the solver module.

Each vertex carries a boundary condition: either the Neumann-Kirchhoff tag
``NK`` (continuity plus zero net outgoing derivative, which yields the
degree-d matrix with off-diagonal entries 2/d and diagonal 2/d - 1) or an
explicit unitary matrix whose dimension equals the vertex's total degree,
internal edge ends plus attached leads.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

# Strict tolerance for matrices supplied or generated at construction time;
# the looser value is for quantities that went through downstream arithmetic.
UNITARITY_TOL_CONSTRUCT = 1e-12
UNITARITY_TOL_CHECK = 1e-10

# Boundary-condition tag for Neumann-Kirchhoff vertices.  Stored as a plain
# string so graphs serialize naturally; custom conditions are ndarrays.
NK = "nk"


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of M M^dagger from the identity."""
    m = np.asarray(matrix, dtype=complex)
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m @ m.conj().T - eye)))


def nk_vertex_matrix(degree: int) -> np.ndarray:
    """Read-only Neumann-Kirchhoff vertex matrix for a given total degree.

    Entry (b, a) is the amplitude from the incoming direction on port a to
    the outgoing direction on port b.  Off-diagonal entries are 2/d and
    diagonal entries 2/d - 1, so every row sums to 1 and the matrix is
    unitary for any d >= 1.  Degree 3 gives r = -1/3, t = 2/3; degree 2
    gives r = 0, t = 1 (a perfect pass-through).
    """
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ValueError(f"vertex degree must be an integer >= 1, got {degree!r}")
    d = int(degree)
    m = np.full((d, d), 2.0 / d, dtype=complex)
    np.fill_diagonal(m, 2.0 / d - 1.0)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Edge:
    """Undirected internal edge between vertices u and v, with a length."""

    u: int
    v: int
    length: float = 1.0


@dataclass(frozen=True, eq=False)
class QuantumGraph:
    """Immutable metric graph: vertices, boundary conditions, edges, leads.

    ``vertex_ids`` and ``boundary`` run in parallel; a boundary entry is the
    string ``NK`` or a complex square ndarray.  ``leads`` lists the vertices
    carrying leads in channel order (entrance first).  Instances compare and
    hash by identity; ``_memo`` holds the solver's derived data, freed with them.
    """

    vertex_ids: tuple
    boundary: tuple
    edges: tuple
    leads: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertex_ids", tuple(int(v) for v in self.vertex_ids))
        bcs = []
        for bc in self.boundary:
            if isinstance(bc, str):
                bcs.append(bc)
            else:
                arr = np.asarray(bc, dtype=complex)
                arr.setflags(write=False)
                bcs.append(arr)
        object.__setattr__(self, "boundary", tuple(bcs))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "leads", tuple(int(v) for v in self.leads))
        # Per-vertex lookups, built once; the first of duplicate ids wins.
        ends = [v for e in self.edges for v in (e.u, e.v)] + list(self.leads)
        object.__setattr__(self, "_degrees", Counter(ends))
        indices = {v: i for i, v in reversed(list(enumerate(self.vertex_ids)))}
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_memo", {})

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, vid: int) -> int:
        try:
            return self._indices[vid]
        except KeyError:
            raise KeyError(f"unknown vertex id {vid}") from None

    def degree(self, vid: int) -> int:
        """Total degree: incident edge ends (self-loops count twice) plus leads."""
        return self._degrees[vid]

    def bc_of(self, vid: int):
        return self.boundary[self.vertex_index(vid)]

    def vertex_matrix(self, vid: int) -> np.ndarray:
        """Scattering matrix acting at this vertex (NK generated on demand)."""
        bc = self.bc_of(vid)
        if isinstance(bc, str):
            if bc != NK:
                raise ValueError(f"unknown boundary tag {bc!r} at vertex {vid}")
            return nk_vertex_matrix(self.degree(vid))
        return bc


def make_cycle_graph(n: int, length: float = 1.0) -> QuantumGraph:
    """Cycle on n vertices (ids 1..n), NK everywhere, leads at vertices 1 and 2.

    The two lead vertices are adjacent; every edge gets the same length.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"cycle size must be an integer >= 3, got {n!r}")
    if not (length > 0):
        raise ValueError(f"edge length must be positive, got {length!r}")
    n = int(n)
    ids = tuple(range(1, n + 1))
    edges = tuple(Edge(i, i % n + 1, float(length)) for i in ids)
    return QuantumGraph(
        vertex_ids=ids,
        boundary=(NK,) * n,
        edges=edges,
        leads=(1, 2),
    )


def attach_lead(graph: QuantumGraph, vertex: int) -> QuantumGraph:
    """Append a lead at the given vertex; at most two leads are allowed.

    NK vertices need no bookkeeping: their matrices are regenerated from the
    new degree whenever they are used.  A custom matrix at the vertex keeps
    its shape and therefore turns into a dimension violation reported by
    validate_graph.
    """
    if len(graph.leads) >= 2:
        raise ValueError("graph already has two leads")
    if vertex not in graph.vertex_ids:
        raise ValueError(f"unknown vertex id {vertex}")
    return replace(graph, leads=graph.leads + (int(vertex),))


def strip_leads(graph: QuantumGraph) -> QuantumGraph:
    return replace(graph, leads=())


def scale_lengths(graph: QuantumGraph, factor: float) -> QuantumGraph:
    """Multiply every edge length by a positive finite factor."""
    if not (0 < factor < np.inf):
        raise ValueError(f"length scale must be positive and finite, got {factor!r}")
    edges = tuple(Edge(e.u, e.v, e.length * factor) for e in graph.edges)
    return replace(graph, edges=edges)


@dataclass(frozen=True)
class ValidationReport:
    """Collected invariant violations; empty means the graph is valid."""

    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(self.problems)


def validate_graph(graph: QuantumGraph) -> ValidationReport:
    """Check structural and spectral invariants, reporting every violation.

    Checks: unique vertex ids, edge/lead references, positive finite
    lengths, lead count 0 or 2, connectivity, and for custom boundary
    matrices squareness, dimension equal to the vertex degree, finite
    entries, and unitarity within 1e-12.
    """
    problems = []
    ids = graph.vertex_ids
    seen = set()
    for vid in ids:
        if vid in seen:
            problems.append(f"duplicate vertex id {vid}")
        seen.add(vid)
    if len(graph.boundary) != len(ids):
        problems.append(
            f"{len(graph.boundary)} boundary conditions for {len(ids)} vertices"
        )

    for i, e in enumerate(graph.edges):
        for end in (e.u, e.v):
            if end not in seen:
                problems.append(f"edge {i} references unknown vertex {end}")
        if not (e.length > 0):
            problems.append(f"edge {i} has non-positive length {e.length}")
        elif not (e.length < np.inf):
            problems.append(f"edge {i} has non-finite length {e.length}")

    for li, lv in enumerate(graph.leads):
        if lv not in seen:
            problems.append(f"lead {li} references unknown vertex {lv}")
    if len(graph.leads) not in (0, 2):
        problems.append(f"graph has {len(graph.leads)} leads; expected 0 or 2")

    # Connectivity over internal edges only (leads are semi-infinite and do
    # not join vertices to each other).
    if ids and not problems:
        adj = {vid: set() for vid in ids}
        for e in graph.edges:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        stack = [ids[0]]
        reached = {ids[0]}
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(ids):
            missing = sorted(set(ids) - reached)
            problems.append(f"graph is disconnected; unreachable vertices {missing}")

    for vid, bc in zip(ids, graph.boundary):
        if isinstance(bc, str):
            if bc != NK:
                problems.append(f"vertex {vid} has unknown boundary tag {bc!r}")
            continue
        if bc.ndim != 2 or bc.shape[0] != bc.shape[1]:
            problems.append(f"vertex {vid} boundary matrix is not square")
            continue
        d = graph.degree(vid)
        if bc.shape[0] != d:
            problems.append(
                f"vertex {vid} boundary matrix is {bc.shape[0]}x{bc.shape[0]} "
                f"but the vertex degree is {d}"
            )
            continue
        bad = np.argwhere(~np.isfinite(bc))
        if len(bad):
            i, j = bad[0]
            problems.append(
                f"vertex {vid} boundary matrix entry ({i}, {j}) is not finite ({bc[i, j]})"
            )
            continue
        defect = unitarity_defect(bc)
        if not defect <= UNITARITY_TOL_CONSTRUCT:  # a NaN fails too
            problems.append(
                f"vertex {vid} boundary matrix is not unitary "
                f"(defect {defect:.3e})"
            )

    return ValidationReport(problems=tuple(problems))


# ---------------------------------------------------------------------------
# JSON graph files.  Layout:
#   {"vertices": [{"id": 1, "bc": "nk" | {"custom": [[{"re":..,"im":..},..]]}}],
#    "edges":    [{"from": 1, "to": 2, "length": 1.0}],   # length optional
#    "leads":    [{"vertex": 1}, {"vertex": 2}]}          # entrance first
# Unknown keys are rejected at every level.
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    return float(value)


def graph_from_json(data: dict) -> QuantumGraph:
    if not isinstance(data, dict):
        raise ValueError("graph spec: expected a JSON object at top level")
    _require_keys(data, {"vertices", "edges", "leads"}, {"vertices"}, "graph spec")

    ids, bcs = [], []
    for i, vobj in enumerate(data["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(vobj, dict):
            raise ValueError(f"{where}: expected an object")
        _require_keys(vobj, {"id", "bc"}, {"id", "bc"}, where)
        ids.append(_as_int(vobj["id"], f"{where}.id"))
        bc = vobj["bc"]
        if bc == "nk":
            bcs.append(NK)
        elif isinstance(bc, dict):
            _require_keys(bc, {"custom"}, {"custom"}, f"{where}.bc")
            rows = []
            for ri, row in enumerate(bc["custom"]):
                cells = []
                for ci, cell in enumerate(row):
                    cw = f"{where}.bc.custom[{ri}][{ci}]"
                    if not isinstance(cell, dict):
                        raise ValueError(f"{cw}: expected an object with re/im")
                    _require_keys(cell, {"re", "im"}, {"re", "im"}, cw)
                    cells.append(
                        complex(_as_number(cell["re"], cw), _as_number(cell["im"], cw))
                    )
                rows.append(cells)
            bcs.append(np.array(rows, dtype=complex))
        else:
            raise ValueError(f'{where}.bc: expected "nk" or {{"custom": ...}}')

    edges = []
    for i, eobj in enumerate(data.get("edges", [])):
        where = f"edges[{i}]"
        if not isinstance(eobj, dict):
            raise ValueError(f"{where}: expected an object")
        _require_keys(eobj, {"from", "to", "length"}, {"from", "to"}, where)
        length = _as_number(eobj.get("length", 1.0), f"{where}.length")
        edges.append(
            Edge(_as_int(eobj["from"], f"{where}.from"),
                 _as_int(eobj["to"], f"{where}.to"),
                 length)
        )

    leads = []
    for i, lobj in enumerate(data.get("leads", [])):
        where = f"leads[{i}]"
        if not isinstance(lobj, dict):
            raise ValueError(f"{where}: expected an object")
        _require_keys(lobj, {"vertex"}, {"vertex"}, where)
        leads.append(_as_int(lobj["vertex"], f"{where}.vertex"))

    graph = QuantumGraph(
        vertex_ids=tuple(ids), boundary=tuple(bcs),
        edges=tuple(edges), leads=tuple(leads),
    )
    report = validate_graph(graph)
    if not report.ok:
        raise ValueError("graph spec failed validation:\n" + str(report))
    return graph


def graph_to_json(graph: QuantumGraph) -> dict:
    vertices = []
    for vid, bc in zip(graph.vertex_ids, graph.boundary):
        if isinstance(bc, str):
            bcj = "nk"
        else:
            bcj = {"custom": [[{"re": c.real, "im": c.imag} for c in row]
                              for row in bc.tolist()]}
        vertices.append({"id": vid, "bc": bcj})
    return {
        "vertices": vertices,
        "edges": [{"from": e.u, "to": e.v, "length": e.length} for e in graph.edges],
        "leads": [{"vertex": v} for v in graph.leads],
    }


def load_graph(path: str) -> QuantumGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"graph spec {path}: invalid JSON ({exc})") from exc
    return graph_from_json(data)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_graph(graph: QuantumGraph, path: str) -> None:
    """Write the JSON form atomically (temp file then rename)."""
    atomic_write_text(path, json.dumps(graph_to_json(graph), indent=2) + "\n")


# A length within this of a positive integer counts as that integer.
_INTEGRAL_TOL = 1e-9


def integral_lengths(graph: QuantumGraph):
    """Edge lengths rounded to integers, or a ValueError naming the offender.

    Walk-series analysis treats one unit of length as one step, so it only
    applies to graphs whose lengths are within _INTEGRAL_TOL of positive
    integers.
    """
    out = []
    for i, e in enumerate(graph.edges):
        q = round(e.length) if math.isfinite(e.length) else 0
        if q < 1 or abs(e.length - q) > _INTEGRAL_TOL:
            raise ValueError(
                f"edge {i} has non-integral length {e.length!r}; "
                "walk analysis needs positive integer lengths"
            )
        out.append(int(q))
    return out


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where os.sysconf cannot tell."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


def subdivide_integral(graph: QuantumGraph) -> QuantumGraph:
    """Split every edge of integer length q into q unit edges.

    The inserted vertices are NK of degree 2 (r = 0, t = 1), so the scattering
    problem is exactly unchanged; the rewrite just makes every traversal a
    single unit step, which the walk power iteration relies on.  Raises
    MemoryError up front if the result's dense bond matrix (16 k^2 bytes,
    k = 2 * total length) would not fit in physical memory.  A graph whose
    lengths are all exactly 1.0 is returned as it is.
    """
    lengths = integral_lengths(graph)
    bonds = 2.0 * sum(e.length for e in graph.edges)
    if 16.0 * bonds * bonds > _physical_memory():
        raise MemoryError(f"subdividing into {bonds:.3g} unit bonds needs a dense "
                          f"{bonds:.3g}^2 bond matrix, more than physical memory")
    if all(e.length == 1.0 for e in graph.edges):
        return graph
    next_id = max(graph.vertex_ids) + 1
    ids = list(graph.vertex_ids)
    bcs = list(graph.boundary)
    edges = []
    for e, q in zip(graph.edges, lengths):
        if q == 1:
            edges.append(Edge(e.u, e.v, 1.0))
            continue
        chain = [e.u]
        for _ in range(q - 1):
            ids.append(next_id)
            bcs.append(NK)
            chain.append(next_id)
            next_id += 1
        chain.append(e.v)
        edges.extend(Edge(a, b, 1.0) for a, b in zip(chain, chain[1:]))
    return QuantumGraph(
        vertex_ids=tuple(ids), boundary=tuple(bcs),
        edges=tuple(edges), leads=graph.leads,
    )
