"""Graph construction, ingestion, and shift operators.

Graphs store their arcs as numpy arrays; the shift operator wraps a sparse
matrix (normalized adjacency or normalized Laplacian) and is applied
matrix-free at O(E) cost per product.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    CsvParseError,
    DegenerateDistanceError,
    DimensionError,
    ParameterError,
    ZeroDegreeError,
    ZeroNormError,
)

NORMALIZED_ADJACENCY = "normalized-adjacency"
NORMALIZED_LAPLACIAN = "normalized-laplacian"
CUSTOM = "custom"

# Spectral radius below this fraction of the max row sum is treated as
# nilpotent and triggers the row-sum normalization fallback.
_NILPOTENT_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Weighted graph stored as arc arrays.

    Arc e runs from src[e] to dst[e] with weight w[e]; indices lie in
    [0, n). Undirected graphs store both orientations of every edge, and
    their adjacency, with repeated arcs summed, must be symmetric. The
    arrays are read-only copies.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    directed: bool

    def __init__(self, n: int, edges, directed: bool):
        """Build a graph from an iterable of (source, target, weight) rows."""
        try:
            table = np.array(list(edges), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"edges must be rows of numbers: {exc}") from exc
        if table.shape == (0,):
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ParameterError("every edge needs 3 fields: source, target, weight")
        self._set_arcs(n, table[:, 0], table[:, 1], table[:, 2], directed)

    @classmethod
    def from_arcs(cls, n: int, src, dst, w, directed: bool) -> Graph:
        """Build a graph from parallel source, target and weight arrays."""
        graph = cls.__new__(cls)
        graph._set_arcs(n, src, dst, w, directed)
        return graph

    def _set_arcs(self, n, src, dst, w, directed) -> None:
        if n < 1:
            raise ParameterError(f"node count must be positive, got {n}")
        src, dst, w = np.asarray(src), np.asarray(dst), np.array(w, dtype=float)
        if not (w.ndim == 1 and src.shape == dst.shape == w.shape):
            raise ParameterError("source, target and weight arrays must be 1-D of one length")
        ends = np.stack([src, dst])
        for bad, problem in (
            (~np.all((ends >= 0) & (ends < n), axis=0), f"out of range for n={n}"),
            (np.any(ends != np.floor(ends), axis=0), "has a fractional node index"),
            (~np.isfinite(w), "has a non-finite weight"),
        ):
            if np.any(bad):
                e = int(np.argmax(bad))
                raise ParameterError(f"edge ({ends[0, e]},{ends[1, e]},{w[e]}) {problem}")
        ends = ends.astype(np.int64)
        for name, values in (("src", ends[0]), ("dst", ends[1]), ("w", w)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "directed", directed)
        if not directed:
            a = self.adjacency()
            rows, cols = (a != a.T).nonzero()
            if rows.size:
                i, j = int(rows[0]), int(cols[0])
                raise ParameterError(
                    f"undirected graph is not symmetric: A[{i},{j}]={a[i, j]} "
                    f"but A[{j},{i}]={a[j, i]}"
                )

    @property
    def edges(self) -> tuple:
        """(source, target, weight) tuples in stored order, built on each access."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        """Number of stored directed arcs (undirected edges count twice)."""
        return self.src.size

    def adjacency(self) -> sp.csr_array:
        """Sparse adjacency with A[i, j] = summed weight of the arcs i -> j."""
        # 32-bit indices, where n allows, halve the index bytes every shift
        # product reads
        index = np.int32 if self.n <= np.iinfo(np.int32).max else np.int64
        ends = (self.src.astype(index), self.dst.astype(index))
        return sp.csr_array(sp.coo_array((self.w, ends), shape=(self.n, self.n)))


@dataclass(frozen=True)
class ShiftOperator:
    """A graph shift operator: a real matrix applied matrix-free.

    spectral_norm is the constant the raw matrix was divided by
    (1.0 when no scaling was applied); norm_fallback flags the nilpotent
    row-sum fallback.
    """

    kind: str
    matrix: sp.csr_array
    spectral_norm: float
    norm_fallback: bool = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def build_er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each unordered pair linked independently with probability p."""
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"link probability must be in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    # Row i of the upper triangle draws its n-1-i pairs in one call; the
    # calls continue one stream, so the pairs match one draw over all of them.
    heads, tails = [], []
    for i in range(n - 1):
        linked = np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1)
        heads.append(np.full(linked.size, i))
        tails.append(linked)
    i, j = np.concatenate(heads), np.concatenate(tails)
    src = np.stack([i, j], axis=1).ravel()
    dst = np.stack([j, i], axis=1).ravel()
    return Graph.from_arcs(n, src, dst, np.ones(src.size), directed=False)


def build_knn_directed(coords, k: int) -> Graph:
    """Directed k-nearest-neighbor graph with Gaussian-kernel weights.

    Each node gets directed edges to its k nearest nodes. The edge weight
    is exp(-d^2) normalized by the square root of the product of the two
    endpoints' neighbor-set exponential sums; distance ties are broken by
    lower node index.
    """
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("coords must be an (n, 2) array")
    n = pts.shape[0]
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    off = dist[~np.eye(n, dtype=bool)]
    if np.min(off) == 0.0:
        raise DegenerateDistanceError("duplicate coordinates produce zero distance")

    neighbors = []
    for i in range(n):
        order = np.lexsort((np.arange(n), dist[i]))
        neighbors.append([int(j) for j in order if j != i][:k])
    sums = np.array([np.sum(np.exp(-dist[i, neighbors[i]] ** 2)) for i in range(n)])

    edges = []
    for i in range(n):
        for j in neighbors[i]:
            w = math.exp(-dist[i, j] ** 2) / math.sqrt(sums[i] * sums[j])
            edges.append((i, j, w))
    return Graph(n=n, edges=tuple(edges), directed=True)


def symmetrize_max(graph: Graph) -> Graph:
    """Undirected version of a graph, keeping the larger weight of each direction."""
    pair = np.minimum(graph.src, graph.dst) * graph.n + np.maximum(graph.src, graph.dst)
    order = np.argsort(pair, kind="stable")
    pair, w = pair[order], graph.w[order]
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    best = np.maximum(np.maximum.reduceat(w, first), 0.0) if w.size else w
    i, j = np.divmod(pair[first], graph.n)
    src = np.stack([i, j], axis=1).ravel()
    dst = np.stack([j, i], axis=1).ravel()
    return Graph.from_arcs(graph.n, src, dst, np.repeat(best, 2), directed=False)


def _spectral_radius(a: sp.csr_array) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a.toarray()))))


def normalize(graph: Graph, kind: str) -> ShiftOperator:
    """Build the normalized shift operator of a graph.

    normalized-adjacency divides A by its spectral radius (falling back to
    the max absolute row sum for nilpotent A); normalized-laplacian builds
    D^{-1/2} (D - A) D^{-1/2} and requires an undirected graph with no
    isolated nodes.
    """
    a = graph.adjacency()
    if kind == NORMALIZED_ADJACENCY:
        radius = _spectral_radius(a)
        row_sum = float(np.max(abs(a).sum(axis=1)))
        fallback = radius <= _NILPOTENT_REL_TOL * max(row_sum, 1.0)
        norm = row_sum if fallback else radius
        if norm <= 0.0:
            raise ZeroNormError("adjacency matrix is zero; nothing to normalize")
        return ShiftOperator(
            kind=kind,
            matrix=_canonical(a, a.data / norm),
            spectral_norm=norm,
            norm_fallback=fallback,
        )
    if kind == NORMALIZED_LAPLACIAN:
        if graph.directed:
            raise ParameterError("normalized Laplacian requires an undirected graph")
        deg = a.sum(axis=1)
        if np.any(deg <= 0.0):
            bad = int(np.argmin(deg))
            raise ZeroDegreeError(f"node {bad} has zero degree")
        dinv = 1.0 / np.sqrt(deg)
        lap = sp.csr_array(sp.diags_array(deg) - a)
        rows = np.repeat(np.arange(graph.n), np.diff(lap.indptr))
        s = _canonical(lap, (dinv[rows] * lap.data) * dinv[lap.indices])
        s = s + s.T
        return ShiftOperator(kind=kind, matrix=_canonical(s, s.data / 2.0), spectral_norm=1.0)
    raise ParameterError(f"unknown shift kind {kind!r}")


def _canonical(pattern: sp.csr_array, data: np.ndarray) -> sp.csr_array:
    """CSR matrix with pattern's structure and new values, zeros dropped,
    as converting the dense matrix would give."""
    m = sp.csr_array((data, pattern.indices, pattern.indptr), shape=pattern.shape, copy=True)
    m.eliminate_zeros()
    m.sort_indices()
    return m


def custom_operator(matrix) -> ShiftOperator:
    """Wrap an arbitrary real square matrix as a shift operator."""
    m = np.asarray(matrix, dtype=float) if not sp.issparse(matrix) else matrix
    if sp.issparse(m):
        m = sp.csr_array(m)
        if m.shape[0] != m.shape[1]:
            raise ParameterError("shift operator must be square")
    else:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError("shift operator must be square")
        m = sp.csr_array(m)
    return ShiftOperator(kind=CUSTOM, matrix=m, spectral_norm=1.0)


def _check_signals(op: ShiftOperator, x) -> np.ndarray:
    """x as an array of shape (n,) or (n, m): one signal, or m in columns."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != op.n:
        raise DimensionError(f"signal length {x.shape} does not match n={op.n}")
    return x


def shift_apply(op: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S @ x without forming dense powers; O(E) per signal column."""
    return op.matrix @ _check_signals(op, x)


def shift_apply_transpose(op: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S.T @ x, used by the normal-equations CG fallback."""
    return op.matrix.T @ _check_signals(op, x)


def is_symmetric(op: ShiftOperator, tol: float = 1e-12) -> bool:
    d = op.matrix - op.matrix.T
    if d.nnz == 0:
        return True
    scale = max(float(abs(op.matrix).max()), 1.0)
    return float(abs(d).max()) <= tol * scale


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def graph_to_json(graph: Graph) -> str:
    order = np.lexsort((graph.w, graph.dst, graph.src))
    columns = (graph.src[order].tolist(), graph.dst[order].tolist(), graph.w[order].tolist())
    payload = {
        "n": graph.n,
        "directed": graph.directed,
        "edges": [list(arc) for arc in zip(*columns)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CsvParseError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CsvParseError("graph JSON must be an object")
    for key in ("n", "directed", "edges"):
        if key not in payload:
            raise CsvParseError(f"graph JSON missing key {key!r}")
    n, directed = payload["n"], payload["directed"]
    if type(n) is not int:  # a float or a bool is no node count
        raise CsvParseError(f"graph JSON node count is not an integer: {n!r}")
    if type(directed) is not bool:  # bool("false") is True
        raise CsvParseError(f"graph JSON 'directed' is not true or false: {directed!r}")
    try:
        return Graph(n=n, edges=payload["edges"], directed=directed)
    except ParameterError as exc:
        raise CsvParseError(f"invalid graph JSON: {exc}") from exc


def read_edge_csv(path, directed: bool, one_based: bool = False) -> Graph:
    """Read a `src,dst,weight` edge list.

    Undirected input may list each edge once; the reverse orientation is
    added automatically. Conflicting duplicate weights are rejected.
    """
    offset = 1 if one_based else 0
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["src", "dst", "weight"]:
            raise CsvParseError("expected header 'src,dst,weight'", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise CsvParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            try:
                i, j, w = int(row[0]) - offset, int(row[1]) - offset, float(row[2])
            except ValueError as exc:
                raise CsvParseError(str(exc), line=lineno) from exc
            if i < 0 or j < 0:
                raise CsvParseError(f"negative index after offset: ({i},{j})", line=lineno)
            if entries.get((i, j), w) != w:
                raise CsvParseError(f"conflicting duplicate edge ({i},{j})", line=lineno)
            entries[(i, j)] = w
    if not entries:
        raise CsvParseError("edge list is empty")
    n = max(max(i, j) for i, j in entries) + 1
    if not directed:
        for (i, j), w in list(entries.items()):
            rev = entries.get((j, i))
            if rev is None:
                entries[(j, i)] = w
            elif rev != w:
                raise CsvParseError(f"asymmetric weights for undirected edge ({i},{j})")
    edges = tuple((i, j, w) for (i, j), w in sorted(entries.items()))
    return Graph(n=n, edges=edges, directed=directed)


def read_coords_csv(path, one_based: bool = False) -> np.ndarray:
    """Read an `id,x,y` coordinate table; ids must cover 0..n-1 after offset."""
    offset = 1 if one_based else 0
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "x", "y"]:
            raise CsvParseError("expected header 'id,x,y'", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise CsvParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            try:
                idx = int(row[0]) - offset
                xy = (float(row[1]), float(row[2]))
            except ValueError as exc:
                raise CsvParseError(str(exc), line=lineno) from exc
            if idx in rows:
                raise CsvParseError(f"duplicate id {idx}", line=lineno)
            rows[idx] = xy
    n = len(rows)
    if n == 0:
        raise CsvParseError("coordinate table is empty")
    if sorted(rows) != list(range(n)):
        raise CsvParseError(f"ids must cover 0..{n - 1} exactly")
    return np.array([rows[i] for i in range(n)], dtype=float)
