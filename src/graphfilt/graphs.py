"""Graph construction, ingestion, and shift operators.

Graphs store their arcs as numpy arrays; the shift operator (normalized
adjacency or normalized Laplacian) holds its own CSR arrays and is applied
matrix-free at O(E) cost per product. The module needs only numpy: scipy is
imported on the first use of `ShiftOperator.matrix`, which block products and
long runs of single products go through.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

# Single products run in numpy until an operator's numpy products have been
# charged this many arc visits, and through scipy's compiled kernel after
# that. A jagged product (_Jagged) costs about 0.7 ns per arc and 1.2 us per
# slot more than scipy's csr_matvec (2-core x86, bench/study_identity.py: 0.55
# against 0.37 ms at 259k arcs in 29 slots, 2.5 ms against 9 us for a
# 2000-node star, whose hub row alone takes 2000 slots), and importing
# scipy.sparse after numpy costs 0.12-0.16 s, so the import pays for itself
# after about 2e8 arc visits. Each slot is charged as _SLOT_ARC_VISITS arcs,
# about its 1.2 us at 0.7 ns an arc, so a graph with a hub switches to scipy
# once its slots have cost about one import. A long solve loses at most about
# one import to a run that imports scipy up front, while an apply of up to
# ~2500 products on a 39k-arc graph never loads scipy. Both kernels give
# bit-identical products, so the switch changes only the time.
_SCIPY_AFTER_ARC_VISITS = 200_000_000
_SLOT_ARC_VISITS = 1_500


@dataclass(frozen=True, eq=False)
class Graph:
    """Weighted graph stored as arc arrays.

    Arc e runs from src[e] to dst[e] with weight w[e]; indices lie in
    [0, n) and may come as integral floats. Undirected graphs store both
    orientations of every edge, and their adjacency, with repeated arcs
    summed, must be symmetric. The arrays are kept as read-only copies:
    int64 indices and float64 weights.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    directed: bool

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ParameterError(f"node count must be positive, got {n}")
        src, dst, w = np.asarray(self.src), np.asarray(self.dst), np.array(self.w, dtype=float)
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
        if not self.directed:
            keys, values = _coalesce(n, self.src, self.dst, w, np.add)
            mirror, mirrored = _mirror(n, keys, values)
            bad = np.flatnonzero(values != mirrored)
            if bad.size:
                # the first offending (i, j) in row-major order may be the
                # unstored mirror of a stored arc
                k = bad[np.argmin(np.minimum(keys[bad], mirror[bad]))]
                here, there = values[k], mirrored[k]
                if mirror[k] < keys[k]:
                    here, there = there, here
                i, j = divmod(int(min(keys[k], mirror[k])), n)
                raise ParameterError(
                    f"undirected graph is not symmetric: A[{i},{j}]={here} "
                    f"but A[{j},{i}]={there}"
                )


def _index_dtype(n: int, nnz: int):
    # 32-bit indices, where n and nnz allow, halve the index bytes every
    # product reads, as scipy would pick
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _coalesce(n: int, rows, cols, values, combine):
    """Distinct positions of the (row, col) entries as sorted row-major keys
    row * n + col, with the values at a repeated position reduced by the
    ufunc combine (np.add sums them)."""
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")  # linear on already sorted runs
    keys, values = keys[order], values[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[first], combine.reduceat(values, first)


def _mirror(n: int, keys, values):
    """Key (j, i) of every distinct key (i, j), and the value stored at it
    (0 where nothing is)."""
    i, j = np.divmod(keys, n)
    mirror = j * n + i
    mirrored = np.zeros_like(values)
    if keys.size:
        order = np.argsort(mirror)  # sorted needles make the search cheap
        wanted = mirror[order]
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        mirrored[order] = np.where(keys[at] == wanted, values[at], 0.0)
    return mirror, mirrored


@dataclass(frozen=True, eq=False)
class ShiftOperator:
    """A graph shift operator: a real n x n matrix in CSR arrays, applied
    matrix-free.

    Row i holds the entries data[indptr[i]:indptr[i+1]] in the columns
    indices[indptr[i]:indptr[i+1]]; rows[e] is the row of entry e. The
    arrays are read-only. spectral_norm is the constant the raw matrix was
    divided by (1.0 when no scaling was applied); norm_fallback flags the
    nilpotent row-sum fallback.
    """

    kind: str
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    spectral_norm: float
    norm_fallback: bool = False
    rows: np.ndarray = field(init=False, repr=False)
    # arc visits charged to the numpy single-product kernel so far
    _visits: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        object.__setattr__(self, "rows", rows)
        for values in (self.indptr, self.indices, self.data, self.rows):
            values.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return self.data.size

    @cached_property
    def matrix(self):
        """scipy.sparse.csr_array over the same arrays, imported and built on
        first use."""
        import scipy.sparse as sp

        return sp.csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        np.add.at(out, (self.rows, self.indices), self.data)
        return out

    @cached_property
    def _symmetry_gap(self) -> tuple:
        """(max |S - S^T|, max(max |S|, 1)), with repeated entries summed."""
        keys, values = _coalesce(self.n, self.rows, self.indices, self.data, np.add)
        _, mirrored = _mirror(self.n, keys, values)
        gap = float(np.max(np.abs(values - mirrored), initial=0.0))
        return gap, max(float(np.max(np.abs(values), initial=0.0)), 1.0)

    @cached_property
    def _row_layout(self) -> _Jagged:
        """Jagged layout of S, built on the first numpy product."""
        return _Jagged.of(self.indptr, self.indices, self.data)

    @cached_property
    def _column_layout(self) -> _Jagged:
        """Jagged layout of S^T, built on the first numpy transposed product;
        each column keeps its entries in storage order, as csc_matvec adds
        them."""
        # the entries by column, in storage order within one: distinct keys
        # sort deterministically, and a stable sort of int32 took 3x as long
        order = np.argsort(self.indices * np.int64(self.nnz) + np.arange(self.nnz))
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.indices, minlength=self.n), out=indptr[1:])
        return _Jagged.of(indptr, self.rows[order], self.data[order])

    def _numpy_layout(self, x: np.ndarray, name: str):
        """The layout (attribute name) a product with x runs on in numpy, or
        None when it runs in scipy: single real signals run in numpy until the
        operator's numpy products have been charged the scipy switch point."""
        if x.ndim != 1 or np.iscomplexobj(x) or self._visits >= _SCIPY_AFTER_ARC_VISITS:
            return None
        layout = getattr(self, name)
        object.__setattr__(self, "_visits", self._visits + layout.charge)
        return layout


@dataclass(frozen=True, eq=False)
class _Jagged:
    """Jagged-diagonal layout of CSR arrays (Saad, Iterative Methods for
    Sparse Linear Systems, 3.4).

    The rows are ordered by decreasing length, ties in row order. Slot j
    holds the j-th entry of every row that has one: the first c rows in that
    order, whose columns and values are gather[s:s + c] and values[s:s + c],
    and slots[j] is (slice(0, c), slice(s, s + c)). A product adds slot
    after slot into rows that start at +0.0, so every row adds its terms in
    storage order from +0.0, as scipy's csr_matvec does, and gets its bits.
    unsort[i] is the position of row i in the order.
    """

    gather: np.ndarray
    values: np.ndarray
    slots: tuple  # (slice of sorted rows, slice of terms) per slot
    unsort: np.ndarray
    charge: int  # arc visits a product is charged: its arcs and its slots

    @classmethod
    def of(cls, indptr, indices, data) -> _Jagged:
        n = indptr.size - 1
        lengths = np.diff(indptr)
        order = np.argsort(-lengths, kind="stable")
        counts = n - np.cumsum(np.bincount(lengths))[:-1]  # rows longer than j
        starts = np.cumsum(counts) - counts
        slot = np.repeat(np.arange(counts.size), counts)
        entry = indptr[order[np.arange(slot.size) - starts[slot]]] + slot
        unsort = np.empty(n, dtype=np.intp)
        unsort[order] = np.arange(n)
        slots = tuple((slice(0, c), slice(s, s + c))
                      for s, c in zip(starts.tolist(), counts.tolist()))
        # intp indices: take gathers about twice as fast as with int32
        return cls(gather=indices[entry].astype(np.intp), values=data[entry], slots=slots,
                   unsort=unsort, charge=slot.size + _SLOT_ARC_VISITS * counts.size)

    def product(self, x: np.ndarray) -> np.ndarray:
        terms = x.astype(float, copy=False).take(self.gather)
        terms *= self.values
        y = np.zeros(self.unsort.size)
        for head, span in self.slots:
            y[head] += terms[span]
        return y.take(self.unsort)


def _operator(kind: str, n: int, keys, values, spectral_norm: float = 1.0,
              norm_fallback: bool = False) -> ShiftOperator:
    """Shift operator from sorted row-major keys row * n + col; zeros dropped."""
    keep = values != 0.0
    rows, cols = np.divmod(keys[keep], n)
    index = _index_dtype(n, rows.size)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return ShiftOperator(kind=kind, indptr=indptr, indices=cols.astype(index),
                         data=values[keep], spectral_norm=spectral_norm,
                         norm_fallback=norm_fallback)


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
    return Graph(n, src, dst, np.ones(src.size), directed=False)


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

    # a stable sort puts the lower index first among equal distances, and
    # each node itself, at distance 0, first of all
    nearest = np.argsort(dist, axis=1, kind="stable")[:, 1:k + 1]
    d = np.take_along_axis(dist, nearest, axis=1)
    sums = np.sum(np.exp(-d ** 2), axis=1)
    src, dst = np.repeat(np.arange(n), k), nearest.ravel()
    # each arc's exp(-d^2) in scalar pow and math.exp, which round some
    # arguments differently from numpy's array square and exp
    kernel = np.array([math.exp(-x ** 2) for x in d.ravel().tolist()])
    return Graph(n, src, dst, kernel / np.sqrt(sums[src] * sums[dst]), directed=True)


def symmetrize_max(graph: Graph) -> Graph:
    """Undirected version of a graph, keeping the larger weight of each direction."""
    n = graph.n
    pairs, best = _coalesce(n, np.minimum(graph.src, graph.dst),
                            np.maximum(graph.src, graph.dst), graph.w, np.maximum)
    i, j = np.divmod(pairs, n)
    src = np.stack([i, j], axis=1).ravel()
    dst = np.stack([j, i], axis=1).ravel()
    w = np.repeat(np.maximum(best, 0.0), 2)
    once = np.stack([np.ones(len(i), dtype=bool), i != j], axis=1).ravel()  # a loop's one arc
    return Graph(n, src[once], dst[once], w[once], directed=False)


def _row_sums(n: int, rows, values) -> np.ndarray:
    """Row sums of row-major entries, each row reduced by np.add.reduceat as
    scipy's CSR sum does, so weighted degrees round as they always have."""
    sums = np.zeros(n)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    sums[rows[starts]] = np.add.reduceat(values, starts)
    return sums


def _spectral_radius(n: int, rows, cols, values) -> float:
    a = np.zeros((n, n))
    a[rows, cols] = values
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def normalize(graph: Graph, kind: str) -> ShiftOperator:
    """Build the normalized shift operator of a graph.

    normalized-adjacency divides A by its spectral radius (falling back to
    the max absolute row sum for nilpotent A); normalized-laplacian builds
    D^{-1/2} (D - A) D^{-1/2} and requires an undirected graph with no
    isolated nodes.
    """
    n = graph.n
    keys, a = _coalesce(n, graph.src, graph.dst, graph.w, np.add)
    rows, cols = np.divmod(keys, n)
    if kind == NORMALIZED_ADJACENCY:
        radius = _spectral_radius(n, rows, cols, a)
        row_sum = float(np.max(_row_sums(n, rows, np.abs(a))))
        fallback = radius <= _NILPOTENT_REL_TOL * max(row_sum, 1.0)
        norm = row_sum if fallback else radius
        if norm <= 0.0:
            raise ZeroNormError("adjacency matrix is zero; nothing to normalize")
        return _operator(kind, n, keys, a / norm, spectral_norm=norm, norm_fallback=fallback)
    if kind == NORMALIZED_LAPLACIAN:
        if graph.directed:
            raise ParameterError("normalized Laplacian requires an undirected graph")
        deg = _row_sums(n, rows, a)
        if np.any(deg <= 0.0):
            bad = int(np.argmin(deg))
            raise ZeroDegreeError(f"node {bad} has zero degree")
        dinv = 1.0 / np.sqrt(deg)
        # D - A: each degree joins its diagonal entry, less any self-loop
        diagonal = np.arange(n)
        keys, lap = _coalesce(n, np.concatenate([rows, diagonal]),
                              np.concatenate([cols, diagonal]), np.concatenate([-a, deg]),
                              np.add)
        rows, cols = np.divmod(keys, n)
        # (S + S^T) / 2, exactly symmetric however the products rounded; the
        # mirror entry needs no lookup, as D - A is exactly symmetric
        s = (dinv[rows] * lap) * dinv[cols] + (dinv[cols] * lap) * dinv[rows]
        op = _operator(kind, n, keys, s / 2.0)
        # so it carries its zero symmetry gap, and is_symmetric need not
        # coalesce and mirror the entries again
        vars(op)["_symmetry_gap"] = (0.0, max(float(np.max(np.abs(op.data), initial=0.0)), 1.0))
        return op
    raise ParameterError(f"unknown shift kind {kind!r}")


def custom_operator(matrix) -> ShiftOperator:
    """Wrap an arbitrary real square matrix, dense or scipy.sparse, as a shift
    operator."""
    if hasattr(matrix, "tocsr"):  # scipy.sparse, read without importing scipy here
        m = matrix.tocsr()
        if m.shape[0] != m.shape[1]:
            raise ParameterError("shift operator must be square")
        index = _index_dtype(m.shape[0], m.nnz)
        return ShiftOperator(kind=CUSTOM, indptr=m.indptr.astype(index),
                             indices=m.indices.astype(index),
                             data=np.array(m.data, dtype=float), spectral_norm=1.0)
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError("shift operator must be square")
    rows, cols = np.nonzero(m)
    return _operator(CUSTOM, m.shape[0], rows * m.shape[0] + cols, m[rows, cols])


def _check_signals(op: ShiftOperator, x) -> np.ndarray:
    """x as an array of shape (n,) or (n, m): one signal, or m in columns."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != op.n:
        raise DimensionError(f"signal length {x.shape} does not match n={op.n}")
    return x


def shift_apply(op: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S @ x without forming dense powers; O(E) per signal column.

    A single real signal's product runs on the jagged layout of S, which
    gives the bits of scipy's csr_matvec, until the scipy switch point.
    """
    x = _check_signals(op, x)
    layout = op._numpy_layout(x, "_row_layout")
    return op.matrix @ x if layout is None else layout.product(x)


def shift_apply_transpose(op: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S.T @ x, used by the normal-equations CG fallback; a single real
    signal's product runs on the jagged layout of S^T, which gives the bits of
    scipy's csc_matvec."""
    x = _check_signals(op, x)
    layout = op._numpy_layout(x, "_column_layout")
    return op.matrix.T @ x if layout is None else layout.product(x)


def is_symmetric(op: ShiftOperator, tol: float = 1e-12) -> bool:
    """max |S - S^T| within tol times max(max |S|, 1); an entry with no
    mirror counts against a zero."""
    gap, scale = op._symmetry_gap
    return gap == 0.0 or gap <= tol * scale


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
    edges = payload["edges"]
    try:
        # the fields of rows that are lists of 3, in one flat array; a field
        # that is a list itself makes it ragged (np.array raises) or 2-D
        if not (type(edges) is list and set(map(type, edges)) <= {list}
                and set(map(len, edges)) <= {3}):
            raise ValueError
        table = np.array(list(itertools.chain.from_iterable(edges)))
        if table.ndim != 1:
            raise ValueError
    except ValueError as exc:
        raise CsvParseError("invalid graph JSON: every edge needs 3 fields: "
                            "source, target, weight") from exc
    table = table.reshape(-1, 3)
    if table.dtype.kind not in "iuf":  # strings, nulls and all-boolean tables
        raise CsvParseError("invalid graph JSON: edge fields must be JSON numbers")
    try:
        return Graph(n, table[:, 0], table[:, 1], table[:, 2], directed)
    except ParameterError as exc:
        raise CsvParseError(f"invalid graph JSON: {exc}") from exc


def _csv_records(path, header) -> list:
    """The records after the header of a CSV, record i on line i + 2; a
    wrong header raises CsvParseError at line 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != list(header):
            raise CsvParseError(f"expected header '{','.join(header)}'", line=1)
        return list(reader)


def _parsed_rows(records, parsers):
    """(line, values) for every non-blank record of _csv_records.

    Field i of a row goes through parsers[i]. A row of the wrong length, a
    field that does not parse and a NaN or infinite number raise
    CsvParseError with the line number.
    """
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != len(parsers):
            raise CsvParseError(
                f"expected {len(parsers)} fields, got {len(row)}", line=lineno
            )
        try:
            values = tuple(parse(text) for parse, text in zip(parsers, row))
        except ValueError as exc:
            raise CsvParseError(str(exc), line=lineno) from exc
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise CsvParseError(f"non-finite value in {','.join(row)}", line=lineno)
        yield lineno, values


def _csv_rows(path, header, parsers):
    """(line, values) for every non-blank row of a CSV with the given header
    (_csv_records, _parsed_rows)."""
    return _parsed_rows(_csv_records(path, header), parsers)


def read_edge_csv(path, directed: bool, one_based: bool = False) -> Graph:
    """Read a `src,dst,weight` edge list.

    Undirected input may list each edge once; the reverse orientation is
    added automatically. Conflicting duplicates and asymmetric weights are rejected.
    """
    offset = 1 if one_based else 0
    entries = {}
    for lineno, (i, j, w) in _csv_rows(path, ("src", "dst", "weight"), (int, int, float)):
        i, j = i - offset, j - offset
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
            entries.setdefault((j, i), w)
    pairs = sorted(entries)
    src, dst = np.array(pairs).T
    try:
        return Graph(n, src, dst, [entries[pair] for pair in pairs], directed)
    except ParameterError as exc:
        raise CsvParseError(f"invalid edge list: {exc}") from exc


def read_id_table(path, header, one_based: bool = False) -> np.ndarray:
    """Read an `id,<number>...` table, such as `node_id,value` signals and
    `id,x,y` coordinates, as an (n, len(header) - 1) array in id order. The
    ids, less one when one_based, must cover 0..n-1 once each."""
    offset = 1 if one_based else 0
    records = _csv_records(path, header)
    rows = [row for row in records if row]
    # whole columns at once; a table that fails any check is read again row
    # by row below, which raises at its first bad line
    if set(map(len, rows)) == {len(header)}:
        ids, *columns = zip(*rows)
        try:
            ids = np.array(list(map(int, ids))) - offset
            values = np.array([list(map(float, column)) for column in columns]).T
        except ValueError:
            pass
        else:
            order = np.argsort(ids)
            if np.array_equal(ids[order], np.arange(ids.size)) and np.isfinite(values).all():
                return values[order]
    table = {}
    for lineno, (idx, *values) in _parsed_rows(records, (int,) + (float,) * (len(header) - 1)):
        idx -= offset
        if idx in table:
            raise CsvParseError(f"duplicate {header[0]} {idx}", line=lineno)
        table[idx] = values
    n = len(table)
    if n == 0:
        raise CsvParseError(f"{','.join(header)} table is empty")
    raise CsvParseError(f"ids must cover 0..{n - 1} exactly")


def read_coords_csv(path, one_based: bool = False) -> np.ndarray:
    """Read an `id,x,y` coordinate table as an (n, 2) array (read_id_table)."""
    return read_id_table(path, ("id", "x", "y"), one_based)
