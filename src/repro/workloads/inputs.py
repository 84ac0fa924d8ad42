"""Deterministic input generators shared by the evaluation workloads.

Everything is seeded through :class:`~repro.util.rng.DeterministicRng`, so a
workload's inputs are a pure function of its parameters — simulation runs
are exactly reproducible and Delta/baseline runs see identical data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import DeterministicRng


@dataclass
class CsrMatrix:
    """A CSR sparse matrix with integer values (exact arithmetic)."""

    num_rows: int
    num_cols: int
    row_ptr: np.ndarray   # int64, len num_rows + 1
    col_idx: np.ndarray   # int64, len nnz
    values: np.ndarray    # int64, len nnz

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.row_ptr[-1])

    def row_nnz(self, row: int) -> int:
        """Nonzeros in one row."""
        return int(self.row_ptr[row + 1] - self.row_ptr[row])

    def row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(col indices, values) of one row."""
        lo, hi = int(self.row_ptr[row]), int(self.row_ptr[row + 1])
        return self.col_idx[lo:hi], self.values[lo:hi]

    def to_dense(self) -> np.ndarray:
        """Dense int64 copy (reference computations on small inputs)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        for row in range(self.num_rows):
            cols, vals = self.row_slice(row)
            dense[row, cols] = vals
        return dense


def power_law_csr(num_rows: int, num_cols: int, alpha: float = 1.3,
                  min_nnz: int = 1, max_nnz: int = 64,
                  seed: object = 0) -> CsrMatrix:
    """A sparse matrix whose row lengths follow a truncated Zipf law.

    This is the skew that breaks task-count load balancing: a few heavy
    rows carry much of the work.
    """
    rng = DeterministicRng("csr", num_rows, num_cols, alpha, max_nnz, seed)
    lengths = [min(num_cols, min_nnz + s - 1)
               for s in rng.zipf_sizes(num_rows, alpha, max_nnz)]
    row_ptr = np.zeros(num_rows + 1, dtype=np.int64)
    cols: list[int] = []
    vals: list[int] = []
    for row, length in enumerate(lengths):
        chosen = sorted(rng.sample(range(num_cols), length))
        cols.extend(chosen)
        vals.extend(rng.randint(-4, 4) or 1 for _ in chosen)
        row_ptr[row + 1] = row_ptr[row] + length
    return CsrMatrix(num_rows, num_cols, row_ptr,
                     np.array(cols, dtype=np.int64),
                     np.array(vals, dtype=np.int64))


@dataclass
class Graph:
    """An undirected graph in adjacency-list form."""

    num_vertices: int
    adjacency: list[list[int]]

    def degree(self, vertex: int) -> int:
        """Degree of one vertex."""
        return len(self.adjacency[vertex])


def power_law_graph(num_vertices: int, alpha: float = 1.4,
                    min_deg: int = 2, max_deg: int = 32,
                    seed: object = 0) -> Graph:
    """A connected-ish undirected graph with power-law degrees.

    Built with a Chung-Lu style pairing over the target degree sequence,
    then a spanning chain is added so BFS reaches every vertex.
    """
    rng = DeterministicRng("graph", num_vertices, alpha, max_deg, seed)
    targets = rng.power_law_degrees(num_vertices, alpha, min_deg,
                                    min(max_deg, num_vertices - 1))
    neighbors: list[set[int]] = [set() for _ in range(num_vertices)]
    # Chain guarantees connectivity.
    for v in range(num_vertices - 1):
        neighbors[v].add(v + 1)
        neighbors[v + 1].add(v)
    stubs: list[int] = []
    for v, t in enumerate(targets):
        stubs.extend([v] * max(0, t - len(neighbors[v])))
    rng.shuffle(stubs)
    for a, b in zip(stubs[::2], stubs[1::2]):
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    return Graph(num_vertices, [sorted(n) for n in neighbors])


def random_int_array(count: int, lo: int, hi: int,
                     seed: object = 0) -> np.ndarray:
    """Deterministic int64 array with entries in [lo, hi].

    Equal to ``[rng.randint(lo, hi) for _ in range(count)]``, drawn in
    bulk. ``randint`` takes one 32-bit word per try while the width fits
    in 32 bits: the word's top ``width.bit_length()`` bits, retried while
    they reach ``width``. So the array is the first ``count`` accepted
    words of the same word stream. Wider ranges (and ``hi < lo``, which
    raises like ``randint``) take the scalar path.
    """
    rng = DeterministicRng("ints", count, lo, hi, seed)
    width = hi - lo + 1
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    if not 0 < width < 1 << 32:
        return np.array([rng.randint(lo, hi) for _ in range(count)],
                        dtype=np.int64)
    shift = 32 - width.bit_length()
    parts = []
    need = count
    while need:
        # Each try is accepted with probability at least 1/2.
        words = 2 * need + 16
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        tries = np.frombuffer(raw, dtype="<u4") >> shift
        kept = tries[tries < width][:need]
        parts.append(kept)
        need -= len(kept)
    return np.concatenate(parts).astype(np.int64) + lo


def spd_matrix(n: int, seed: object = 0) -> np.ndarray:
    """A well-conditioned symmetric positive-definite float64 matrix."""
    rng = DeterministicRng("spd", n, seed)
    a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    return a @ a.T + n * np.eye(n)


def zipf_tile_sizes(count: int, alpha: float, min_side: int, max_side: int,
                    seed: object = 0) -> list[int]:
    """Tile side lengths with Zipf-skewed areas (stencil-AMR inputs)."""
    rng = DeterministicRng("tiles", count, alpha, min_side, max_side, seed)
    span = max_side - min_side + 1
    return [min_side + s - 1 for s in rng.zipf_sizes(count, alpha, span)]
