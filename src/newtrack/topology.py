"""Communication graphs, Metropolis mixing matrices, and spectral statistics.

Synthetic topologies (line, cycle, complete, random with a target edge
density) are built deterministically from a seed.  Mixing matrices follow
the Metropolis rule, which makes them symmetric, doubly stochastic, and
compatible with a connected graph: the eigenvalue 1 is simple and every
eigenvalue lies in (-1, 1].
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Eigenvalues of I - W below this threshold are treated as exact zeros.
ZERO_EIG_TOL = 1e-9

# The topology kinds build_topology generates.
KINDS = ("line", "cycle", "complete", "random")


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..n-1.

    Edges are canonical (i < j), sorted lexicographically, without
    duplicates or self-loops.  Connectivity is enforced at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        i, j = self.edge_index.T
        key = i * self.n + j
        # Canonical, sorted and duplicate-free at once: 0 <= i < j < n and
        # the keys i n + j strictly increase.
        if not (((0 <= i) & (i < j) & (j < self.n)).all()
                and (key[1:] > key[:-1]).all()):
            raise ValueError(_first_defect(self.n, self.edges))
        if not _connected(self.n, i, j):
            raise ValueError("graph is not connected")

    @functools.cached_property
    def edge_index(self) -> np.ndarray:
        """Edges as a read-only (num_edges, 2) integer array."""
        try:
            pairs = set(map(len, self.edges)) <= {2}
        except TypeError:  # an edge without a length
            pairs = False
        if not pairs:
            raise ValueError("edges must be pairs (i, j)")
        e = np.fromiter(itertools.chain.from_iterable(self.edges), np.int64,
                        2 * len(self.edges)).reshape(-1, 2)
        e.flags.writeable = False
        return e

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Node degrees as a read-only integer vector of length n."""
        d = np.bincount(self.edge_index.ravel(), minlength=self.n)
        d.flags.writeable = False
        return d

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix."""
        a = np.zeros((self.n, self.n))
        i, j = self.edge_index.T
        a[i, j] = a[j, i] = 1.0
        return a


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weight matrix.

    Construction checks symmetry, row sums and nonnegativity, then, from
    the eigendecomposition of I - W, that 1 is a simple eigenvalue of W
    and that every other eigenvalue lies strictly inside (-1, 1).
    """

    w: np.ndarray

    def __post_init__(self):
        w = self.w
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("mixing matrix must be square")
        if not np.array_equal(w, w.T):
            raise ValueError("mixing matrix must be symmetric")
        if np.any(w < 0):
            raise ValueError("mixing matrix entries must be nonnegative")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("mixing matrix rows must sum to 1")
        lam = self.eigh[0]  # of I - W: W's eigenvalue 1 is I - W's 0
        if lam[0] < -ZERO_EIG_TOL or lam[-1] >= 2.0:
            raise ValueError("mixing eigenvalues must lie in (-1, 1]")
        if np.sum(lam < ZERO_EIG_TOL) != 1:
            raise ValueError("eigenvalue 1 of the mixing matrix must be simple")

    @functools.cached_property
    def disagreement(self) -> np.ndarray:
        """I - W, read-only: the exchange operator of the q-form."""
        d = np.eye(self.n) - self.w
        d.flags.writeable = False
        return d

    @functools.cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of I - W, read-only."""
        lam, vec = np.linalg.eigh(self.disagreement)
        lam.flags.writeable = vec.flags.writeable = False
        return lam, vec

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class SpectralStats:
    """Spectral summary of I - W used by step-size rules and certificates.

    `lambda_max` is the largest eigenvalue of I - W, `lambda_min_nz` the
    smallest eigenvalue above ZERO_EIG_TOL, and `root` the symmetric PSD
    square root of I - W (negative rounding noise clamped to zero).
    """

    lambda_max: float
    lambda_min_nz: float
    root: np.ndarray


def _first_defect(n: int, edges) -> str:
    """Why an edge list is invalid, naming the first offending edge in order."""
    seen = set()
    for i, j in edges:
        if not (0 <= i < j < n):
            return f"edge ({i}, {j}) is not canonical for n={n}"
        if (i, j) in seen:
            return f"duplicate edge ({i}, {j})"
        seen.add((i, j))
    return "edges must be sorted lexicographically"


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    # Reachability from node 0 by repeated squaring of the 0/1 matrix of
    # pairs within h hops (h = 1, 2, 4, ...), so a path of length d costs
    # about log2(d) products.  Clipping to 1 keeps every product exact.
    hops = np.eye(n)
    hops[i, j] = hops[j, i] = 1.0
    size = 1
    while True:
        reach = np.count_nonzero(hops[0])
        if reach == n:
            return True
        if reach == size:
            return False  # nothing new within twice the hops: a component
        size = reach
        hops = np.minimum(hops @ hops, 1.0)


def _random_spanning_tree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniformly random labeled tree on n nodes via a random Pruefer sequence."""
    if n == 1:
        return []
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, int(v)), max(leaf, int(v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def known_kind(kind: str) -> str:
    """kind if build_topology generates it; the error names the argument."""
    if kind not in KINDS:
        raise ValueError(f"kind: unknown {kind!r}; expected one of {list(KINDS)}")
    return kind


def random_budget(n: int, tau: float | None, seed: int | None) -> int:
    """Edges of a random topology, round(tau n(n-1)/2) half up, after its
    rules in order: tau in (0, 1], at least the n - 1 that connect, a seed."""
    if tau is None or not 0.0 < tau <= 1.0:
        raise ValueError(f"tau: a random topology needs tau in (0, 1], got {tau!r}")
    if (budget := int(math.floor(tau * (n * (n - 1) // 2) + 0.5))) < n - 1:
        raise ValueError(f"tau: {tau!r} gives an edge budget of {budget}, which "
                         f"cannot connect {n} nodes (need >= {n - 1})")
    if seed is None:
        raise ValueError("seed: a random topology needs a seed")
    return budget


def build_topology(kind: str, n: int, tau: float | None = None,
                   seed: int | None = None) -> Graph:
    """Build a named topology on n nodes.

    Parameters
    ----------
    kind : one of KINDS, checked by known_kind
        Topology family.  "random" draws a uniformly random spanning tree
        and then adds distinct random non-tree edges up to random_budget.
    n : int
        Number of nodes, n >= 1, checked by Graph.
    tau : float, optional
        Edge density; required for kind="random", checked by random_budget.
    seed : int, optional
        Seed for the random topology; required for kind="random".
        The same (kind, n, tau, seed) always yields the same edge set.
    """
    if known_kind(kind) == "line":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        if n >= 3:
            edges = sorted(edges + [(0, n - 1)])
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif n < 1:  # no random draw on no nodes: Graph refuses n < 1
        edges = ()
    else:  # "random"
        target = random_budget(n, tau, seed)
        rng = np.random.default_rng(seed)
        tree = _random_spanning_tree(n, rng)
        tree_i, tree_j = np.array(tree, dtype=np.int64).reshape(-1, 2).T
        chosen = np.zeros((n, n), dtype=bool)
        chosen[tree_i, tree_j] = True
        # Non-tree pairs i < j in lexicographic order.
        rest_i, rest_j = np.nonzero(np.triu(~chosen, 1))
        extra = target - len(tree)
        if extra > 0:
            picks = rng.choice(len(rest_i), size=extra, replace=False)
            chosen[rest_i[picks], rest_j[picks]] = True
        rows, cols = np.nonzero(chosen)  # row-major: lexicographic order
        edges = zip(rows.tolist(), cols.tolist())
    return Graph(n=n, edges=tuple(edges))


def metropolis_weights(graph: Graph) -> MixingMatrix:
    """Metropolis mixing matrix: w_ij = 1 / (1 + max(d_i, d_j)) on edges.

    Diagonal entries absorb the remainder so each row sums to one exactly.
    """
    n = graph.n
    d = graph.degrees
    i, j = graph.edge_index.T
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(d[i], d[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(w=w)


def laplacian(graph: Graph) -> np.ndarray:
    """Standard graph Laplacian: diag(degrees) minus adjacency."""
    return np.diag(graph.degrees.astype(float)) - graph.adjacency()


def spectral_stats(mix: MixingMatrix) -> SpectralStats:
    """Extreme eigenvalues and PSD square root of I - W; raises for n = 1."""
    lam, vec = mix.eigh
    if mix.n < 2:
        raise ValueError("I - W has no nonzero eigenvalue (need n >= 2)")
    # Only lam[0] is below tolerance (MixingMatrix checks it): an exact zero
    # of I - W.  Zeroing it keeps the consensus direction in the kernel of
    # the root instead of an inverted sqrt(rounding noise) value ~1e-8.
    lam_root = np.where(lam < ZERO_EIG_TOL, 0.0, lam)
    # One dot per entry, not a GEMM, whose rounding varies with BLAS threads.
    root = np.vecdot((vec * np.sqrt(lam_root))[:, None], vec)
    root = 0.5 * (root + root.T)
    return SpectralStats(lambda_max=float(lam[-1]),
                         lambda_min_nz=float(lam[1]),
                         root=root)

