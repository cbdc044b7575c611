"""Graphs, Metropolis weights, and spectral statistics.

Closed-form eigenvalue oracles: with Metropolis weights every edge of the
line and cycle graphs carries weight 1/3 (all degree maxima are 2), so
I - W = L/3 with L the graph Laplacian, whose spectrum is known exactly:
line:  2 - 2 cos(pi k / n),   k = 0..n-1
cycle: 2 - 2 cos(2 pi k / n), k = 0..n-1
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from newtrack.harness import (PRESET_NAMES, TopologySpec, build_network,
                              preset, topology_from_doc, topology_to_doc)
from newtrack.topology import (KINDS, Graph, MixingMatrix, ZERO_EIG_TOL,
                               _random_spanning_tree, build_topology,
                               laplacian, metropolis_weights, spectral_stats)


def scipy_connected(graph):
    a = csr_matrix(graph.adjacency())
    ncomp, _ = connected_components(a, directed=False)
    return ncomp == 1


def loop_random_edges(n, tau, seed):
    """The random topology as plain loops: a random tree, then `extra`
    non-tree pairs drawn without replacement from their lexicographic list."""
    max_edges = n * (n - 1) // 2
    target = min(int(math.floor(tau * max_edges + 0.5)), max_edges)
    rng = np.random.default_rng(seed)
    tree = _random_spanning_tree(n, rng)
    chosen = set(tree)
    rest = [(i, j) for i in range(n) for j in range(i + 1, n)
            if (i, j) not in chosen]
    extra = target - len(tree)
    if extra > 0:
        picks = rng.choice(len(rest), size=extra, replace=False)
        chosen.update(rest[k] for k in picks)
    return tuple(sorted(chosen))


def loop_metropolis(graph):
    """Metropolis weights and degrees edge by edge."""
    n = graph.n
    deg = np.zeros(n, dtype=np.int64)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((n, n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w, deg


def line_eigs(n):
    return np.sort((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / 3.0)


def cycle_eigs(n):
    return np.sort((2.0 / 3.0) * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n)))


# ---------------------------------------------------------------------------
# Graph construction and validation.
# ---------------------------------------------------------------------------

def test_complete_n3_edge_set():
    g = build_topology("complete", 3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_line_n10_degrees():
    g = build_topology("line", 10)
    assert len(g.edges) == 9
    assert_array_equal(g.degrees, [1] + [2] * 8 + [1])


def test_cycle_degrees_all_two():
    g = build_topology("cycle", 10)
    assert len(g.edges) == 10
    assert_array_equal(g.degrees, np.full(10, 2))


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        Graph(n=3, edges=((0, 0), (0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Graph(n=3, edges=((0, 1), (0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Graph(n=3, edges=((1, 0), (1, 2)))  # not canonical i < j


def test_graph_rejects_unsorted_edges():
    with pytest.raises(ValueError, match="sorted lexicographically"):
        Graph(n=3, edges=((0, 2), (0, 1)))
    with pytest.raises(ValueError, match="sorted lexicographically"):
        Graph(n=4, edges=((0, 1), (1, 3), (1, 2)))
    # The first defect in edge order is the one reported.
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
        Graph(n=3, edges=((1, 2), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match=r"edge \(5, 6\) is not canonical"):
        Graph(n=4, edges=((0, 1), (5, 6), (0, 1)))


@pytest.mark.parametrize("edges", [
    ((0, 1, 2),), ((1,),), (5,), ((0, 1), (1,)), ((0, 1), 2),
    ((0, 1, 2), (3,)),  # as many numbers as two pairs, but not pairs
])
def test_graph_rejects_edges_that_are_not_pairs(edges):
    with pytest.raises(ValueError, match=re.escape("edges must be pairs (i, j)")):
        Graph(n=4, edges=edges)


def test_edge_index_is_the_edge_array():
    graphs = [build_network(preset(name).topology).graph for name in PRESET_NAMES]
    graphs += [build_topology(kind, 7) for kind in ("line", "cycle")]
    for g in graphs:
        e = g.edge_index
        assert e.dtype == np.int64 and e.flags.c_contiguous
        assert not e.flags.writeable
        assert_array_equal(e, np.array(g.edges))
    assert Graph(n=1, edges=()).edge_index.shape == (0, 2)


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError):
        Graph(n=4, edges=((0, 1), (2, 3)))
    # A long path needs ten reachability rounds; unclipped, its path
    # counts would overflow (about 3^1024) before the last one.
    path = tuple((k, k + 1) for k in range(699))
    Graph(n=700, edges=path)
    with pytest.raises(ValueError, match="not connected"):
        Graph(n=701, edges=path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), data=st.data())
def test_connectivity_matches_scipy_on_arbitrary_edge_sets(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    edges = tuple(e for e, k in zip(pairs, keep) if k)
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    connected = connected_components(csr_matrix(a), directed=False)[0] == 1
    if connected:
        assert Graph(n=n, edges=edges).edges == edges
    else:
        with pytest.raises(ValueError, match="not connected"):
            Graph(n=n, edges=edges)


def test_connectivity_matches_scipy_oracle():
    for seed in range(8):
        g = build_topology("random", 12, tau=0.25, seed=seed)
        assert scipy_connected(g)


def test_random_edge_count_seed7():
    # round-half-up of 0.5 * 45 = 22.5 edges
    g = build_topology("random", 10, tau=0.5, seed=7)
    assert len(g.edges) == 23


def test_random_edge_count_rounding():
    # 0.45 * 10 = 4.5 rounds up to 5 for n=5
    g = build_topology("random", 5, tau=0.45, seed=0)
    assert len(g.edges) == 5
    # tau at the tree threshold: 4 * (n-1) / (n (n-1)) target is exactly n-1
    g = build_topology("random", 5, tau=0.4, seed=0)
    assert len(g.edges) == 4


def test_random_rejects_budget_below_tree():
    with pytest.raises(ValueError):
        build_topology("random", 10, tau=0.1, seed=0)
    with pytest.raises(ValueError):
        build_topology("random", 10, tau=1.5, seed=0)
    with pytest.raises(ValueError):
        build_topology("random", 10, tau=0.5)  # seed required


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 40), tau=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2 ** 16))
def test_random_edges_match_plain_loop(n, tau, seed):
    if math.floor(tau * (n * (n - 1) // 2) + 0.5) < n - 1:
        with pytest.raises(ValueError, match="cannot connect"):
            build_topology("random", n, tau=tau, seed=seed)
        return
    assert build_topology("random", n, tau=tau, seed=seed).edges == \
        loop_random_edges(n, tau, seed)


def test_random_fig5_network_is_pinned():
    g = build_topology("random", 100, tau=0.5, seed=7)
    assert len(g.edges) == 2475
    assert g.edges == loop_random_edges(100, 0.5, 7)
    assert hashlib.sha256(json.dumps(g.edges).encode()).hexdigest() == \
        "8dc68b7eaab805b4a3304a35b9de6f4951ff3540af4b0f29ef91edf7b1c47760"


def test_random_determinism_and_seed_sensitivity():
    g1 = build_topology("random", 15, tau=0.3, seed=4)
    g2 = build_topology("random", 15, tau=0.3, seed=4)
    g3 = build_topology("random", 15, tau=0.3, seed=5)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges


def test_unknown_kind_rejected():
    # The generator and the spec name an unknown kind with one message,
    # the spec's under its field, topology.kind.
    message = "kind: unknown 'star'; expected one of ['line', 'cycle', 'complete', 'random']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_topology("star", 5)
    with pytest.raises(ValueError, match=f"^topology\\.{re.escape(message)}$"):
        TopologySpec(kind="star", n=5)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, -1])
def test_fewer_than_one_node_is_graphs_rule(kind, n):
    # Every kind refuses n < 1 by Graph's one rule and message; the random
    # kind draws nothing first (a draw on no nodes would fail in numpy).
    message = f"^{re.escape(f'need at least one node, got n={n}')}$"
    with pytest.raises(ValueError, match=message):
        Graph(n=n, edges=())
    with pytest.raises(ValueError, match=message):
        build_topology(kind, n, tau=0.5, seed=1)


# ---------------------------------------------------------------------------
# Metropolis weights.
# ---------------------------------------------------------------------------

def test_metropolis_complete_n10_uniform():
    mix = metropolis_weights(build_topology("complete", 10))
    assert_allclose(mix.w, np.full((10, 10), 0.1), atol=1e-15)


def test_metropolis_cycle_all_thirds():
    mix = metropolis_weights(build_topology("cycle", 10))
    g = build_topology("cycle", 10)
    for i, j in g.edges:
        assert mix.w[i, j] == 1.0 / 3.0
    assert_allclose(np.diag(mix.w), np.full(10, 1.0 / 3.0), atol=1e-15)


def test_metropolis_matches_per_edge_loop():
    graphs = [build_topology(kind, n) for kind in ("line", "cycle", "complete")
              for n in (1, 2, 3, 10)]
    graphs += [build_topology("random", n, tau=tau, seed=s)
               for n, tau in ((10, 0.5), (17, 0.3), (50, 0.5), (100, 0.5))
               for s in (0, 7)]
    for g in graphs:
        w, deg = loop_metropolis(g)
        assert_array_equal(metropolis_weights(g).w, w)  # bit for bit
        assert_array_equal(g.degrees, deg)
        assert not g.degrees.flags.writeable


def test_metropolis_single_node():
    mix = metropolis_weights(build_topology("complete", 1))
    assert_array_equal(mix.w, [[1.0]])


def test_mixing_invariants_across_topologies():
    graphs = [build_topology("line", 10), build_topology("cycle", 10),
              build_topology("complete", 10)]
    graphs += [build_topology("random", 10, tau=0.5, seed=s) for s in range(5)]
    for g in graphs:
        mix = metropolis_weights(g)
        w = mix.w
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert np.array_equal(w, w.T)
        assert np.min(w) >= 0.0
        lam = np.linalg.eigvalsh(w)
        assert lam[0] > -1.0
        # exactly one eigenvalue of I - W at zero for a connected graph
        assert np.sum(1.0 - lam < ZERO_EIG_TOL) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), tau=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2 ** 16))
def test_metropolis_invariants_on_random_graphs(n, tau, seed):
    assume(math.floor(tau * (n * (n - 1) // 2) + 0.5) >= n - 1)
    g = build_topology("random", n, tau=tau, seed=seed)
    w = metropolis_weights(g).w
    assert np.array_equal(w, w.T)
    assert np.min(w) >= 0.0
    # Positive exactly on the edges and the diagonal.
    assert np.array_equal(w > 0.0, (g.adjacency() > 0) | np.eye(n, dtype=bool))
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    # The top eigenvalue is exactly 1; eigvalsh may round it up by an ulp.
    lam = np.linalg.eigvalsh(w)
    assert -1.0 < lam[0] and lam[-1] <= 1.0 + 1e-12
    assert np.sum(1.0 - lam < ZERO_EIG_TOL) == 1


def test_mixing_matrix_validation():
    bad = np.array([[0.5, 0.6], [0.6, 0.5]])
    with pytest.raises(ValueError):
        MixingMatrix(w=bad)
    asym = np.array([[0.5, 0.5], [0.4, 0.6]])
    with pytest.raises(ValueError):
        MixingMatrix(w=asym)
    neg = np.array([[1.2, -0.2], [-0.2, 1.2]])
    with pytest.raises(ValueError):
        MixingMatrix(w=neg)
    # Doubly stochastic, but over two components: the type derives its own
    # spectrum, so no caller-supplied eigenvalues can let it through.
    split = np.kron(np.eye(2), 0.5 * np.ones((2, 2)))
    with pytest.raises(ValueError, match="eigenvalue 1 of the mixing matrix "
                                         "must be simple"):
        MixingMatrix(w=split)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalue -1
    with pytest.raises(ValueError, match=r"must lie in \(-1, 1\]"):
        MixingMatrix(w=swap)


# ---------------------------------------------------------------------------
# Spectral statistics.
# ---------------------------------------------------------------------------

def test_line_spectrum_closed_form():
    mix = metropolis_weights(build_topology("line", 10))
    eigs = np.sort(np.linalg.eigvalsh(np.eye(10) - mix.w))
    assert_allclose(eigs, line_eigs(10), atol=1e-12)
    stats = spectral_stats(mix)
    assert abs(stats.lambda_max - 1.3007) < 5e-5
    assert abs(stats.lambda_min_nz - 0.0326) < 5e-5


def test_cycle_spectrum_closed_form():
    mix = metropolis_weights(build_topology("cycle", 10))
    eigs = np.sort(np.linalg.eigvalsh(np.eye(10) - mix.w))
    assert_allclose(eigs, cycle_eigs(10), atol=1e-12)
    stats = spectral_stats(mix)
    assert abs(stats.lambda_max - 4.0 / 3.0) < 1e-12
    assert abs(stats.lambda_min_nz - 0.1273) < 5e-5


def test_complete_spectrum_exact():
    stats = spectral_stats(metropolis_weights(build_topology("complete", 10)))
    assert abs(stats.lambda_max - 1.0) < 1e-12
    assert abs(stats.lambda_min_nz - 1.0) < 1e-12


def test_root_squares_back():
    for kind in ("line", "cycle", "complete"):
        mix = metropolis_weights(build_topology(kind, 10))
        stats = spectral_stats(mix)
        target = np.eye(10) - mix.w
        err = np.linalg.norm(stats.root @ stats.root - target)
        assert err / np.linalg.norm(target) < 1e-10
        assert np.allclose(stats.root, stats.root.T, atol=1e-14)


def test_spectral_stats_rejects_single_node():
    with pytest.raises(ValueError):
        spectral_stats(metropolis_weights(build_topology("complete", 1)))


def test_laplacian_matches_definition():
    g = build_topology("random", 8, tau=0.5, seed=2)
    lap = laplacian(g)
    assert_array_equal(lap, np.diag(g.degrees.astype(float)) - g.adjacency())
    assert_allclose(lap @ np.ones(8), np.zeros(8), atol=1e-12)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_topology_doc_round_trip():
    g = build_topology("random", 9, tau=0.6, seed=11)
    mix = metropolis_weights(g)
    doc = json.loads(json.dumps(topology_to_doc(g, mix)))
    assert set(doc) == {"n", "edges", "weights"}
    g2, mix2 = topology_from_doc(doc)
    assert g2.edges == g.edges
    assert_array_equal(mix2.w, mix.w)


@pytest.mark.parametrize("key, value", [
    ("n", None), ("edges", None), ("weights", None),
    ("n", "ten"), ("edges", 5), ("edges", [[0, 1, 2]]), ("weights", "abc"),
])
def test_topology_doc_names_a_missing_or_malformed_key(key, value):
    # A pinned file with a key absent (None here) or unreadable fails with a
    # ValueError naming the key, not a bare KeyError or TypeError.  Graph
    # refuses an edge that is no pair.
    g = build_topology("line", 4)
    doc = topology_to_doc(g, metropolis_weights(g))
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    message = "edges must be pairs" if value == [[0, 1, 2]] else f"{key}: "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        topology_from_doc(doc)


@pytest.mark.parametrize("key, value, message", [
    ("n", 4.9, "n: not an integer: 4.9"),
    ("n", True, "n: not an integer: True"),
    ("edges", [[0, 1.7], [1, 2], [2, 3]], "edges[0][1]: not an integer: 1.7"),
    ("edges", [[0, 1], [True, 2], [2, 3]], "edges[1][0]: not an integer: True"),
])
def test_topology_doc_refuses_a_fraction_or_bool_for_an_integer(key, value, message):
    # A pinned 4-node line read with int() alone would truncate "n": 4.9 to
    # 4 nodes and the edge [0, 1.7] to (0, 1).
    g = build_topology("line", 4)
    doc = {**topology_to_doc(g, metropolis_weights(g)), key: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        topology_from_doc(doc)
    # A whole number spelt as a float still reads as the int it is.
    whole = {"n": 4.0, "edges": [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]}[key]
    g2, _ = topology_from_doc({**doc, key: whole})
    assert (g2.n, g2.edges) == (4, g.edges)


@pytest.mark.parametrize("kind", KINDS)
def test_every_written_topology_doc_loads(kind):
    g = build_topology(kind, 10, tau=0.5, seed=3)
    g2, mix2 = topology_from_doc(topology_to_doc(g, metropolis_weights(g)))
    assert g2.edges == g.edges
    assert_array_equal(mix2.w, metropolis_weights(g).w)


def test_topology_doc_weights_follow_the_edges():
    # A pinned doc mixes only along its edges: the complete graph's weights
    # on a line's edges, or a zero weight on an edge, fail naming the first
    # offending pair in row order.
    g = build_topology("line", 10)
    doc = topology_to_doc(g, metropolis_weights(g))
    doc["weights"] = np.full((10, 10), 0.1).tolist()
    with pytest.raises(ValueError, match=re.escape(
            "weights: w[0, 2] = 0.1 but (0, 2) is not an edge")):
        topology_from_doc(doc)
    g = build_topology("cycle", 4)
    doc = topology_to_doc(g, metropolis_weights(g))
    doc["weights"] = [[0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5],
                      [0.0, 0.0, 0.5, 0.5], [0.0, 0.5, 0.5, 0.0]]
    with pytest.raises(ValueError, match=re.escape(
            "weights: w[0, 3] = 0.0 but (0, 3) is an edge")):
        topology_from_doc(doc)


@pytest.mark.parametrize("entry", [False, None])
def test_topology_doc_weights_refuse_bool_and_null(entry):
    # As in a record's array fields.  With 0.0 in its place this line's
    # matrix is valid, so false would load as 0.0; null would load as nan
    # and fail as an asymmetric matrix.
    g = build_topology("line", 3)
    doc = topology_to_doc(g, metropolis_weights(g))
    doc["weights"] = [[0.5, 0.5, 0.0], [0.5, entry, 0.5], [0.0, 0.5, 0.5]]
    with pytest.raises(ValueError, match=re.escape(f"weights[1][1]: not a number: {entry!r}")):
        topology_from_doc(doc)


def test_topology_doc_shape_mismatch():
    g = build_topology("line", 4)
    doc = topology_to_doc(g, metropolis_weights(g))
    doc["weights"] = doc["weights"][:3]
    with pytest.raises(ValueError):
        topology_from_doc(doc)
    # Ragged rows are named as the key, not by numpy's array message.
    doc["weights"] = topology_to_doc(g, metropolis_weights(g))["weights"]
    doc["weights"][2] = doc["weights"][2][:3]
    with pytest.raises(ValueError, match=re.escape("weights: must be 4 rows of 4 numbers")):
        topology_from_doc(doc)
