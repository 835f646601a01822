import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maginet
from maginet.errors import ContractError, InputError
from maginet.graph import (
    ChebyshevBasis,
    TrafficGraph,
    build_basis,
    chebyshev_basis,
    load_adjacency,
    save_adjacency,
    scaled_laplacian,
)


def path_graph():
    return TrafficGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def triangle_graph():
    adj = np.ones((3, 3)) - np.eye(3)
    return TrafficGraph(adj)


# ---------------------------------------------------------------- graph type


def test_degree_matches_adjacency_row_sums():
    g = triangle_graph()
    assert np.array_equal(g.degree, g.adjacency.sum(axis=1))


def test_self_loops_rejected():
    with pytest.raises(InputError):
        TrafficGraph(np.eye(3))


def test_negative_weight_rejected():
    with pytest.raises(InputError):
        TrafficGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_non_symmetric_adjacency_rejected():
    with pytest.raises(InputError, match="not symmetric"):
        TrafficGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("edges", [[(0, 1), (0, 2)], [(0, 1)]], ids=["degree", "spectrum"])
def test_degree_overflow_rejected(edges):
    # every weight is finite, but node 0's degree (2e308) or the Laplacian's
    # largest eigenvalue (2e308, twice the degree on one edge) is not
    adj = np.zeros((3, 3))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1e308
    with pytest.raises(InputError, match="overflow"):
        TrafficGraph(adj)


def test_laplacian_row_sums_exactly_zero():
    # Exact zeros whenever row sums are representable; dyadic weights keep
    # every partial sum exact, as do the 0/1 graphs used throughout.
    rng = np.random.default_rng(3)
    adj = rng.integers(0, 8, (6, 6)) * 0.25
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    lap = TrafficGraph(adj).laplacian()
    assert np.array_equal(lap.sum(axis=1), np.zeros(6))
    lap_binary = triangle_graph().laplacian()
    assert np.array_equal(lap_binary.sum(axis=1), np.zeros(3))


# ---------------------------------------------------------------- scaled laplacian


def test_edgeless_graph_falls_back_to_minus_identity():
    l_tilde, lam = scaled_laplacian(TrafficGraph(np.zeros((2, 2))))
    assert lam == 2.0
    assert np.array_equal(l_tilde, -np.eye(2))


def test_two_node_path_oracle():
    # L = [[1,-1],[-1,1]] has eigenvalues {0, 2}, so L~ = L - I
    l_tilde, lam = scaled_laplacian(path_graph())
    assert abs(lam - 2.0) < 1e-8
    assert np.allclose(l_tilde, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-8)


def test_triangle_oracle():
    # K3 Laplacian eigenvalues are {0, 3, 3}: L~ = (2/3)L - I
    l_tilde, lam = scaled_laplacian(triangle_graph())
    assert abs(lam - 3.0) < 1e-8
    expected = np.full((3, 3), -2.0 / 3.0)
    np.fill_diagonal(expected, 1.0 / 3.0)
    assert np.allclose(l_tilde, expected, atol=1e-8)


def test_scaled_laplacian_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    adj = rng.uniform(0, 1, (8, 8)) * (rng.random((8, 8)) < 0.4)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    l_tilde, _ = scaled_laplacian(TrafficGraph(adj))
    assert np.array_equal(l_tilde, l_tilde.T)
    spectrum = np.linalg.eigvalsh(l_tilde)
    # L is positive semidefinite with a zero eigenvalue, so L~ spans exactly [-1, 1]
    assert abs(spectrum[0] + 1.0) < 1e-12
    assert abs(spectrum[-1] - 1.0) < 1e-12


def random_weighted(rng, n, density):
    adj = rng.uniform(0.1, 5.0, (n, n)) * (rng.random((n, n)) < density)
    adj = np.triu(adj, 1)
    return adj + adj.T


def near_twin_components(n_half=100, seed=7):
    # two copies of one random graph, the second's weights scaled by 1 + 1e-9:
    # their largest Laplacian eigenvalues differ only in the tenth digit
    adj = random_weighted(np.random.default_rng(seed), n_half, 0.1)
    full = np.zeros((2 * n_half, 2 * n_half))
    full[:n_half, :n_half] = adj
    full[n_half:, n_half:] = adj * (1.0 + 1e-9)
    return full


def isolated_node(seed=8):
    adj = random_weighted(np.random.default_rng(seed), 9, 0.5)
    adj[4, :] = adj[:, 4] = 0.0
    return adj


@pytest.mark.parametrize("adj", [
    *(random_weighted(np.random.default_rng(seed), n, density)
      for seed, (n, density) in enumerate([(3, 1.0), (12, 0.3), (40, 0.1), (64, 0.5)])),
    near_twin_components(),
    isolated_node(),
], ids=["n3", "n12", "n40", "n64", "near_twin_components", "isolated_node"])
def test_scaled_laplacian_lambda_matches_numpy_oracle(adj):
    graph = TrafficGraph(adj)
    l_tilde, lam = scaled_laplacian(graph)
    expected = np.linalg.eigvalsh(np.diag(adj.sum(axis=1)) - adj)[-1]
    assert abs(lam - expected) <= 1e-12 * expected
    assert np.allclose(l_tilde, (2.0 / expected) * graph.laplacian() - np.eye(len(adj)),
                       rtol=0, atol=1e-12)


# ---------------------------------------------------------------- chebyshev


def test_chebyshev_order_one_is_identity():
    basis = chebyshev_basis(np.zeros((3, 3)), 1)
    assert len(basis.matrices) == 1
    assert np.array_equal(basis.matrices[0], np.eye(3))


def test_chebyshev_order_two_appends_l_tilde():
    l_tilde, _ = scaled_laplacian(path_graph())
    basis = chebyshev_basis(l_tilde, 2)
    assert np.array_equal(basis.matrices[1], l_tilde)


def test_chebyshev_path_t2_is_identity():
    # For the 2-node path L~^2 = I, hence T_2 = 2 L~^2 - I = I
    l_tilde, _ = scaled_laplacian(path_graph())
    basis = chebyshev_basis(l_tilde, 3)
    assert np.allclose(basis.matrices[2], np.eye(2), atol=1e-8)


@pytest.mark.parametrize("n,order", [(4, 5), (10, 5), (7, 3)])
def test_chebyshev_recurrence_holds(n, order):
    rng = np.random.default_rng(n * 31 + order)
    adj = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.5)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    basis = build_basis(TrafficGraph(adj), order)
    l_tilde = basis.matrices[1] if order > 1 else None
    for k in range(2, order):
        lhs = basis.matrices[k]
        rhs = 2.0 * (l_tilde @ basis.matrices[k - 1]) - basis.matrices[k - 2]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_chebyshev_rejects_zero_order():
    with pytest.raises(ContractError):
        chebyshev_basis(np.eye(2), 0)


# ---------------------------------------------------------------- edge list io


def test_empty_edge_list_is_edgeless(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("src,dst,weight\n")
    g = load_adjacency(p, 3)
    assert np.array_equal(g.adjacency, np.zeros((3, 3)))


def test_single_edge_builds_path(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("src,dst,weight\n0,1,1.0\n")
    g = load_adjacency(p, 2)
    assert np.array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])


def test_duplicate_edge_conflicting_weight_rejected(tmp_path):
    p = tmp_path / "adj.csv"
    # the second 0->1 edge's line counts the comment and blank lines before it
    for text, line in [("src,dst,weight\n0,1,1.0\n0,1,2.0\n", 3),
                       ("# by hand\n\n# note\n\nsrc,dst,weight\n0,1,1.0\n\n# late\n0,1,2.0\n", 9)]:
        p.write_text(text)
        with pytest.raises(InputError) as err:
            load_adjacency(p, 2)
        assert f"line {line}:" in str(err.value)


def test_out_of_range_node_rejected_with_line(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("src,dst,weight\n0,5,1.0\n")
    with pytest.raises(InputError) as err:
        load_adjacency(p, 2)
    assert "line 2" in str(err.value)


def test_negative_weight_edge_rejected(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("src,dst,weight\n0,1,-3\n")
    with pytest.raises(InputError):
        load_adjacency(p, 2)


def test_self_loop_stripped_on_load(tmp_path):
    p = tmp_path / "adj.csv"
    p.write_text("src,dst,weight\n0,0,9.0\n0,1,1.0\n")
    g = load_adjacency(p, 2)
    assert g.adjacency[0, 0] == 0.0


def test_adjacency_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    adj = rng.uniform(0.5, 2, (5, 5)) * (rng.random((5, 5)) < 0.5)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    g = TrafficGraph(adj)
    p = tmp_path / "adj.csv"
    save_adjacency(p, g, comment="test")
    loaded = load_adjacency(p, 5)
    assert np.array_equal(loaded.adjacency, g.adjacency)


def test_adjacency_file_ends_every_line_with_a_newline_alone(tmp_path):
    p = tmp_path / "adj.csv"
    save_adjacency(p, path_graph(), comment="test")
    text = p.read_bytes()
    assert b"\r" not in text and text.startswith(b"# test\nsrc,dst,weight\n")


def test_graph_imports_first_in_a_fresh_interpreter():
    # graph reads and writes through data, so data may import graph only inside a function
    src = str(Path(maginet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", "import maginet.graph"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_basis_is_read_only():
    basis = build_basis(path_graph(), 3)
    assert isinstance(basis, ChebyshevBasis)
    with pytest.raises(ValueError):
        basis.matrices[0][0, 0] = 5.0
