"""Spectral machinery: Laplacians, the scaled Laplacian, Chebyshev bases.

Run:  python demos/02_graph_spectra.py
"""

import numpy as np

from maginet.data import synthetic_graph
from maginet.graph import TrafficGraph, build_basis, scaled_laplacian

# Two hand instances with known spectra.
path = TrafficGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
l_tilde, lam = scaled_laplacian(path)
print("2-node path: lambda_max =", lam, "(eigenvalues of L are {0, 2})")
print("L~ =\n", l_tilde)

triangle = TrafficGraph(np.ones((3, 3)) - np.eye(3))
l_tilde, lam = scaled_laplacian(triangle)
print("\ntriangle: lambda_max =", lam, "(eigenvalues of L are {0, 3, 3})")
print("L~ diagonal:", np.diagonal(l_tilde))

# The scaled Laplacian squeezes the spectrum of L into [-1, 1].
ring = synthetic_graph(10, extra_edges=3, seed=0)
l_tilde, lam = scaled_laplacian(ring)
spectrum = np.linalg.eigvalsh(l_tilde)
lam_lo, lam_hi = spectrum[0], spectrum[-1]
print(f"\n10-node ring+chords: lambda_max(L) = {lam:.6f}, "
      f"spectrum of L~ in [{lam_lo:.9f}, {lam_hi:.9f}] (must be within [-1, 1])")

# The Chebyshev basis T_0..T_{K-1} is what the graph convolution mixes;
# each T_k reaches k hops.
basis = build_basis(ring, 4)
for k, mat in enumerate(basis.matrices):
    nonzero = int((np.abs(mat) > 1e-12).sum())
    print(f"T_{k}: {nonzero} nonzero entries of {mat.size}")
