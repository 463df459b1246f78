"""
Regular two-graphs, conference matrices, and doubling
=====================================================

Double covers (r = 2) of K_n are regular two-graphs in disguise: a
symmetric conference matrix of order n is exactly a Seidel matrix with
two eigenvalues +/- sqrt(n - 1), and doubling it produces a 2n-vertex
antipodal double cover whose spectrum picks up the surd eigenvalues.
The eigenvalues stay symbolic throughout -- sqrt(5) is an exact
quadratic number here, not 2.2360679...
"""

from __future__ import annotations

from drackn.lines import (
    double_real,
    lines_to_cover,
    paley_conference,
    relative_bound,
    seidel_to_linesets,
    two_eigenvalue_data,
)
from drackn.quadratic import QuadNum

# Paley's 6 x 6 symmetric conference matrix: the Legendre symbol of GF(5)
# bordered by ones.  Zero diagonal, +/-1 entries, S^2 = 5 I.
s = paley_conference(5)
# The matrix is stored as one index array: +1 is index 0 and -1 is index 2.
print("Seidel matrix rows:")
for u, row in enumerate(s.index.tolist()):
    print("  ", [0 if u == v else 1 - i for v, i in enumerate(row)])

# two_eigenvalue_data proves S^2 = aS + (n-1)I from integer counts; here
# a = theta + tau = 0, so S^2 = 5 I.  Its two eigenvalues are the exact
# surds +/- sqrt(5), multiplicity 3 each.
spec = two_eigenvalue_data(s)
assert spec.theta + spec.tau == 0 and s.n - 1 == 5
print("S^2 == 5 I holds exactly")
print("eigenvalues:", spec.theta, "and", spec.tau, "with multiplicities",
      spec.m_theta, "/", spec.m_tau)
assert spec.theta == QuadNum.sqrt(5) and spec.tau == -QuadNum.sqrt(5)

# The two eigenspaces carry equiangular line systems in R^3 meeting the
# relative bound: 6 lines at common angle arccos(1/sqrt(5)).
lt, lth = seidel_to_linesets(s)
print(f"line systems: {lt.n} lines in R^{lt.d} and R^{lth.d}, "
      f"alpha^2 = {lt.alpha_sq} = relative bound {relative_bound(6, 3)}")

# Doubling: replace each +1 by a straight pair of edges and each -1 by a
# crossed pair.  The result is a 12-vertex antipodal double cover of K_6
# with the surd spectrum 5^1 sqrt(5)^3 (-1)^5 (-sqrt(5))^3.
arc, cert = lines_to_cover(s, 2)
print("doubled cover: (n, r, c) =", (cert.params.n, cert.params.r, cert.params.c))
print("spectrum:", cert.spectrum_str())

adj, fibres = double_real(s)
print("adjacency matrix is", adj.shape[0], "x", adj.shape[1],
      "with fibres", fibres[:3], "...")
