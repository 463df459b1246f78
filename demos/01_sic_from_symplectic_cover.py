"""
A SIC-POVM from a symplectic cover on 9 points
==============================================

The 3-fold antipodal cover of K_9 built from the standard symplectic
form on GF(3)^2 projects, through any nontrivial character of its deck
group, onto 9 equiangular lines in complex dimension 3 -- a maximal
equiangular line system (a SIC-POVM).  Everything below is exact
integer / rational arithmetic; no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction

from drackn.constructions import thas_somma
from drackn.covers import drackn_verify
from drackn.formats import emit_gram
from drackn.lines import absolute_bound, cover_to_lines, relative_bound, tight_frame_check

# Build the cover from the symplectic pencil and verify it from scratch:
# the verifier re-derives the parameters by breadth-first search on the
# expanded 27-vertex graph and cross-checks them against the character
# spectrum, so nothing is taken on trust from the constructor.
f = thas_somma(3, 2, s=1)
cert = drackn_verify(f)
print("cover parameters:", cert.params)
print("spectrum:        ", cert.spectrum_str())
print("checks passed:   ", ", ".join(cert.checks_passed))

# Project onto lines.  Each nontrivial character splits the cover into
# two equiangular line systems, one per eigenvalue of the quotient.
cl = cover_to_lines(f, char_index=1)
tau_lines, theta_lines = cl.lines_tau, cl.lines_theta
for label, lines in (("tau side", tau_lines), ("theta side", theta_lines)):
    print(
        f"{label}: {lines.n} lines in C^{lines.d}, "
        f"alpha^2 = {lines.alpha_sq}, "
        f"relative bound = {relative_bound(lines.n, lines.d)}, "
        f"absolute bound = {absolute_bound(lines.d, lines.field)}"
    )

# The theta-side system is the interesting one: 9 lines in dimension 3
# meet the absolute bound d^2 exactly, which is the defining property of
# a SIC-POVM.  Its Gram matrix G = I - S/theta satisfies the tight-frame
# identity G^2 = (n/d) G with n/d = 3: with S^2 = aS + (n-1)I, both sides
# are combinations of I and S, and the check compares their coefficients.
assert theta_lines.n == absolute_bound(theta_lines.d, "complex") == 9
assert tight_frame_check(theta_lines)
assert theta_lines.alpha_sq == Fraction(1, 4)
print("tight frame: G^2 == 3 G holds exactly")

# The Gram matrix itself: each off-diagonal entry is written by its
# coefficients on 1 and z = zeta_3, so "1/2,1/2" is 1/2 + z/2.
print(emit_gram("theta", theta_lines), end="")
