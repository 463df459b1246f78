"""
Generalized Hadamard matrices and quotient covers
=================================================

Covers with n = r*c are the same thing as generalized Hadamard matrices
over the deck group: with the identity on its diagonal, the arc matrix
turns the distance-regularity condition into the Hadamard identity, the
differences of two distinct rows hit every group element c times.  Quotienting the deck
group by a subgroup H maps an (n, r, c) cover to an (n, r/|H|, |H| c)
cover, so one large cover yields a tower of smaller ones.
"""

from __future__ import annotations

import numpy as np

from drackn.constructions import cover_to_gh, dcff, gh_to_cover, thas_somma
from drackn.covers import drackn_verify, quotient

# An 8-fold cover of K_16 on 128 vertices from a skew product on GF(2^3).
f = dcff(1, 3)
cert = drackn_verify(f)
print("dcff cover:", cert.params, "deck group", f.group)

# Quotient by each of the seven order-2 subgroups of the deck group
# (Z/2)^3: every quotient is a (16, 4, 4) cover.
for gen in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
    q = quotient(f, [gen])
    qcert = drackn_verify(q)
    print(f"  quotient by <{gen}>: {qcert.params}")

# Two steps down: quotient by an order-4 subgroup gives (16, 2, 8).
q2 = quotient(f, [(1, 0, 0), (0, 1, 0)])
print("quotient by an order-4 subgroup:", drackn_verify(q2).params)

# The Hadamard bridge on the 9-point cover (here n = r*c = 9).
g = thas_somma(3, 2)
h = cover_to_gh(g)
group = h.group
sub = group.add_table()[:, group.neg_table()]  # sub[a, b] is a - b


def differences(u, v):
    """How often each element of the group is h(u, w) - h(v, w)."""
    return np.bincount(sub[h.index[u], h.index[v]], minlength=group.order).tolist()


# The defining identity: the differences of two distinct rows hit each
# element of Z/3 exactly 9/3 = 3 times (a row minus itself hits 0 nine times).
valid = all(differences(u, v) == [3, 3, 3] for u in range(h.n) for v in range(u + 1, h.n))
print("generalized Hadamard over", h.group, "valid:", valid)
for u, v in ((0, 0), (0, 1), (3, 7)):
    print(f"  row {u} - row {v} hits the elements of Z/3 {differences(u, v)} times")

# And back: the matrix reconstructs the cover it came from, exactly.
back, back_cert = gh_to_cover(h)
assert back == g
print("round trip recovers the original arc matrix:", back == g)
print("recovered parameters:", back_cert.params)
