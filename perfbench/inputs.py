"""Seeded inputs for the benchmark: the cover ladder, relabellings and
one-arc perturbations, rendered as ``DRACKN-COVER v1`` text.

The program only ever sees the text produced here.  Expected parameters come
from the families' closed forms, never from the program:

* ``thas_somma(p, m, s)`` is a (p^m, p^s, p^(m-s)) cover;
* ``dcff(t, d)`` is a (2^(t(d+1)), 2^(td), 2^t) cover.
"""

from __future__ import annotations

import random
from math import isqrt

# name -> (family, arguments); ordered from cheapest to dearest to verify.
LADDER = {
    "ts32": ("thas_somma", (3, 2)),
    "dcff13": ("dcff", (1, 3)),
    "ts52": ("thas_somma", (5, 2)),
    "ts26": ("thas_somma", (2, 6)),
    "ts72": ("thas_somma", (7, 2)),
}

CHECKS_LINE = (
    "CHECKS arc-structure regular connected antipodal distance-regular "
    "character-blocks multiplicities-integral"
)


def closed_form(rung: str) -> tuple[int, int, int]:
    """(n, r, c) of a ladder rung from its family's closed form."""
    family, args = LADDER[rung]
    if family == "thas_somma":
        p, m = args
        s = 1
        return p**m, p**s, p ** (m - s)
    t, d = args
    return 2 ** (t * (d + 1)), 2 ** (t * d), 2**t


def eigen_data(n: int, r: int, c: int) -> tuple[int, int, int, int, int]:
    """(delta, theta, tau, m_theta, m_tau) of an (n, r, c) cover.

    theta and tau are the roots of x^2 - delta x - (n-1); every ladder rung
    has n = rc, so both are integers and the spectrum is rational.
    """
    delta = n - r * c - 2
    disc = delta * delta + 4 * (n - 1)
    root = isqrt(disc)
    if root * root != disc:
        raise ValueError(f"({n}, {r}, {c}) has irrational eigenvalues")
    theta, tau = (delta + root) // 2, (delta - root) // 2
    scale = n * (r - 1)
    return delta, theta, tau, scale * -tau // (theta - tau), scale * theta // (theta - tau)


def certificate_lines(n: int, r: int, c: int) -> tuple[str, str, str]:
    """The DRACKN / SPECTRUM / CHECKS lines a correct verification prints."""
    delta, theta, tau, m_theta, m_tau = eigen_data(n, r, c)
    return (
        f"DRACKN n={n} r={r} c={c} delta={delta} theta={theta} tau={tau}",
        f"SPECTRUM {n - 1}^1 {theta}^{m_theta} -1^{n - 1} {tau}^{m_tau}",
        CHECKS_LINE,
    )


def build_ladder(constructions, rungs) -> dict[str, tuple[tuple[int, ...], tuple]]:
    """Build each rung with the program's own constructions, which verify
    their output; return name -> (group orders, arc entries)."""
    out = {}
    for name in rungs:
        family, args = LADDER[name]
        arc = getattr(constructions, family)(*args)
        out[name] = (arc.group.orders, arc.entries)
    return out


def _add(orders, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


def _neg(orders, a):
    return tuple(-x % d for x, d in zip(a, orders))


def _random_element(rng: random.Random, orders) -> tuple[int, ...]:
    return tuple(rng.randrange(d) for d in orders)


def relabel(orders, entries, rng: random.Random) -> list[list]:
    """A random fibre permutation followed by a random gauge switch.

    f'(i, j) = f(pi(i), pi(j)) + h_j - h_i describes an isomorphic expanded
    graph, so the certificate must not change.
    """
    n = len(entries)
    perm = list(range(n))
    rng.shuffle(perm)
    shift = [_random_element(rng, orders) for _ in range(n)]
    return [
        [
            None
            if i == j
            else _add(orders, _add(orders, entries[perm[i]][perm[j]], shift[j]), _neg(orders, shift[i]))
            for j in range(n)
        ]
        for i in range(n)
    ]


def perturb(orders, entries, rng: random.Random) -> list[list]:
    """Change one arc pair f(u,v) = a, f(v,u) = -a to f(u,v) = b != a.

    Why the result is never a cover, and why the verdict is the
    ``not-distance-regular`` tag.  Write N_xy(d) for the number of fibres z
    outside {x, y} with f(x,z) + f(z,y) = d; the vertices (x,g) and (y,g+d)
    have N_xy(d) common neighbours, and in an (n, r, c) cover N_xy(d) = c for
    every d != f(x,y).  The change alters exactly one term of N_xy when
    exactly one of x, y lies in {u, v}, and none otherwise.

    * Take w outside {u, v} (n >= 3).  In N_uw only z = v moves: its value
      a + f(v,w) loses one and b + f(v,w) gains one.  These differ, so at
      least one of them is not f(u,w); that non-adjacent cross-fibre pair
      now has c - 1 or c + 1 common neighbours.  A pair with x, y outside
      {u, v} (n >= 4) keeps c, so no constant works: the table is not a cover.
    * Outside the fibre pair {u, v} every count moves by at most one, so
      with c >= 2 (every rung here) those non-adjacent cross-fibre pairs
      keep a common neighbour.  Degrees stay n - 1 and fibre mates still
      share none.  A fibre mate (x,g') has a neighbour in some fibre outside
      {x, u, v} (n >= 4), and that neighbour is at distance 2 from (x,g); so
      fibre mates are at distance exactly 3 and the graph stays connected.
      The combinatorial route therefore meets no regular, connected or
      antipodal failure, and rejects with ``not-distance-regular``.
    """
    out = relabel(orders, entries, rng)
    u, v = rng.sample(range(len(out)), 2)
    while True:
        b = _random_element(rng, orders)
        if b != out[u][v]:
            return change_arc(orders, out, u, v, b)


def change_arc(orders, entries, u: int, v: int, b) -> list[list]:
    """Copy of the table with f(u,v) = b and f(v,u) = -b."""
    out = [list(row) for row in entries]
    out[u][v] = b
    out[v][u] = _neg(orders, b)
    return out


def cover_text(orders, entries) -> str:
    """``DRACKN-COVER v1`` rendering of an arc table."""
    n = len(entries)
    rows = [
        " ".join("." if e is None else ",".join(map(str, e)) for e in row) for row in entries
    ]
    return "\n".join(["DRACKN-COVER v1", f"n={n} group={','.join(map(str, orders))}", *rows]) + "\n"


def rung_rng(seed: int, rung: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{rung}:{k}")
