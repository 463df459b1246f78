"""Finite abelian groups, their characters, and the regular expansion.

Groups are products of cyclic factors Z/d1 x ... x Z/dk; elements are
exponent tuples numbered in lexicographic order (the identity is 0), and the
cached addition and negation tables act on those numbers.  Character values
are exact cyclotomic numbers, defined only for groups of prime exponent
(elementary abelian groups), which covers every group this library builds.
The regular expansion turns an arc matrix over a group of order r into the
0/1 adjacency matrix of the derived rn-vertex graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import lcm
from typing import TYPE_CHECKING

from . import cyclotomic, exact_matrix, np
from .arith import is_prime
from .errors import GroupMismatchError, UnsupportedError

if TYPE_CHECKING:  # pragma: no cover
    from .covers import ArcMatrix


@dataclass(frozen=True)
class AbelianGroup:
    """Z/d1 x ... x Z/dk; the empty product is the trivial group."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(d) for d in self.orders))
        if any(d < 2 for d in self.orders):
            raise ValueError(f"cyclic factor orders must be >= 2, got {self.orders}")

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    @property
    def prime_exponent(self) -> int | None:
        """p if the group is elementary abelian of exponent p, else None."""
        e = self.exponent
        return e if is_prime(e) else None

    def coerce(self, el) -> tuple[int, ...]:
        es = tuple(el)
        if len(es) != len(self.orders):
            raise GroupMismatchError(
                f"element of length {len(es)} for group with {len(self.orders)} factors"
            )
        return tuple(int(x) % d for x, d in zip(es, self.orders))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % d for x, y, d in zip(a, b, self.orders))

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All elements in lexicographic order (identity first)."""
        return _elements(self.orders)

    def index(self, el) -> int:
        idx = 0
        for x, d in zip(el, self.orders):
            idx = idx * d + x
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.orders):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    def index_array(self, coords) -> np.ndarray:
        """Indices of the exponent tuples along the last axis of ``coords``,
        each coordinate reduced mod its order."""
        coords = np.asarray(coords, dtype=np.int64)
        out = np.zeros(coords.shape[:-1], dtype=np.int64)
        for i, d in enumerate(self.orders):
            out = out * d + coords[..., i] % d
        return out

    def add_table(self) -> np.ndarray:
        """add[i, j] is the index of element i + element j (read-only)."""
        return _add_table(self.orders)

    def neg_table(self) -> np.ndarray:
        """neg[i] is the index of -(element i) (read-only)."""
        return _neg_table(self.orders)


@lru_cache(maxsize=None)
def _elements(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(product(*(range(d) for d in orders)))


@lru_cache(maxsize=None)
def _neg_table(orders: tuple[int, ...]) -> np.ndarray:
    """Built one factor at a time: -(i d + x) = neg[i] d + (-x) % d."""
    neg = np.zeros(1, dtype=np.int64)
    for d in orders:
        neg = (neg[:, None] * d + -np.arange(d) % d).ravel()
    neg.flags.writeable = False
    return neg


@lru_cache(maxsize=None)
def _add_table(orders: tuple[int, ...]) -> np.ndarray:
    """Built one factor at a time: (i d + x) + (j d + y) = add[i, j] d + (x + y) % d."""
    add = np.zeros((1, 1), dtype=np.int64)
    for d in orders:
        x, m = np.arange(d), add.shape[0] * d
        add = (add[:, None, :, None] * d + ((x[:, None] + x) % d)[:, None, :]).reshape(m, m)
    add.flags.writeable = False
    return add


@dataclass(frozen=True)
class Character:
    """A character of an abelian group, indexed by an exponent tuple.

    For a group of prime exponent p the value at g is zeta_p ** <exponents, g>,
    an exact cyclotomic number.
    """

    group: AbelianGroup
    exponents: tuple[int, ...]

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def value(self, el) -> cyclotomic.CycNum:
        p = self.group.prime_exponent
        if p is None:
            raise UnsupportedError(
                f"character values need a prime-exponent group, got exponent {self.group.exponent}"
            )
        k = sum(e * x for e, x in zip(self.exponents, el)) % p
        return cyclotomic.CycNum.zeta_pow(p, k)


def characters_of(group: AbelianGroup) -> tuple[Character, ...]:
    """All characters, the trivial one first (exponent tuples in lex order)."""
    return tuple(Character(group, exps) for exps in group.elements())


def char_apply(f: "ArcMatrix", chi: Character) -> exact_matrix.ExactMatrix:
    """The n x n character block of an arc matrix: entries chi(f(u,v)).

    The diagonal is cyclotomic zero.  The result is Hermitian because
    f(v,u) = -f(u,v) and chi(-g) is the complex conjugate of chi(g).
    """
    if chi.group != f.group:
        raise GroupMismatchError("character group differs from arc matrix group")
    p = chi.group.prime_exponent
    if p is None:
        raise UnsupportedError("char_apply needs a prime-exponent group")
    zero = cyclotomic.CycNum.zero(p)
    values = [chi.value(g) for g in chi.group.elements()] + [zero]  # -1: diagonal
    rows = f.index.tolist()
    return exact_matrix.ExactMatrix(tuple(tuple(values[i] for i in row) for row in rows))


def regular_expand(f: "ArcMatrix") -> np.ndarray:
    """The 0/1 adjacency matrix of the cover graph defined by an arc matrix.

    Vertices are pairs (fibre u, group element g) numbered fibre-major with
    group elements in lexicographic order: vertex index = u*r + index(g).
    (u, g) is adjacent to (v, h) for u != v exactly when h - g = f(u, v).
    """
    r, n = f.group.order, f.n
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    g = np.arange(r)
    h = f.group.add_table()[g, f.index[u, v][:, None]]  # [pair, g]: g + f(u, v)
    adj = np.zeros((n * r, n * r), dtype=np.int64)
    adj[(u * r)[:, None] + g, (v * r)[:, None] + h] = 1
    return adj
