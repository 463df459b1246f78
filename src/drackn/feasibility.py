"""Feasibility arithmetic for (n, r, c) cover parameters.

Everything here is derived from three integers: an antipodal r-fold cover of
K_n in which non-adjacent vertices from distinct fibres have exactly c common
neighbours has delta = n - rc - 2, non-trivial eigenvalues theta > 0 > tau
solving x^2 - delta*x - (n-1) = 0, and multiplicities

    m_theta = n (r-1) (-tau) / (theta - tau),
    m_tau   = n (r-1) theta  / (theta - tau).

The battery of necessary conditions below rejects most parameter triples; the
four closed-form parameter families (cases I.a/I.b with even r, II.a/II.b with
odd r) describe the covers whose derived line systems meet the relative bound
with equality, and their enumeration reproduces the known feasible tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .arith import divisors, odd_prime_divisors, sqrt_exact
from .errors import DracknError
from .quadratic import QuadNum

#: Marker for the sporadic parameter value t = sqrt(5) in case I.a.
SQRT5 = "sqrt5"

CASE_IDS = ("I.a", "I.b", "II.a", "II.b")


@dataclass(frozen=True)
class ParameterSet:
    """Derived spectral data for a parameter triple (n, r, c).

    Each of theta, tau and the multiplicities is a Fraction when it is
    rational and a QuadNum surd otherwise; theta and tau are rational exactly
    when delta^2 + 4(n-1) is a perfect square.  Integrality of the
    multiplicities is a feasibility condition, not an invariant.
    """

    n: int
    r: int
    c: int
    delta: int
    theta: Fraction | QuadNum
    tau: Fraction | QuadNum
    m_theta: Fraction | QuadNum
    m_tau: Fraction | QuadNum

    @property
    def mbar_theta(self) -> Fraction | QuadNum:
        return self.m_theta / (self.r - 1)

    @property
    def mbar_tau(self) -> Fraction | QuadNum:
        return self.m_tau / (self.r - 1)

    @property
    def eigenvalues_integral(self) -> bool:
        return isinstance(self.theta, Fraction)

    def format_fields(self) -> tuple[str, ...]:
        return (
            str(self.n),
            str(self.r),
            str(self.c),
            str(self.delta),
            _fmt(self.theta),
            _fmt(self.tau),
            _fmt(self.m_theta),
            _fmt(self.m_tau),
        )


def _fmt(x) -> str:
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    return str(x)


def _is_positive_integer(x) -> bool:
    return isinstance(x, Fraction) and x.denominator == 1 and x >= 1


def quadratic_spectrum(delta: int, n: int, scale: int) -> tuple[Fraction | QuadNum, ...]:
    """theta > tau, the roots of x^2 - delta*x - (n-1), and their
    multiplicities scale*(-tau)/(theta - tau) and scale*theta/(theta - tau),
    which sum to scale and give trace 0: the spectrum of a cover of K_n
    (scale n(r - 1)), of its character blocks and of every two-eigenvalue
    Seidel matrix (scale n), by Godsil and Hensel.
    """
    disc = delta * delta + 4 * (n - 1)
    s = sqrt_exact(disc)
    if s is not None:
        # s^2 = delta^2 (mod 4), so s = delta (mod 2) and theta, tau are integers
        theta_int, tau_int = (delta + s) // 2, (delta - s) // 2
        assert theta_int * tau_int == -(n - 1)
        return (
            Fraction(theta_int), Fraction(tau_int),
            Fraction(-scale * tau_int, s), Fraction(scale * theta_int, s),
        )
    theta = QuadNum(Fraction(delta, 2), Fraction(1, 2), disc)
    tau = theta.algebraic_conjugate()
    diff = theta - tau
    m_theta = scale * (-tau) / diff
    m_tau = scale * theta / diff
    assert theta + tau == delta and theta * tau == -(n - 1)
    assert m_theta + m_tau == scale
    return theta, tau, m_theta, m_tau


def spectral_params(n: int, r: int, c: int) -> ParameterSet:
    """Exact delta, theta, tau and multiplicities for the triple (n, r, c)."""
    if n < 2 or r < 2 or c < 1:
        raise ValueError(f"need n >= 2, r >= 2, c >= 1, got ({n}, {r}, {c})")
    delta = n - r * c - 2
    return ParameterSet(n, r, c, delta, *quadratic_spectrum(delta, n, n * (r - 1)))


# -- the condition battery ---------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    key: str
    applicable: bool
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class FeasibilityReport:
    params: ParameterSet
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions if c.applicable)

    def condition(self, key: str) -> ConditionResult:
        for c in self.conditions:
            if c.key == key:
                return c
        raise KeyError(key)

    def failing(self) -> tuple[ConditionResult, ...]:
        return tuple(c for c in self.conditions if c.applicable and not c.passed)


def feasibility_battery(n: int, r: int, c: int) -> FeasibilityReport:
    """Run the full battery of necessary conditions on (n, r, c).

    Its scope is covers with an abelian deck group (regular covers), the
    covers this library builds and verifies.  Two conditions need that
    scope: ``mbar`` and ``corollary``.  Some distance-regular covers
    outside it, such as Mathon's (8, 3, 2) and (14, 3, 4), fail
    ``corollary``.
    """
    ps = spectral_params(n, r, c)
    delta, theta, tau = ps.delta, ps.theta, ps.tau
    out: list[ConditionResult] = []

    def add(key, applicable, passed=True, witness=""):
        out.append(ConditionResult(key, applicable, passed if applicable else True, witness))

    # (a) counting bounds linking c, r and n
    lo, hi = c * (r - 1), c * (2 * r - 1) - 2
    ok = 1 <= lo <= n - 2 <= hi
    add("a", True, ok, "" if ok else f"need 1 <= {lo} <= {n - 2} <= {hi}")

    # (b) multiplicities are positive integers
    ok = _is_positive_integer(ps.m_theta) and _is_positive_integer(ps.m_tau)
    add("b", True, ok, "" if ok else f"m_theta={_fmt(ps.m_theta)} m_tau={_fmt(ps.m_tau)}")

    # (mbar) a non-trivial character block of an abelian cover has trace 0 and
    #        eigenvalues theta, tau only: their multiplicities m / (r - 1) are integers
    mbar = _is_positive_integer(ps.mbar_theta) and _is_positive_integer(ps.mbar_tau)
    wit = f"mbar_theta={_fmt(ps.mbar_theta)} mbar_tau={_fmt(ps.mbar_tau)}"
    add("mbar", ok, mbar, "" if mbar else wit)

    # (c) delta != 0 forces integral eigenvalues
    add(
        "c",
        delta != 0,
        ps.eigenvalues_integral,
        "" if ps.eigenvalues_integral else "eigenvalues-not-integral",
    )

    # (d) delta == 0 forces theta = -tau = sqrt(n-1) (true by construction)
    add("d", delta == 0, True, f"theta=-tau={_fmt(theta)}" if delta == 0 else "")

    # (e) even n forces even c
    add("e", n % 2 == 0, c % 2 == 0, "" if c % 2 == 0 else f"n even but c={c} odd")

    # (f) c == 1 divisibility constraints
    if c == 1:
        if n - r <= 0:
            add("f", True, False, f"n-r={n - r} <= 0")
        else:
            d1 = (n - 1) % (n - r) == 0
            d2 = (r * n * (n - 1)) % ((n - r) * (n - r + 1)) == 0
            d3 = (n - r) ** 2 <= n - 1
            ok = d1 and d2 and d3
            add("f", True, ok, "" if ok else f"n-r={n - r} divisibility/size fails")
    else:
        add("f", False)

    # (g) for r > 2, theta^3 >= n - 1
    if r > 2:
        ok = theta**3 >= n - 1
        add("g", True, ok, "" if ok else f"theta^3={_fmt(theta ** 3)} < {n - 1}")
    else:
        add("g", False)

    # (h) absolute bound on the derived line systems
    guard = theta != 1 and tau != -1 and theta**3 != n - 1
    if guard and isinstance(ps.m_theta, Fraction):
        mt, mtau = ps.m_theta, ps.m_tau
        bound_t = mt * (mt + 1) / 2
        bound_tau = mtau * (mtau + 1) / 2
        if r > 2:
            ok = r * n <= bound_t and r * n <= bound_tau
            wit = f"rn={r * n} exceeds m(m+1)/2 for m in ({_fmt(mt)}, {_fmt(mtau)})"
        else:
            ok = n <= bound_t and n <= bound_tau
            wit = f"n={n} exceeds m(m+1)/2 for m in ({_fmt(mt)}, {_fmt(mtau)})"
        add("h", True, ok, "" if ok else wit)
    else:
        add("h", False)

    # (i) for r > 2 and an integral eigenvalue beta with n > m_beta - r + 3,
    #     beta + 1 divides c (in absolute value)
    if r > 2 and ps.eigenvalues_integral:
        ok, wit = True, ""
        for name, beta, m in (("theta", theta, ps.m_theta), ("tau", tau, ps.m_tau)):
            b = int(beta)
            if b + 1 == 0 or n <= m - r + 3:
                continue
            if c % abs(b + 1) != 0:
                ok = False
                wit = f"{name}+1={b + 1} does not divide c={c}"
                break
        add("i", True, ok, wit)
    else:
        add("i", False)

    # every odd prime dividing r divides n
    bad = [p for p in odd_prime_divisors(r) if n % p != 0]
    add(
        "corollary",
        True,
        not bad,
        "" if not bad else f"odd prime {bad[0]} divides r but not n",
    )

    return FeasibilityReport(ps, tuple(out))


# -- bounds on tau -----------------------------------------------------------


@dataclass(frozen=True)
class TauBounds:
    """The exact window [lower, upper] for tau at a given n and parity of r.

    For odd r:   -(sqrt(n)-1)*sqrt(sqrt(n)+1) <= tau <= -sqrt(sqrt(n)+1).
    For even r:  -sqrt((n-1)*(sqrt(8n+1)-3))/2 <= tau <= -sqrt((sqrt(8n+1)+3)/2).

    The window comes from the absolute bound on the line systems of a cover,
    so it holds for covers with an abelian deck group (the scope of
    ``feasibility_battery``) whose eigenvalues have theta != 1 and
    tau != -1.  Triples with theta = 1 or tau = -1, such as (4, 2, 2) with
    tau = -3, pass the battery and still lie outside it.

    Membership and attainment are decided by exact squared comparisons, so
    tau may be an int, Fraction, or a QuadNum surd.
    """

    n: int
    parity: str

    def _tau_data(self, tau) -> tuple[Fraction, bool]:
        return Fraction(tau * tau), tau < 0

    def _lower_terms(self, tau_sq: Fraction) -> tuple[Fraction, int]:
        if self.parity == "odd":
            return tau_sq / (self.n - 1) + 1, self.n
        return 4 * tau_sq / (self.n - 1) + 3, 8 * self.n + 1

    def _upper_terms(self, tau_sq: Fraction) -> tuple[Fraction, int]:
        if self.parity == "odd":
            return tau_sq - 1, self.n
        return 2 * tau_sq - 3, 8 * self.n + 1

    def lower_satisfied(self, tau) -> bool:
        sq, _ = self._tau_data(tau)
        q, target = self._lower_terms(sq)
        return q * q <= target

    def lower_attained(self, tau) -> bool:
        sq, neg = self._tau_data(tau)
        q, target = self._lower_terms(sq)
        return neg and q * q == target

    def upper_satisfied(self, tau) -> bool:
        sq, neg = self._tau_data(tau)
        u, target = self._upper_terms(sq)
        return neg and u >= 0 and u * u >= target

    def upper_attained(self, tau) -> bool:
        sq, neg = self._tau_data(tau)
        u, target = self._upper_terms(sq)
        return neg and u >= 0 and u * u == target

    def contains(self, tau) -> bool:
        return self.lower_satisfied(tau) and self.upper_satisfied(tau)

    def describe(self) -> str:
        n = self.n
        if self.parity == "odd":
            return f"-(sqrt({n})-1)*sqrt(sqrt({n})+1) <= tau <= -sqrt(sqrt({n})+1)"
        return f"-sqrt(({n - 1})*(sqrt({8 * n + 1})-3))/2 <= tau <= -sqrt((sqrt({8 * n + 1})+3)/2)"


def tau_bounds(n: int, r_parity) -> TauBounds:
    """Bounds on tau for abelian covers of K_n whose index r has the given
    parity, and whose eigenvalues have theta != 1 and tau != -1.

    ``r_parity`` may be the string "odd"/"even" or an integer r.
    """
    if isinstance(r_parity, int):
        parity = "even" if r_parity % 2 == 0 else "odd"
    else:
        parity = str(r_parity)
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {r_parity!r}")
    if n < 2:
        raise ValueError("need n >= 2")
    return TauBounds(n, parity)


# -- the closed-form parameter families --------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Closed-form data of one family member, before splitting rc into r*c."""

    case_id: str
    t: int | str
    n: int
    rc: int
    delta: int
    theta: Fraction | QuadNum
    tau: Fraction | QuadNum
    mbar_theta: Fraction
    mbar_tau: Fraction


def family_params(case_id: str, t) -> FamilyParams:
    """Evaluate one family's closed forms at parameter t.

    t is an integer >= 2, or the SQRT5 marker (case I.a only), where the
    closed forms still produce integer n and rc.
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"case must be one of {CASE_IDS}, got {case_id!r}")
    if t == SQRT5:
        if case_id != "I.a":
            raise ValueError("the sqrt(5) parameter exists only in case I.a")
        tv: Fraction | QuadNum = QuadNum(0, 1, 5)
    else:
        if not isinstance(t, int) or t < 2:
            raise ValueError(f"t must be an integer >= 2 (or SQRT5), got {t!r}")
        tv = Fraction(t)
    t2 = tv * tv
    if case_id in ("I.a", "I.b"):
        n = (t2 - 2) * (t2 - 1) / 2
        if case_id == "I.a":
            rc = (tv + 1) ** 3 * (tv - 2) / 2
            delta = -tv * (t2 - 5) / 2
            theta, tau = tv, -tv * (t2 - 3) / 2
            mb_theta, mb_tau = (t2 - 2) * (t2 - 3) / 2, t2 - 2
        else:
            rc = (tv - 1) ** 3 * (tv + 2) / 2
            delta = tv * (t2 - 5) / 2
            theta, tau = tv * (t2 - 3) / 2, -tv
            mb_theta, mb_tau = t2 - 2, (t2 - 2) * (t2 - 3) / 2
    else:
        n = (t2 - 1) ** 2
        if case_id == "II.a":
            rc = (tv + 1) ** 2 * (t2 - tv - 1)
            delta = -(t2 - 3) * tv
            theta, tau = tv, -(t2 - 2) * tv
            mb_theta, mb_tau = (t2 - 2) * (t2 - 1), t2 - 1
        else:
            rc = (tv - 1) ** 2 * (t2 + tv - 1)
            delta = (t2 - 3) * tv
            theta, tau = (t2 - 2) * tv, -tv
            mb_theta, mb_tau = t2 - 1, (t2 - 2) * (t2 - 1)
    n_i, rc_i, delta_i = _family_int(n), _family_int(rc), _family_int(delta)
    # internal consistency of the closed forms
    assert delta_i == n_i - rc_i - 2
    assert theta + tau == delta_i and theta * tau == -(n_i - 1)
    assert mb_theta + mb_tau == n_i and theta * mb_theta + tau * mb_tau == 0
    return FamilyParams(case_id, t, n_i, rc_i, delta_i, theta, tau, mb_theta, mb_tau)


def _family_int(x) -> int:
    if not isinstance(x, Fraction) or x.denominator != 1:
        raise DracknError(f"family closed form produced non-integer {x}")
    return int(x)


# -- enumeration of feasible family rows -------------------------------------

#: (n, r, c) triples already recorded in the published feasibility tables
#: (the two closed-form family tables, the two single-row cases, and the
#: sporadic icosahedral pair).  Everything else enumerated below is flagged.
KNOWN_PARAMETER_SETS: frozenset[tuple[int, int, int]] = frozenset(
    {
        # case I.b table (t = 5, 7, 9)
        (276, 4, 56),
        (276, 16, 14),
        (1128, 6, 162),
        (1128, 54, 18),
        (1128, 162, 6),
        (1128, 486, 2),
        (3160, 4, 704),
        (3160, 8, 352),
        (3160, 64, 44),
        (3160, 128, 22),
        # case II.b table (t <= 21)
        (1225, 5, 205),
        (3969, 7, 497),
        (14400, 5, 2620),
        (20449, 11, 1705),
        (38025, 13, 2717),
        (50176, 7, 6692),
        (65025, 5, 12195),
        (104329, 17, 5797),
        (159201, 19, 7961),
        (193600, 5, 36880),
        # single-row cases and the sporadic icosahedral parameters
        (28, 4, 8),
        (9, 3, 3),
        (6, 2, 2),
    }
)

FLAG_TWO_GRAPH = "two-graph"
FLAG_UNPUBLISHED = "unpublished"


@dataclass(frozen=True)
class FamilyRow:
    case_id: str
    t: int | str
    n: int
    r: int
    c: int
    params: ParameterSet
    flags: tuple[str, ...]


def _flags_for(n: int, r: int, c: int) -> tuple[str, ...]:
    flags = []
    if r == 2:
        flags.append(FLAG_TWO_GRAPH)
    if (n, r, c) not in KNOWN_PARAMETER_SETS:
        flags.append(FLAG_UNPUBLISHED)
    return tuple(flags)


def _emit(case_id: str, t, n: int, r: int, c: int, fp: FamilyParams) -> FamilyRow:
    ps = spectral_params(n, r, c)
    # the closed forms and the generic spectral formulas must agree
    assert ps.theta == fp.theta and ps.tau == fp.tau and ps.delta == fp.delta
    assert ps.m_theta == fp.mbar_theta * (r - 1) and ps.m_tau == fp.mbar_tau * (r - 1)
    return FamilyRow(case_id, t, n, r, c, ps, _flags_for(n, r, c))


def _rows_case_a(case_id: str, t) -> list[FamilyRow]:
    fp = family_params(case_id, t)
    if fp.rc < 1:
        return []
    want_even = case_id == "I.a"
    rows = []
    for r in divisors(fp.rc):
        if r < 2:
            continue
        if want_even != (r % 2 == 0):
            continue
        c = fp.rc // r
        if feasibility_battery(fp.n, r, c).passed:
            rows.append(_emit(case_id, t, fp.n, r, c, fp))
    return rows


def _rows_case_ib(t: int) -> list[FamilyRow]:
    if t < 3 or t % 4 == 0:  # condition (1)
        return []
    fp = family_params("I.b", t)
    rows = []
    for r in divisors(fp.rc):
        if r < 2 or r % 2:
            continue
        c = fp.rc // r
        battery_ok = feasibility_battery(fp.n, r, c).passed
        if r == 2:
            if battery_ok:
                rows.append(_emit("I.b", t, fp.n, r, c, fp))
            continue
        cond2 = c >= 2
        cond3 = r > (t * t + 1) / 2 or (t - 1) % r == 0
        cond4 = t % 2 == 0 or c % 2 == 0
        cond5 = all((t - 1) % p == 0 for p in odd_prime_divisors(r))
        conditions_ok = cond2 and cond3 and cond4 and cond5
        if conditions_ok != battery_ok:
            raise DracknError(
                f"case I.b self-check failed at (n,r,c)=({fp.n},{r},{c}): "
                f"conditions say {conditions_ok}, battery says {battery_ok}"
            )
        if conditions_ok:
            rows.append(_emit("I.b", t, fp.n, r, c, fp))
    return rows


def _rows_case_iib(t: int) -> list[FamilyRow]:
    if t < 3:
        return []
    fp = family_params("II.b", t)
    rows = []
    for r in divisors(t - 1):
        if r % 2 == 0 or r < 5 or r % 3 == 0:
            continue
        c = fp.rc // r
        if c < 2:
            continue
        if not feasibility_battery(fp.n, r, c).passed:
            raise DracknError(
                f"case II.b self-check failed: ({fp.n},{r},{c}) rejected by the battery"
            )
        rows.append(_emit("II.b", t, fp.n, r, c, fp))
    return rows


def _rows_for_t(case_id: str, t) -> list[FamilyRow]:
    if case_id in ("I.a", "II.a"):
        return _rows_case_a(case_id, t)
    if case_id == "I.b":
        return _rows_case_ib(t)
    return _rows_case_iib(t)


def family_enumerate(case_id: str, t_max: int) -> tuple[FamilyRow, ...]:
    """All feasible rows of one family with integer parameter t <= t_max.

    Case I.a additionally yields its sporadic t = sqrt(5) member.  Rows with
    r = 2 carry the two-graph flag and rows outside the published tables the
    unpublished flag; nothing is silently dropped.
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"case must be one of {CASE_IDS}, got {case_id!r}")
    t_start = 2 if case_id == "II.a" else 3
    ts: list[int | str] = list(range(t_start, t_max + 1))
    if case_id == "I.a":
        ts = [SQRT5] + ts
    rows = [row for t in ts for row in _rows_for_t(case_id, t)]
    rows.sort(key=lambda row: (row.n, row.r, row.c))
    return tuple(rows)


# -- TSV emission ------------------------------------------------------------

TSV_HEADER = "n\tr\tc\tdelta\ttheta\ttau\tm_theta\tm_tau"


def rows_to_tsv(rows: Iterable[FamilyRow]) -> str:
    """Tab-separated emission; flagged rows carry a trailing flags column."""
    lines = [TSV_HEADER]
    for row in rows:
        fields = list(row.params.format_fields())
        if row.flags:
            fields.append(",".join(row.flags))
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"
