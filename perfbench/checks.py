"""Output checks.  Each returns a list of problems; an empty list means the
output is correct.  Expected values come from the closed forms in
``inputs``, from an independent floating-point check of the line systems,
or from CLI output digests recorded when the benchmark was written.
"""

from __future__ import annotations

import cmath
import hashlib
from fractions import Fraction

import numpy as np

import inputs

REJECT_TAG = "not-distance-regular"

# sha256 of the concatenated final-stage stdout of each CLI pipeline.
CLI_DIGESTS = {
    "construct-verify": "c40c7393236f4a221419a268cc069991931dad5cc288a133af86bfbb976cc240",
    "construct-verify-25": "b6d06437ad86e4e8006ccd1581ed068236418d4516007d8e8f0b0645d6bbe79b",
    "lines-roundtrip": "c40c7393236f4a221419a268cc069991931dad5cc288a133af86bfbb976cc240",
    "dcff-quotient": "dac1009039baf3572a29fc4cb9818ddf4840b0c4654b459d5d9848a7bbb620fb",
    "gh-roundtrip": "596f6d738f25230f6ca78baf46cd44c7137cb0baff04d1b20b54af5c40956b61",
    "tables": "fa9213c11b4d123c14ce1248cc097a8797ceea7ea90d5fa048a04b49d597bd7b",
}


def _fmt(x) -> str:
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    return str(x)


def certificate_lines(cert) -> tuple[str, str, str]:
    """The program's certificate rendered as the CLI's ``verify`` prints it."""
    p = cert.params
    return (
        f"DRACKN n={p.n} r={p.r} c={p.c} delta={p.delta} theta={_fmt(p.theta)} tau={_fmt(p.tau)}",
        f"SPECTRUM {cert.spectrum_str()}",
        "CHECKS " + " ".join(cert.checks_passed),
    )


def certificate(cert, rung: str) -> list[str]:
    got = certificate_lines(cert)
    want = inputs.certificate_lines(*inputs.closed_form(rung))
    return [f"{rung}: got {g!r}, want {w!r}" for g, w in zip(got, want) if g != w]


def rejection(tag, rung: str) -> list[str]:
    return [] if tag == REJECT_TAG else [f"{rung}: perturbed table gave {tag!r}, want {REJECT_TAG!r}"]


def _seidel_matrix(text: str) -> tuple[np.ndarray, int]:
    """Complex Seidel matrix of a ``SEIDEL v1`` text with prime r."""
    lines = text.splitlines()
    meta = dict(tok.split("=") for tok in lines[1].split())
    n, r = int(meta["n"]), int(meta["r"])
    zeta = [cmath.exp(2j * cmath.pi * k / r) for k in range(r)]
    s = np.array(
        [[0 if tok == "." else zeta[int(tok) % r] for tok in row.split()] for row in lines[2 : 2 + n]],
        dtype=complex,
    )
    return s, r


def lines(result, rung: str) -> list[str]:
    """Check both line sets of ``cover_to_lines`` and the rebuilt cover.

    ``result`` is (CoverLines, emitted Seidel text, rebuilt certificate).
    The tight-frame identity G^2 = (n/d) G and rank G = d are checked in
    floating point on the emitted Seidel matrix, independently of the
    program's exact arithmetic.
    """
    cl, seidel_text, rebuilt = result
    n, r, c = inputs.closed_form(rung)
    _, theta, tau, _, _ = inputs.eigen_data(n, r, c)
    field = "real" if r == 2 else "complex"
    s, root = _seidel_matrix(seidel_text)
    problems = []
    if root != r or s.shape != (n, n):
        problems.append(f"{rung}: Seidel file has n={s.shape[0]} r={root}, want n={n} r={r}")
        return problems
    for label, ls, lam in (("tau", cl.lines_tau, tau), ("theta", cl.lines_theta, theta)):
        # tau-lines span the theta eigenspace of a block, and vice versa
        d = n * (-tau) // (theta - tau) if label == "tau" else n * theta // (theta - tau)
        want = (n, d, Fraction(1, lam * lam), field)
        got = (ls.n, ls.d, ls.alpha_sq, ls.field)
        if got != want:
            problems.append(f"{rung} {label}: (n, d, alpha_sq, field) = {got}, want {want}")
        if ls.alpha_sq != Fraction(n - d, (n - 1) * d):
            problems.append(f"{rung} {label}: relative bound not attained")
        g = np.eye(n) - s / lam
        if not np.allclose(g @ g, (n / d) * g, atol=1e-9):
            problems.append(f"{rung} {label}: Gram matrix is not a tight frame")
        rank = int((np.linalg.eigvalsh(g) > 0.5).sum())
        if rank != d:
            problems.append(f"{rung} {label}: Gram rank {rank}, want {d}")
    sic = cl.lines_theta
    if rung == "ts32" and not (sic.field == "complex" and sic.d == 3 and sic.n == sic.d**2):
        problems.append("ts32: theta lines do not attain the absolute bound d^2 in C^3")
    want_lines = inputs.certificate_lines(n, r, c)
    for g_line, w_line in zip(certificate_lines(rebuilt), want_lines):
        if g_line != w_line:
            problems.append(f"{rung} rebuilt cover: got {g_line!r}, want {w_line!r}")
    return problems


def cli(pipeline: str, codes: list[int], stdout: bytes) -> list[str]:
    problems = [f"{pipeline}: exit codes {codes}"] if any(codes) else []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != CLI_DIGESTS[pipeline]:
        problems.append(f"{pipeline}: stdout sha256 {digest}, want {CLI_DIGESTS[pipeline]}")
    return problems
