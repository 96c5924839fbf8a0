"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made here,
apart from the program (the benchmark's own integrators and closed forms), or
with a property the method must have (k-exactness, K <= N, the CSV
identities, byte-reproducibility).  Nothing is compared with a stored copy of
earlier output.  This module does not import the package under test.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


# -- sweep CSV -----------------------------------------------------------

def parse_sweep_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def failed_rows(rows: list[dict]) -> int:
    """Rows the program reports as numerically failed (non-empty error)."""
    return sum(1 for r in rows if r["error"])


def check_sweep_rows(rows: list[dict], expected_rows: int) -> list[str]:
    """Convergence, K <= N, and the S and serial-work identities per row.

    Rows that failed numerically are counted by :func:`failed_rows` and are
    not judged here.  S = N/(K(1+N/xi)) and serial_work = K*dT are printed to
    6 significant digits, so they are compared at 1e-5 relative.
    """
    out = []
    if len(rows) != expected_rows:
        out.append(f"sweep has {len(rows)} rows, expected {expected_rows}")
    for i, r in enumerate(rows):
        if r["error"]:
            continue
        where = f"row {i} ({r['check']}/{r['weight']}, N={r['N']}, T={r['T']})"
        N, K, xi = int(r["N"]), int(r["K"]), int(r["xi"])
        T, dT = float(r["T"]), float(r["dT"])
        if r["converged"] != "true":
            out.append(f"{where}: not converged")
        if not 1 <= K <= N:
            out.append(f"{where}: K={K} outside 1..N={N}")
            continue
        if not math.isclose(dT, T / N, rel_tol=1e-5):
            out.append(f"{where}: dT={dT} != T/N={T / N}")
        S = N / (K * (1.0 + N / xi))
        if not math.isclose(float(r["S"]), S, rel_tol=1e-5):
            out.append(f"{where}: S={r['S']} != N/(K(1+N/xi))={S:.9g}")
        work = K * T / N
        if not math.isclose(float(r["serial_work"]), work, rel_tol=1e-5):
            out.append(f"{where}: serial_work={r['serial_work']} != K*dT={work:.9g}")
    return out


def check_identical(texts: list[str], what: str) -> list[str]:
    """Every repeat of a deterministic output must match the first byte for byte."""
    return [f"{what}: repeat {i} differs from repeat 0"
            for i, t in enumerate(texts[1:], start=1) if t != texts[0]]


# -- Lorenz-63 -----------------------------------------------------------

def lorenz63_rk4_walk(u0, h: float, milestones, sigma=10.0, rho=28.0,
                      b=8.0 / 3.0) -> dict:
    """Classical RK4 on plain floats; returns {step: state} at each milestone."""
    def f(x, y, z):
        return sigma * (y - x), x * (rho - z) - y, x * y - b * z

    x, y, z = (float(v) for v in u0)
    out = {0: np.array([x, y, z])}
    step = 0
    for target in sorted(milestones):
        while step < target:
            a1, a2, a3 = f(x, y, z)
            b1, b2, b3 = f(x + 0.5 * h * a1, y + 0.5 * h * a2, z + 0.5 * h * a3)
            c1, c2, c3 = f(x + 0.5 * h * b1, y + 0.5 * h * b2, z + 0.5 * h * b3)
            d1, d2, d3 = f(x + h * c1, y + h * c2, z + h * c3)
            x += h / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            y += h / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            z += h / 6.0 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            step += 1
        out[target] = np.array([x, y, z])
    return out


# Rounding differences between two RK4 codes grow like e^{0.9 t} on the
# Lorenz-63 attractor: about 1e-16 * e^{14.4} ~ 2e-10 relative by t = 16.
# The tolerance leaves four orders of magnitude above that and still catches
# any error of the method or of the walk's bookkeeping.
L63_WALK_RTOL = 1e-6


def check_lorenz63_walk(snapshots: dict, u0, h: float, last_step: int,
                        rtol: float = L63_WALK_RTOL) -> list[str]:
    """The program's reference walk against the benchmark's own RK4, to ``last_step``."""
    steps = sorted(s for s in snapshots if 0 < s <= last_step)
    if not steps or steps[-1] != last_step:
        return [f"reference walk has no snapshot at step {last_step}"]
    own = lorenz63_rk4_walk(u0, h, steps)
    out = []
    for s in steps:
        got = np.asarray(snapshots[s], dtype=float)
        err = np.linalg.norm(got - own[s]) / np.linalg.norm(own[s])
        if not err <= rtol:
            out.append(f"lorenz63 walk at step {s}: relative difference "
                       f"{err:.3e} from own RK4 exceeds {rtol:g}")
    return out


# -- logistic ------------------------------------------------------------

def logistic_ie_walk(u0: float, h: float, milestones) -> dict:
    """Implicit Euler for u' = u(1-u) by its closed-form step.

    The step solves h y^2 + (1-h) y - u = 0 for the positive root, written
    as 2u / ((1-h) + sqrt((1-h)^2 + 4hu)) to avoid cancellation.
    """
    u = float(u0)
    out = {0: u}
    step = 0
    a = 1.0 - h
    for target in sorted(milestones):
        while step < target:
            u = 2.0 * u / (a + math.sqrt(a * a + 4.0 * h * u))
            step += 1
        out[target] = u
    return out


def logistic_exact(u0: float, t: float) -> float:
    return 1.0 / (1.0 + (1.0 / u0 - 1.0) * math.exp(-t))


# Newton stops at a residual of 1e-14 per step and the flow contracts for
# u > 1/2, so stage-solve differences stay near that level.
LOGISTIC_WALK_ATOL = 1e-11


def check_logistic_walk(snapshots: dict, u0: float, h: float,
                        atol: float = LOGISTIC_WALK_ATOL) -> list[str]:
    """The reference walk against the closed-form implicit-Euler recursion,
    and against the exact solution within implicit Euler's first-order error.

    For u' = u(1-u) started in (0, 1) the global error of implicit Euler
    stays below h * max|u''| * (growth time) < h, which is the bound used.
    """
    steps = sorted(s for s in snapshots if s > 0)
    if not steps:
        return ["reference walk has no snapshots"]
    own = logistic_ie_walk(u0, h, steps)
    out = []
    for s in steps:
        got = float(np.asarray(snapshots[s]).reshape(-1)[0])
        if not abs(got - own[s]) <= atol:
            out.append(f"logistic walk at step {s}: {got!r} differs from the "
                       f"closed-form recursion {own[s]!r} by more than {atol:g}")
        exact = logistic_exact(u0, s * h)
        if not abs(got - exact) <= h:
            out.append(f"logistic walk at step {s}: error {abs(got - exact):.3e} "
                       f"against the exact solution exceeds h={h:g}")
    return out


# -- Lorenz-96 -----------------------------------------------------------

def lorenz96_rhs(u: np.ndarray, F: float = 8.0) -> np.ndarray:
    return (np.roll(u, -1, -1) - np.roll(u, 2, -1)) * np.roll(u, 1, -1) - u + F


def lorenz96_rk4(u: np.ndarray, h: float, steps: int, F: float = 8.0) -> np.ndarray:
    """Classical RK4 over ``steps`` steps, batched over leading axes."""
    for _ in range(steps):
        k1 = lorenz96_rhs(u, F)
        k2 = lorenz96_rhs(u + 0.5 * h * k1, F)
        k3 = lorenz96_rhs(u + 0.5 * h * k2, F)
        k4 = lorenz96_rhs(u + h * k3, F)
        u = u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def check_k_exact(solution: np.ndarray, reference: np.ndarray, K: int) -> list[str]:
    """After K iterations the interface values 0..K equal the serial fine walk bit for bit."""
    a = np.ascontiguousarray(solution[:K + 1]).view(np.uint64)
    b = np.ascontiguousarray(reference[:K + 1]).view(np.uint64)
    bad = np.flatnonzero(~np.all(a == b, axis=1))
    if bad.size:
        return [f"k-exactness: interface value {int(bad[0])} of {K + 1} differs "
                f"from the serial fine reference"]
    return []


def check_chunk_jumps(solution: np.ndarray, h: float, steps_per_chunk: int,
                      eps: float, F: float = 8.0) -> list[str]:
    """Each chunk, re-integrated here from the solution's interface value,
    lands on the next interface value to within the tolerance eps (relative).
    """
    fine = lorenz96_rk4(solution[:-1], h, steps_per_chunk, F)
    jump = (np.linalg.norm(solution[1:] - fine, axis=1)
            / np.linalg.norm(solution[1:], axis=1))
    worst = int(np.argmax(jump))
    if not jump[worst] <= eps:
        return [f"chunk {worst + 1}: relative jump {jump[worst]:.3e} against "
                f"own RK4 exceeds eps={eps:g}"]
    return []


def check_beta(beta: float, transport: float, source: float, g_norm_sup: float,
               N: int) -> list[str]:
    """beta = transport * source, with transport = 1 + g + ... + g^(N-1) recomputed here."""
    own = math.fsum(g_norm_sup ** n for n in range(N))
    out = []
    if not math.isclose(transport, own, rel_tol=1e-9):
        out.append(f"transport {transport!r} != sum g^n = {own!r} (g={g_norm_sup!r}, N={N})")
    if not (math.isfinite(beta) and math.isclose(beta, own * source, rel_tol=1e-9)):
        out.append(f"beta {beta!r} != transport * source = {own * source!r}")
    return out
