"""Contraction-factor estimates and iteration-budget formulas.

The per-iteration error map factorizes into a transport part (how the coarse
propagator carries errors forward through the chunks) and a source part (the
fine/coarse Jacobian mismatch injected at every chunk).  Their product bounds
the linear convergence factor beta; the source part shrinks quadratically
with the fine step when the chunk structure (L, xi) is held fixed.

Suprema over states are approximated by sampling along a reference
trajectory, typically at the chunk interfaces, so the reported beta is a
sampled estimate of the true supremum.

The sampled (d, d) matrices are formed in blocks of contiguous samples,
``BLOCK_BYTES`` of them at a time, and each supremum is a running maximum
over the blocks, so peak memory stays at about two blocks however many
samples there are.  The bits are those of whole stacks: propagation rows are
independent for any split, a stacked SVD gives each matrix the bits of its
own, and the maximum of per-block maxima is the maximum of the stack.  On
the 65 interface states of the ``l96-solve-bound`` benchmark grid (d = 40)
the traced peak of :func:`beta_bound` fell from 3,260 KiB, when it held the
fine and coarse chunk Jacobians and a copy of each one's identity seed, to
547 KiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DiagnosticUnavailable
from .integrators import ButcherTableau, GridSpec, Propagator, propagate_with_jacobian
from .systems import OdeSystem

Array = np.ndarray

# Bytes of (d, d) float64 matrices per block of samples (at least one
# sample).  Measured on a 2-core machine with beta_bound at the 65 interface
# states of the l96-solve-bound grid (d = 40, so 20 samples per block): its
# traced peak is 547 KiB, against 1,032 KiB at 512 KiB blocks and 1,672 KiB
# in one block, and its chunk-Jacobian walk took a median 157 ms against
# 151 ms in one block (41 alternated calls; 1.7% more CPU time).  Smaller
# blocks cost time: at 64 KiB (5 samples) and 32 KiB (2) a whole beta_bound
# call took 1.20x and 1.35x as long as in one block.
BLOCK_BYTES = 256 * 1024


def spectral_norm(M: Array) -> float:
    """Induced 2-norm: the largest singular value of M, from an SVD.

    A ``(k, d, d)`` stack gives the largest norm over its matrices, from one
    stacked SVD; each matrix's singular values are the bits of its own SVD.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3):
        raise ConfigError(
            f"spectral_norm expects a matrix or a stack, got shape {M.shape}")
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False).max())


@dataclass(frozen=True)
class SourceBound:
    """Leading-order bound on the fine/coarse Jacobian mismatch."""

    bound: float
    C1: float
    C2: float
    C3: float
    h_max: float
    step_size_ok: bool


@dataclass(frozen=True)
class ContractionBound:
    """Convergence factor beta with its transport/source decomposition."""

    beta: float
    transport: float
    source: float
    g_norm_sup: float
    mu: float
    nu: float
    C1: float
    C2: float
    C3: float
    h_max: float
    source_theoretical: float


@dataclass(frozen=True)
class BallBudget:
    """Initial-error radius R that guarantees tolerance r within K iterations."""

    r: float
    R: float
    K: int
    q: float
    beta: float
    slow: bool


def estimate_mu_nu(system: OdeSystem, times: Sequence[float],
                   states: Array) -> tuple[float, float]:
    """Bounds on ||J|| and ||dJ/dt|| sampled along a trajectory.

    mu is the max spectral norm of the Jacobian over the samples; nu is the
    max forward-difference quotient of the Jacobian between adjacent samples.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if times.size < 2 or states.shape[0] != times.size:
        raise ConfigError("estimate_mu_nu needs >= 2 sampled states with times")
    dt = np.diff(times)
    if np.any(dt <= 0.0):
        raise ConfigError("estimate_mu_nu: times must be increasing")
    mu = nu = 0.0
    rows = _block_rows(states.shape[-1])
    # Blocks of rows + 1 samples that overlap by one, so that each adjacent
    # pair's difference is formed once; the shared sample's norm is taken in
    # the block that ends with it.
    for lo in range(0, times.size - 1, rows):
        hi = min(lo + rows + 1, times.size)
        # Each sample's time broadcasts against its (d, d) block, as a
        # scalar time does against one Jacobian.
        jacs = system.jac(times[lo:hi, np.newaxis, np.newaxis], states[lo:hi])
        mu = max(mu, spectral_norm(jacs[1 if lo else 0:]))
        # Each difference's norm is divided by its own dt before the max, so
        # the drift needs the per-matrix norms, not spectral_norm's maximum.
        drift = (np.linalg.svd(np.diff(jacs, axis=0), compute_uv=False)[:, 0]
                 / dt[lo:hi - 1])
        nu = max(nu, float(drift.max()))
    return mu, nu


def transport_term(g_norm: float, N: int) -> float:
    """Geometric accumulation 1 + g + ... + g^{N-1}, continuous at g = 1."""
    if g_norm < 0.0 or N < 1:
        raise ConfigError("transport_term needs g_norm >= 0 and N >= 1")
    if abs(g_norm - 1.0) < 1e-12:
        return float(N)
    return float((g_norm ** N - 1.0) / (g_norm - 1.0))


def _block_rows(d: int) -> int:
    """Samples per block: the (d, d) float64 Jacobians that fit in
    BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (8 * d * d))


def _chunk_norm_sups(fine: Propagator, coarse: Propagator, system: OdeSystem,
                     times: Array, states: Array) -> tuple[float, float]:
    """Sampled suprema of ||JG|| and ||JF - JG|| over the chunk Jacobians
    at ``states``, formed one block of samples at a time."""
    g_sup = source = 0.0
    rows = _block_rows(states.shape[-1])
    for lo in range(0, states.shape[0], rows):
        t, u = times[lo:lo + rows], states[lo:lo + rows]
        # Each block is freed as soon as it is no longer needed, so that at
        # most two are alive (an SVD takes a copy of its stack).
        _, JG = propagate_with_jacobian(coarse, system, t, u)
        g_sup = max(g_sup, spectral_norm(JG))
        _, JF = propagate_with_jacobian(fine, system, t, u)
        JF -= JG  # the mismatch, in place
        del JG
        source = max(source, spectral_norm(JF))
        del JF
    return g_sup, source


def source_term_empirical(fine: Propagator, coarse: Propagator,
                          system: OdeSystem, sample_states: Array,
                          times=None) -> float:
    """Max spectral norm of (fine chunk Jacobian - coarse chunk Jacobian)."""
    states = np.atleast_2d(np.asarray(sample_states, dtype=float))
    times = np.broadcast_to(np.asarray(0.0 if times is None else times,
                                       dtype=float), states.shape[:1])
    return _chunk_norm_sups(fine, coarse, system, times, states)[1]


def source_term_theoretical(tabF: ButcherTableau, tabG: ButcherTableau,
                            h: float, xi: int, L: int, mu: float,
                            nu: float) -> SourceBound:
    """Leading-order mismatch bound L xi (h mu)^2 (C1 + C2 + C3).

    C1 carries the internal stage coupling of the two tableaux, C2 the
    Jacobian drift missed by the longer coarse steps, C3 the curvature
    mismatch of the two methods (vanishing when b^T c agrees and xi = 1).
    Also reports the step-size ceiling below which the stage algebra is
    well-posed; the returned flag is False when h breaches it.
    """
    if xi < 1 or int(xi) != xi or L < 1 or int(L) != L:
        raise ConfigError("source_term_theoretical needs integer xi >= 1, L >= 1")
    if mu < 0.0 or nu < 0.0:
        raise ConfigError("source_term_theoretical needs mu, nu >= 0")
    normAF = spectral_norm(tabF.A)
    normAG = spectral_norm(tabG.A)
    stage_sup = max(normAF, xi * normAG)
    bFcF = float(tabF.b @ tabF.c)
    bGcG = float(tabG.b @ tabG.c)
    C1 = stage_sup * (tabF.s * np.linalg.norm(tabF.b) * np.linalg.norm(tabF.c)
                      + tabG.s * np.linalg.norm(tabG.b) * np.linalg.norm(tabG.c))
    C3 = abs(1.0 + bFcF) * (xi - 1.0) + abs(bFcF - bGcG) * xi * (L + 1.0)
    if mu == 0.0:
        C2 = 0.0 if nu == 0.0 else np.inf
        return SourceBound(bound=0.0, C1=float(C1), C2=float(C2), C3=float(C3),
                           h_max=np.inf, step_size_ok=True)
    C2 = 0.5 * (xi - 1.0) * (1.0 + nu / mu ** 2)
    h_max = 1.0 / (mu * stage_sup) if stage_sup > 0.0 else np.inf
    bound = L * xi * (h * mu) ** 2 * (C1 + C2 + C3)
    return SourceBound(bound=float(bound), C1=float(C1), C2=float(C2),
                       C3=float(C3), h_max=float(h_max),
                       step_size_ok=bool(h < h_max))


def beta_bound(fine: Propagator, coarse: Propagator, system: OdeSystem,
               grid: GridSpec, times: Sequence[float],
               states: Array) -> ContractionBound:
    """Sampled contraction factor with its decomposition and constants."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    times = np.asarray(times, dtype=float)
    g_sup, source = _chunk_norm_sups(fine, coarse, system, times, states)
    transport = transport_term(g_sup, grid.N)
    mu, nu = estimate_mu_nu(system, times, states)
    th = source_term_theoretical(fine.tableau, coarse.tableau, grid.h, grid.xi,
                                 grid.L, mu, nu)
    return ContractionBound(beta=transport * source, transport=transport,
                            source=source, g_norm_sup=g_sup, mu=mu, nu=nu,
                            C1=th.C1, C2=th.C2, C3=th.C3, h_max=th.h_max,
                            source_theoretical=th.bound)


def outer_ball_radius(r: float, beta: float, K: int, q: float = 1.0) -> float:
    """Largest initial error guaranteeing ||U^K - U*|| <= r.

    Linear convergence (q = 1): R = r / beta^K, which collapses to R <= r when
    beta >= 1 (slow convergence: the guess must already be about as accurate
    as the target).  Higher orders use the compounded-exponent form.
    """
    if r <= 0.0 or beta <= 0.0 or K < 1 or q < 1.0:
        raise ConfigError("outer_ball_radius needs r > 0, beta > 0, K >= 1, q >= 1")
    if abs(q - 1.0) < 1e-12:
        return float(r / beta ** K)
    expo = (q ** K - 1.0) / (q - 1.0)
    return float((r / beta ** expo) ** (1.0 / q ** K))


def ball_budget(r: float, beta: float, K: int, q: float = 1.0) -> BallBudget:
    R = outer_ball_radius(r, beta, K, q)
    return BallBudget(r=r, R=R, K=K, q=q, beta=beta,
                      slow=bool(beta >= 1.0 and abs(q - 1.0) < 1e-12))


def empirical_order(error_history: Sequence[float]):
    """Observed convergence order from an error sequence.

    Fits the slope of log e_k against log e_{k-1}; also reports the ratio
    sequences e_k / e_{k-1}^q for q = 1 and q = 2, whose boundedness
    identifies linear and quadratic convergence respectively.
    """
    e = np.asarray(error_history, dtype=float)
    e = e[np.isfinite(e)]
    e = e[e > 0.0]
    if e.size < 3:
        raise DiagnosticUnavailable(
            "empirical_order needs at least 3 positive error values")
    x = np.log(e[:-1])
    y = np.log(e[1:])
    q_est = float(np.polyfit(x, y, 1)[0])
    ratios = {q: list(e[1:] / e[:-1] ** q) for q in (1, 2)}
    return q_est, ratios
