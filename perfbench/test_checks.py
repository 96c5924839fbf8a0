"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The correct outputs are made with the benchmark's own integrators, so these
tests do not import the package under test.
"""

import math

import numpy as np

import checks

HEADER = ("check,weight,N,T,dT,xi,h,eps,K,converged,S,serial_work,w1,"
          "error_l2,lipschitz_final,error\n")


def sweep_row(N, T, xi, k, **override):
    row = dict(check="standard", weight="unit", N=N, T=T, dT=f"{T / N:.6g}",
               xi=xi, h="0.001", eps="1e-09", K=k, converged="true",
               S=f"{N / (k * (1 + N / xi)):.6g}", serial_work=f"{k * T / N:.6g}",
               w1="1e-10", error_l2="1e-08", lipschitz_final="", error="")
    row.update(override)
    return ",".join(str(row[c]) for c in HEADER.strip().split(",")) + "\n"


def rows_of(*lines):
    return checks.parse_sweep_csv(HEADER + "".join(lines))


def test_sweep_rows_accept_consistent_rows():
    rows = rows_of(sweep_row(64, 16, 10, 6), sweep_row(64, 32, 10, 41))
    assert checks.check_sweep_rows(rows, 2) == []
    assert checks.failed_rows(rows) == 0


def test_sweep_rows_reject_each_broken_identity():
    assert checks.check_sweep_rows(rows_of(sweep_row(64, 16, 10, 65)), 1)
    assert checks.check_sweep_rows(rows_of(sweep_row(64, 16, 10, 6, S="1.5")), 1)
    assert checks.check_sweep_rows(
        rows_of(sweep_row(64, 16, 10, 6, serial_work="1.25")), 1)
    assert checks.check_sweep_rows(
        rows_of(sweep_row(64, 16, 10, 6, converged="false")), 1)
    assert checks.check_sweep_rows(rows_of(sweep_row(64, 16, 10, 6)), 2)


def test_failed_rows_are_counted_not_judged():
    rows = rows_of(sweep_row(64, 16, 10, 6, K=0, converged="false", S="",
                             serial_work="", error="blew up"))
    assert checks.failed_rows(rows) == 1
    assert checks.check_sweep_rows(rows, 1) == []


def test_identical_rejects_a_changed_repeat():
    assert checks.check_identical(["a\n", "a\n"], "csv") == []
    assert checks.check_identical(["a\n", "a\n", "b\n"], "csv")


def test_lorenz63_walk_rejects_a_corrupted_snapshot():
    u0, h = [13.79, 12.95, 34.90], 1e-3
    walk = checks.lorenz63_rk4_walk(u0, h, [250, 500, 750, 1000])
    assert checks.check_lorenz63_walk(walk, u0, h, 1000) == []
    walk[500] = walk[500] * (1 + 1e-4)
    assert checks.check_lorenz63_walk(walk, u0, h, 1000)
    assert checks.check_lorenz63_walk(walk, u0, h, 2000)  # missing the last step


def test_logistic_walk_rejects_a_corrupted_snapshot():
    u0, h = 0.5, 1e-3
    walk = checks.logistic_ie_walk(u0, h, [500, 1000, 1500])
    assert checks.check_logistic_walk(walk, u0, h) == []
    walk[1000] += 1e-9
    assert checks.check_logistic_walk(walk, u0, h)


def test_logistic_walk_rejects_a_wrong_method():
    # Explicit Euler's walk is not implicit Euler's.
    u0, h, u = 0.5, 1e-3, 0.5
    walk = {0: u0}
    for step in range(1, 1001):
        u = u + h * u * (1 - u)
        walk[step] = u
    assert checks.check_logistic_walk(walk, u0, h)


def test_logistic_exact_solution_first_order_error():
    h = 1e-3
    walk = checks.logistic_ie_walk(0.5, h, [4000])
    err = abs(walk[4000] - checks.logistic_exact(0.5, 4.0))
    assert 0 < err < h


def lorenz96_iterate(K, N=8, steps=50, h=1e-3):
    """Interface values whose first K chunks are exact and the rest off by 1e-6."""
    rng = np.random.default_rng(3)
    ref = np.empty((N + 1, 40))
    ref[0] = 8.0 + rng.standard_normal(40)
    for n in range(N):
        ref[n + 1] = checks.lorenz96_rk4(ref[n], h, steps)
    sol = ref.copy()
    sol[K + 1:] += 1e-6
    return sol, ref


def test_k_exact_rejects_a_changed_early_value():
    sol, ref = lorenz96_iterate(K=5)
    assert checks.check_k_exact(sol, ref, 5) == []
    assert checks.check_k_exact(sol, ref, 6)
    sol[2, 0] = np.nextafter(sol[2, 0], np.inf)
    assert checks.check_k_exact(sol, ref, 5)


def test_chunk_jumps_reject_a_broken_chunk():
    _, ref = lorenz96_iterate(K=8)
    assert checks.check_chunk_jumps(ref, 1e-3, 50, 1e-9) == []
    sol, _ = lorenz96_iterate(K=5)
    assert checks.check_chunk_jumps(sol, 1e-3, 50, 1e-9)


def test_beta_rejects_inconsistent_factors():
    g, N, source = 3.0, 6, 1e-3
    transport = (g ** N - 1) / (g - 1)
    assert checks.check_beta(transport * source, transport, source, g, N) == []
    assert checks.check_beta(transport * source * 1.01, transport, source, g, N)
    assert checks.check_beta(transport * source, transport + 1, source, g, N)
    assert checks.check_beta(math.nan, transport, source, g, N)
