"""Build and load the compiled step kernel, ``_kernel.c``, on first use.

The shared library is compiled once per source, compiler command, flags and
machine into ``$XDG_CACHE_HOME/paratime`` (``~/.cache/paratime`` when that
is unset), or into the temp directory when that cannot be written.  The file
is written under a temporary name and renamed into place, so processes that
build at the same time do not see each other's half-written files.  Without
a working compiler, or without the source file, :func:`load` returns None
and the integrators use the numpy step.

A large explicit call is split into contiguous row blocks that run at the
same time, one on the caller and the others on ``threading.Thread``s:
``ctypes`` releases the interpreter lock during the foreign call, and rows
share no state, so the output is bitwise equal for any split.  A call is
split into at most as many blocks as the process has CPUs (its affinity
mask) and rows, with at least ``MIN_WORK`` of work per block; the
one-stage Newton call is never split.
"""

from __future__ import annotations

import ctypes
import os
import platform
import tempfile
import threading
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
CC = "cc"
# Every multiply and add rounded on its own, as numpy rounds them.
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")

# The one-stage Newton solve, on every path: stop once the stage residual is
# at most NEWTON_TOL * max(1, |u|), so that large-amplitude systems are not
# asked to beat the rounding floor; fail after NEWTON_MAXITER iterations.
NEWTON_TOL = 1e-14
NEWTON_MAXITER = 50

# The system codes of ``_kernel.c``, in its order.
SYSTEMS = ("logistic", "linear", "lorenz63", "lorenz96")
# Its return codes.
OK, NONFINITE, NEWTON_FAILED, NO_MEMORY, TANGENT_NONFINITE = range(5)

# Work per block, in rows * d * (1 + m) * steps, that a split must leave;
# smaller calls run as one.  Measured on a 2-core machine with the -O3
# build: a thread start plus join costs about 150 us, and at 2 * MIN_WORK a
# Lorenz-96 call ((34, 40) over 300 RK4 steps, 408 k) takes about 4 ms on
# one block.  On 2 blocks that call ran 1.44-1.47x faster, the beta_bound
# tangent call ((65, 40, 40) over 300 steps, 32 M) 1.9x and the
# l96-solve-bound fine sweep ((64, 40) over 300 steps, 768 k) 1.3-1.5x; a
# (64, 40) call over 100 steps (256 k) gained nothing.
MIN_WORK = 200_000

_INT, _DOUBLE = ctypes.c_int, ctypes.c_double
_DOUBLES = ctypes.POINTER(_DOUBLE)
# Its entry points: argument types, all returning a code.
SIGNATURES = {
    # sys, params, d, steps, s, plan, coef, n, u, m, tangent
    "pt_explicit": (_INT, _DOUBLES, _INT, _INT, _INT, ctypes.POINTER(_INT),
                    _DOUBLES, _INT, _DOUBLES, _INT, _DOUBLES),
    # sys, params, steps, ha, hb, tol, maxiter, n, u, res
    "pt_implicit1": (_INT, _DOUBLES, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _INT,
                     _INT, _DOUBLES, _DOUBLES),
}


def _cache_dirs() -> tuple:
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return (os.path.join(base, "paratime"),
            os.path.join(tempfile.gettempdir(), "paratime"))


def _compile(path: str) -> None:
    import subprocess  # only a build needs it

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([CC, *FLAGS, "-o", tmp, str(SOURCE)],
                              stdin=subprocess.DEVNULL, capture_output=True)
        if done.returncode != 0:
            raise OSError(f"{CC} exited with {done.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def load() -> ctypes.CDLL | None:
    """The kernel library, built if needed; None if it cannot be built."""
    import hashlib  # only the first call needs it

    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    key = hashlib.sha256(b"\0".join(
        [source, CC.encode(), " ".join(FLAGS).encode(),
         platform.system().encode(), platform.machine().encode()])).hexdigest()
    name = f"_kernel-{key[:16]}.so"
    for folder in _cache_dirs():
        path = os.path.join(folder, name)
        try:
            if not os.path.exists(path):
                os.makedirs(folder, exist_ok=True)
                _compile(path)
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name, argtypes in SIGNATURES.items():
            getattr(lib, name).argtypes = argtypes
            getattr(lib, name).restype = _INT
        return lib
    return None


def cpu_count() -> int:
    """The CPUs this process may run on: the blocks a large call may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def run_blocks(call, bounds) -> list:
    """``call(lo, hi)`` for every ``(lo, hi)`` in ``bounds``, the first on the
    caller and each other on a thread of its own; their results in order.

    Every thread is joined before this returns; an exception raised in one
    is raised again here.
    """
    results = [None] * len(bounds)
    errors = []

    def work(i):
        try:
            results[i] = call(*bounds[i])
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = []
    try:
        for i in range(1, len(bounds)):
            threads.append(threading.Thread(target=work, args=(i,)))
            threads[-1].start()
        results[0] = call(*bounds[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _combine(codes) -> int:
    """One return code for a split call, the gravest first."""
    for code in (NO_MEMORY, NONFINITE, TANGENT_NONFINITE):
        if code in codes:
            return code
    return OK


def runner(kernel: tuple, coeffs: tuple, implicit: bool, steps: int):
    """A function advancing a float64 ``(..., d)`` array by ``steps`` steps.

    ``kernel`` is a system's ``(code, params)`` and ``coeffs`` a
    propagator's ``float_coeffs``; ``implicit`` selects the one-stage Newton
    step (``d == 1``).  The function returns ``(out, status, res)``: the
    advanced copy, a return code, and for the Newton step every row's last
    residual.  The explicit step also takes an optional C-contiguous float64
    tangent block of shape ``(..., d, m)``, which it advances in place, and
    splits a large batch into row blocks run on threads (see the module
    docstring).  None when the library is not available.
    """
    lib = load()
    if lib is None:
        return None
    code, params = kernel
    head = (SYSTEMS.index(code), (_DOUBLE * len(params))(*params))
    stages, weights = coeffs
    as_ptr = _DOUBLE.from_buffer

    if implicit:
        ((_, ((_, ha),)),), ((_, hb),) = coeffs
        call = partial(lib.pt_implicit1, *head, steps, ha, hb, NEWTON_TOL,
                       NEWTON_MAXITER)

        def run(u):
            out = u.copy()
            res = np.empty(out.size)
            status = call(out.size, ctypes.byref(as_ptr(out)),
                          ctypes.byref(as_ptr(res)))
            return out, status, res

        return run

    plan, coef = [], []
    for _, row in stages:
        plan.append(len(row))
        for j, a in row:
            plan.append(j)
            coef.append(a)
    plan.append(len(weights))
    for i, b in weights:
        plan.append(i)
        coef.append(b)
    plan = (_INT * len(plan))(*plan)
    coef = (_DOUBLE * len(coef))(*coef)
    call = partial(lib.pt_explicit, *head)

    def run(u, tangent=None):
        out = u.copy()
        d = out.shape[-1]
        rows = out.size // d
        m = 0 if tangent is None else tangent.shape[-1]
        work = rows * d * (1 + m) * steps
        n = (1 if work < 2 * MIN_WORK
             else min(cpu_count(), rows, work // MIN_WORK))
        if n < 2:
            g = None if tangent is None else ctypes.byref(as_ptr(tangent))
            status = call(d, steps, len(stages), plan, coef, rows,
                          ctypes.byref(as_ptr(out)), m, g)
            return out, status, None
        ptr, size = as_ptr(out), out.itemsize
        gptr = None if tangent is None else as_ptr(tangent)

        def block(lo, hi):
            g = None if gptr is None else ctypes.byref(gptr, size * lo * d * m)
            return call(d, steps, len(stages), plan, coef, hi - lo,
                        ctypes.byref(ptr, size * lo * d), m, g)

        bounds = [(rows * i // n, rows * (i + 1) // n) for i in range(n)]
        return out, _combine(run_blocks(block, bounds)), None

    return run
