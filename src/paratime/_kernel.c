/* Fixed-step Runge-Kutta propagation of an (n, d) batch of states,
 * optionally carrying an (n, d, m) block of tangents, through a list of
 * stretches, each a count of steps.  Stretch j advances block j of the
 * state array in place, starting from a copy of block j - 1 (block 0 holds
 * the start states), so one call returns the state at every stretch end:
 * a chunk is a walk of one stretch, and a serial walk through N interfaces
 * is one call of N stretches.
 *
 * Each routine performs the same IEEE operations in the same order as the
 * numpy step in integrators.py, so its output is bitwise equal to it:
 * steps outer, rows inner; stage values accumulated over j in order, with
 * the zero coefficients left out; the products h*A_ij and h*b_i formed once
 * in Python (Propagator.float_coeffs) and passed in.  Every system here is
 * autonomous, so stage times are never formed.
 *
 * Bitwise equality needs every multiply and add rounded on its own:
 *
 *     cc -O3 -ffp-contract=off -fno-fast-math -falign-loops=64 -shared -fPIC
 *
 * (_kernel.py builds it so.  A fused multiply-add changes the last bit; the
 * loop alignment changes only speed.)  -O3 vectorizes the loops over d and
 * m: each vector lane does the same multiply and add, in order, as a scalar.
 * The states are checked for finite values at each stretch end.  Each entry
 * point returns PT_OK, PT_FAILED (a non-finite state or an unconverged
 * Newton solve: the call stops in that stretch, writes its index to *done
 * when done is not NULL, and Python re-runs the stretch) or PT_NO_MEMORY.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifdef __FAST_MATH__
#error "_kernel.c must be built without -ffast-math"
#endif

/* System codes; _kernel.py lists the same names in the same order. */
enum { LOGISTIC, LINEAR, LORENZ63, LORENZ96 };

/* Return codes, least to most severe; _kernel.py lists the same order. */
enum { PT_OK, PT_FAILED, PT_NO_MEMORY };

/* f = rhs(u) for one state of dimension d, as the numpy rhs evaluates it. */
static void rhs(int sys, const double *p, int d, const double *u, double *f)
{
    switch (sys) {
    case LOGISTIC:
        f[0] = u[0] * (1.0 - u[0]);
        break;
    case LINEAR:
        f[0] = p[0] * u[0];
        break;
    case LORENZ63: {
        double x = u[0], y = u[1], z = u[2];
        f[0] = p[0] * (y - x);
        f[1] = x * (p[1] - z) - y;
        f[2] = x * y - p[2] * z;
        break;
    }
    case LORENZ96: {
        /* (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F with the cyclic indices
         * unrolled at both ends: a % per element costs more than the
         * arithmetic. */
        double F = p[0];
        int i;
        f[0] = (u[1] - u[d - 2]) * u[d - 1] - u[0] + F;
        f[1] = (u[2] - u[d - 1]) * u[0] - u[1] + F;
        for (i = 2; i < d - 1; i++)
            f[i] = (u[i + 1] - u[i - 2]) * u[i - 1] - u[i] + F;
        f[d - 1] = (u[0] - u[d - 3]) * u[d - 2] - u[d - 1] + F;
        break;
    }
    }
}

/* One Lorenz-96 row of the jvp: the rhs row differentiated term by term,
 * with the cyclic neighbours ip1, im1 and im2 of row i. */
static void jvp96_row(int m, const double *u, const double *g, double *o,
                      int i, int ip1, int im1, int im2)
{
    const double *gp1 = g + (size_t)ip1 * m, *gm1 = g + (size_t)im1 * m;
    const double *gm2 = g + (size_t)im2 * m, *gi = g + (size_t)i * m;
    double *oi = o + (size_t)i * m;
    double x = u[im1], du = u[ip1] - u[im2];
    int c;

    for (c = 0; c < m; c++)
        oi[c] = (gp1[c] - gm2[c]) * x + du * gm1[c] - gi[c];
}

/* o = jvp(u, g): the derivative of rhs at u applied to the d x m block g
 * (row-major), as the numpy jvp evaluates it. */
static void jvp(int sys, const double *p, int d, int m, const double *u,
                const double *g, double *o)
{
    int i, c;

    switch (sys) {
    case LOGISTIC: {
        double a = 1.0 - 2.0 * u[0];
        for (c = 0; c < m; c++)
            o[c] = a * g[c];
        break;
    }
    case LINEAR:
        for (c = 0; c < m; c++)
            o[c] = p[0] * g[c];
        break;
    case LORENZ63: {
        double x = u[0], y = u[1], rz = p[1] - u[2];
        for (c = 0; c < m; c++) {
            double gx = g[c], gy = g[m + c], gz = g[2 * m + c];
            o[c] = p[0] * (gy - gx);
            o[m + c] = gx * rz - x * gz - gy;
            o[2 * m + c] = gx * y + x * gy - p[2] * gz;
        }
        break;
    }
    case LORENZ96:
        jvp96_row(m, u, g, o, 0, 1, d - 1, d - 2);
        jvp96_row(m, u, g, o, 1, 2, 0, d - 1);
        for (i = 2; i < d - 1; i++)
            jvp96_row(m, u, g, o, i, i + 1, i - 1, i - 2);
        jvp96_row(m, u, g, o, d - 1, 0, d - 2, d - 3);
        break;
    }
}

/* The one Jacobian entry of a d == 1 system at x. */
static double jac1(int sys, const double *p, double x)
{
    return sys == LINEAR ? p[0] : 1.0 - 2.0 * x;
}

static int finite_code(const double *u, long size)
{
    while (size-- > 0)
        if (!isfinite(u[size]))
            return PT_FAILED;
    return PT_OK;
}

/* The code of a walk that stopped after stretch j of nst: PT_OK when it
 * finished them all, else PT_FAILED with j written to *done. */
static int stretch_end(int j, int nst, int *done)
{
    if (j == nst)
        return PT_OK;
    if (done != NULL)
        *done = j;
    return PT_FAILED;
}

/* Copy block j - 1 of the n x d state array into block j, the start of
 * stretch j; block 0 already holds the start states. */
static double *stretch_start(double *u, size_t nd, int j)
{
    double *uj = u + (size_t)j * nd;
    if (j > 0)
        memcpy(uj, uj - nd, sizeof(double) * nd);
    return uj;
}

/* Walk the n rows of u (n x d, row-major) through nst stretches of
 * explicit RK steps with s stages, lengths[j] steps in stretch j, writing
 * the states at the end of stretch j to block j of u (see the header).
 * `plan` lists, per stage, the count of its nonzero h*A_ij and their j,
 * then the count of nonzero h*b_i and their i; `coef` holds the matching
 * products in the same order.  With m > 0, g holds an n x d x m tangent
 * block that is advanced alongside, in place over every stretch, each
 * stage formed with the same coefficients and its slope taken by jvp at
 * the stage state; with m == 0, g is not read. */
int pt_explicit(int sys, const double *p, int s, const int *plan,
                const double *coef, int d, int m, double *g, int nst,
                const int *lengths, int n, double *u, int *done)
{
    size_t dm = (size_t)d * m, nd = (size_t)n * d;
    double *k = malloc(sizeof(double) * (size_t)(s + 1) * (d + dm));
    double *Y = k + (size_t)s * d;
    double *kt = Y + d, *GY = kt + (size_t)s * dm;
    int j, st, r, i, e, c;
    size_t q;

    if (k == NULL)
        return PT_NO_MEMORY;
    for (j = 0; j < nst; j++) {
        double *uj = stretch_start(u, nd, j);
        for (st = 0; st < lengths[j]; st++) {
            for (r = 0; r < n; r++) {
                double *ur = uj + (size_t)r * d;
                double *gr = m > 0 ? g + (size_t)r * dm : NULL;
                const int *pl = plan;
                const double *cf = coef;
                for (i = 0; i < s; i++) {
                    const double *src = ur, *gsrc = gr;
                    int cnt = *pl++;
                    for (e = 0; e < cnt; e++) {
                        const double *kj = k + (size_t)pl[e] * d;
                        double a = cf[e];
                        for (c = 0; c < d; c++)
                            Y[c] = src[c] + a * kj[c];
                        src = Y;
                    }
                    rhs(sys, p, d, src, k + (size_t)i * d);
                    if (m > 0) {
                        for (e = 0; e < cnt; e++) {
                            const double *ktj = kt + (size_t)pl[e] * dm;
                            double a = cf[e];
                            for (q = 0; q < dm; q++)
                                GY[q] = gsrc[q] + a * ktj[q];
                            gsrc = GY;
                        }
                        jvp(sys, p, d, m, src, gsrc, kt + (size_t)i * dm);
                    }
                    pl += cnt;
                    cf += cnt;
                }
                {
                    int cnt = *pl++;
                    for (e = 0; e < cnt; e++) {
                        const double *ki = k + (size_t)pl[e] * d;
                        double hb = cf[e];
                        for (c = 0; c < d; c++)
                            ur[c] = ur[c] + hb * ki[c];
                        if (m > 0) {
                            const double *kti = kt + (size_t)pl[e] * dm;
                            for (q = 0; q < dm; q++)
                                gr[q] = gr[q] + hb * kti[q];
                        }
                    }
                }
            }
        }
        if (finite_code(uj, (long)nd) != PT_OK)
            break;
    }
    free(k);
    return stretch_end(j, nst, done);
}

/* Walk the n scalar states u through nst stretches of one-stage implicit
 * steps, lengths[j] steps in stretch j, writing block j of u as
 * pt_explicit does.  Each stage is solved by Newton's method as the numpy
 * step solves it: tolerance tol * max(1, |u|) (NaN stays NaN), residual
 * R = y - u - ha f, converged when |R| <= tolerance (so NaN never
 * converges), update y + (-R / M) with M = 1 - ha f'(y), output u + hb f.
 * A row that has not converged after maxiter iterations stops the call
 * with PT_FAILED. */
int pt_implicit1(int sys, const double *p, double ha, double hb, double tol,
                 int maxiter, int nst, const int *lengths, int n, double *u,
                 int *done)
{
    int j, st, r, it;

    for (j = 0; j < nst; j++) {
        double *uj = stretch_start(u, (size_t)n, j);
        for (st = 0; st < lengths[j]; st++) {
            for (r = 0; r < n; r++) {
                double x = uj[r], y = x, f = 0.0, R;
                double ax = fabs(x);
                double tol_eff = tol * ((isnan(ax) || ax > 1.0) ? ax : 1.0);
                for (it = 0; it < maxiter; it++) {
                    rhs(sys, p, 1, &y, &f);
                    R = y - x - ha * f;
                    if (fabs(R) <= tol_eff)
                        break;
                    y = y + -R / (1.0 - ha * jac1(sys, p, y));
                }
                if (it == maxiter)
                    return stretch_end(j, nst, done);
                uj[r] = x + hb * f;
            }
        }
        if (finite_code(uj, n) != PT_OK)
            break;
    }
    return stretch_end(j, nst, done);
}
