/* The 1-D stepping loop of symsplit.fastpath, transliterated line for line.
 *
 * Every floating-point operation happens in the order of the Python loop
 * `fastpath._python_kernel`, so the two agree bit for bit.  That needs a
 * build without FMA contraction (-ffp-contract=off) and without
 * -ffast-math.  Arrays are C-contiguous doubles (int64 for out_iters);
 * `fastpath` checks them before passing pointers.
 *
 * state: in q, p; out q, p, fail_res, max_a, max_b.
 * counts: out fail_step, fail_iters.
 * Returns 0, 1 (the Newton solve failed) or 2 (the state became non-finite).
 */
#include <math.h>
#include <stdint.h>

static double polyval(const double *c, int64_t n, double x)
{
    double acc = 0.0;
    for (int64_t k = n - 1; k >= 0; k--)
        acc = acc * x + c[k];
    return acc;
}

int symsplit_kernel(double *state, double mval, double tau, int64_t n_steps,
                    int explicit_move, const double *vg, int64_t nvg,
                    const double *cq, int64_t nj, int64_t ncq,
                    const double *cp, int64_t ncpj, int64_t ncp,
                    const double *vpot, int64_t nvpot, double tol,
                    int64_t max_iter, double polish_floor,
                    int64_t rec_start, int64_t rec_stop, double *out_q,
                    double *out_p, double *out_h, int64_t *out_iters,
                    double *out_res, double h0, int64_t a0, int64_t a1,
                    int64_t b0, int64_t b1, double *local, int64_t *counts)
{
    double q = state[0], p = state[1];
    double max_a = 0.0, max_b = 0.0, fail_res = 0.0;
    int64_t fail_step = 0, fail_iters = 0;
    int status = 0;
    double half = 0.5 * tau;
    for (int64_t i = 1; i <= n_steps; i++) {
        p -= half * polyval(vg, nvg, q);
        if (!isfinite(p)) {
            status = 2, fail_step = i;
            break;
        }
        int64_t iters = 0;
        double res = 0.0;
        if (explicit_move) {
            q += tau * mval * p;
        } else {
            for (int64_t j = 0; j < nj; j++)
                local[j] = polyval(cq + j * ncq, ncq, q);
            double mom = p, f, fp;
            int ok = 0;
            for (;;) {
                f = 0.0;
                for (int64_t j = nj - 1; j >= 0; j--)
                    f = f * mom + local[j];
                f -= p;
                res = fabs(f);
                if (!isfinite(res))
                    break;
                if (res <= tol) {
                    ok = 1;
                    break;
                }
                if (iters >= max_iter)
                    break;
                fp = 0.0;
                for (int64_t j = nj - 1; j > 0; j--)
                    fp = fp * mom + (double)j * local[j];
                if (fp == 0.0)
                    break;
                mom -= f / fp;
                iters++;
            }
            if (!ok) {
                status = 1, fail_step = i, fail_res = res, fail_iters = iters;
                break;
            }
            /* one polish update unless already at roundoff */
            double pscale = fabs(p);
            if (pscale < 1.0)
                pscale = 1.0;
            if (res > polish_floor * pscale) {
                fp = 0.0;
                for (int64_t j = nj - 1; j > 0; j--)
                    fp = fp * mom + (double)j * local[j];
                if (fp != 0.0) {
                    double trial = mom - f / fp, f2 = 0.0;
                    for (int64_t j = nj - 1; j >= 0; j--)
                        f2 = f2 * trial + local[j];
                    f2 -= p;
                    if (isfinite(f2) && fabs(f2) < res) {
                        mom = trial;
                        res = fabs(f2);
                        iters++;
                    }
                }
            }
            double qn = 0.0;
            for (int64_t j = ncpj - 1; j >= 0; j--)
                qn = qn * mom + polyval(cp + j * ncp, ncp, q);
            q = qn;
            p = mom;
        }
        p -= half * polyval(vg, nvg, q);
        if (!(isfinite(q) && isfinite(p))) {
            status = 2, fail_step = i;
            break;
        }
        int in_a = a0 <= i && i < a1;
        int in_b = b0 <= i && i < b1;
        int in_rec = rec_start <= i && i < rec_stop;
        if (in_a || in_b || in_rec) {
            double h = 0.5 * mval * p * p + polyval(vpot, nvpot, q);
            double dev = fabs(h - h0);
            if (in_a && dev > max_a)
                max_a = dev;
            if (in_b && dev > max_b)
                max_b = dev;
            if (in_rec) {
                int64_t k = i - rec_start;
                out_q[k] = q;
                out_p[k] = p;
                out_h[k] = h;
                out_iters[k] = iters;
                out_res[k] = res;
            }
        }
    }
    state[0] = q, state[1] = p, state[2] = fail_res, state[3] = max_a, state[4] = max_b;
    counts[0] = fail_step, counts[1] = fail_iters;
    return status;
}
