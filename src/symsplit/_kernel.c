/* The compiled loops of symsplit.fastpath: three entry points.
 *
 * symsplit_kernel is the 1-D stepping loop, transliterated line for line.
 * Every floating-point operation happens in the order of the Python loop
 * `fastpath._python_kernel`, so the two agree bit for bit.  That needs a
 * build without FMA contraction (-ffp-contract=off) and without
 * -ffast-math.  Arrays are C-contiguous doubles; `fastpath` checks them
 * before passing pointers.
 *
 * Each step is half kick, implicit move, half kick: Newton solves
 * p = dG/dq(q, P) for P, then Q = dG/dP(q, P).  Newton starts at
 * P = p + (2 d1 - d2), d1 and d2 the last two steps' increments P - p
 * (both 0 at the start of a run), and from such a predicted start takes
 * one update at least.  That start saves most steps an iteration and, on
 * the quartic, the energy drift that a start at P = p leaves.  At order 2
 * the folded tables make the residual exactly P - p, so the increments
 * are 0, the solve stops at 0 iterations and Q = (tau m) P + q is the
 * drift.  H0 is the entry state's energy by the formula of every step, and
 * max_a and max_b are the largest |H - H0| over their step windows.
 *
 * Every table row is evaluated without its high zero coefficients, trimmed
 * once at entry: Horner's 0 x + c is exactly c, so the bits are those of
 * the whole row.
 *
 * rec holds one row (q, p, H, Newton iterations, residual) per recorded
 * step rec_start <= i < rec_stop, rec_start >= 0; step 0 is the entry
 * state, H0, 0 and 0.0.
 * state: in q, p; out q, p, fail_res, max_a, max_b, H0, fail_step,
 * fail_iters.
 * Returns 0, 1 (the Newton solve failed) or 2 (the state became non-finite).
 *
 * symsplit_format_rows writes a (nrows, ncols) array of doubles as CSV
 * lines, the bytes of Python's "%.17g" % x for each field, or "%d" % x
 * where int_cols[j] is non-zero.  It returns the number of bytes written,
 * or -1 if an integer column holds a value that is not finite or not
 * below 2^63 in magnitude.  `out` holds at least 25 bytes per field, the
 * longest "-d.dddddddddddddddde-308" and its separator (21 for an integer
 * column: "-9223372036854775807,").
 *
 * symsplit_cubic_roots refines the zero crossings of
 * verification.period_estimate, operation for operation as
 * `fastpath._python_cubic_roots` does.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

static double polyval(const double *c, int64_t n, double x)
{
    double acc = 0.0;
    for (int64_t k = n - 1; k >= 0; k--)
        acc = acc * x + c[k];
    return acc;
}

/* the length of c[0..n) without its high zero coefficients */
static int64_t trimmed(const double *c, int64_t n)
{
    while (n > 0 && c[n - 1] == 0.0)
        n--;
    return n;
}

/* the derivative of polyval(c, n, .) at x */
static double dpolyval(const double *c, int64_t n, double x)
{
    double acc = 0.0;
    for (int64_t k = n - 1; k > 0; k--)
        acc = acc * x + (double)k * c[k];
    return acc;
}

int symsplit_kernel(double *state, double mval, double tau, int64_t n_steps,
                    const double *vg, int64_t nvg, const double *cq, int64_t nj,
                    int64_t ncq, const double *cp, int64_t ncpj, int64_t ncp,
                    const double *vpot, int64_t nvpot, double tol,
                    int64_t max_iter, double polish_floor,
                    int64_t rec_start, int64_t rec_stop, double *rec,
                    int64_t a0, int64_t a1, int64_t b0, int64_t b1)
{
    int64_t lcq[nj], lcp[ncpj]; /* the trimmed row lengths */
    for (int64_t j = 0; j < nj; j++)
        lcq[j] = trimmed(cq + j * ncq, ncq);
    for (int64_t j = 0; j < ncpj; j++)
        lcp[j] = trimmed(cp + j * ncp, ncp);
    nvg = trimmed(vg, nvg), nvpot = trimmed(vpot, nvpot);
    double q = state[0], p = state[1];
    double h0 = 0.5 * mval * p * p + polyval(vpot, nvpot, q);
    double max_a = 0.0, max_b = 0.0, fail_res = 0.0;
    int64_t fail_step = 0, fail_iters = 0;
    int status = 0;
    double local[nj]; /* the Newton polynomial in P at this q */
    if (rec_start == 0 && rec_stop > 0)
        rec[0] = q, rec[1] = p, rec[2] = h0, rec[3] = 0.0, rec[4] = 0.0;
    double half = 0.5 * tau;
    /* the force at q, shared by the closing and the next opening half kick */
    double force = polyval(vg, nvg, q);
    double d1 = 0.0, d2 = 0.0; /* the last two increments P - p */
    for (int64_t i = 1; i <= n_steps; i++) {
        p -= half * force;
        if (!isfinite(p)) {
            status = 2, fail_step = i;
            break;
        }
        /* solve p = dG/dq(q, P) for P: Newton on a polynomial in P */
        for (int64_t j = 0; j < nj; j++)
            local[j] = polyval(cq + j * ncq, lcq[j], q);
        int64_t iters = 0;
        /* P = p + (2 d1 - d2), written so that p = -0 stays -0 when both
         * are 0 */
        double pred = d2 - 2.0 * d1, mom = p - pred, f, fp, res;
        int ok = 0;
        for (;;) {
            f = polyval(local, nj, mom) - p;
            res = fabs(f);
            if (!isfinite(res))
                break;
            /* a predicted start takes one update at least: an error below
             * tol left in P would pass on to the next prediction */
            if (res <= tol && (iters > 0 || pred == 0.0)) {
                ok = 1;
                break;
            }
            fp = dpolyval(local, nj, mom);
            if (iters >= max_iter || fp == 0.0) {
                ok = res <= tol;
                break;
            }
            mom -= f / fp;
            iters++;
        }
        if (!ok) {
            status = 1, fail_step = i, fail_res = res, fail_iters = iters;
            break;
        }
        /* one polish update unless already at roundoff */
        if (res > polish_floor * (fabs(p) < 1.0 ? 1.0 : fabs(p))) {
            fp = dpolyval(local, nj, mom);
            if (fp != 0.0) {
                double trial = mom - f / fp, f2 = polyval(local, nj, trial) - p;
                if (isfinite(f2) && fabs(f2) < res) {
                    mom = trial;
                    res = fabs(f2);
                    iters++;
                }
            }
        }
        d2 = d1, d1 = mom - p;
        /* Q = dG/dP(q, P) */
        double qn = 0.0;
        for (int64_t j = ncpj - 1; j >= 0; j--)
            qn = qn * mom + polyval(cp + j * ncp, lcp[j], q);
        q = qn;
        p = mom;
        force = polyval(vg, nvg, q);
        p -= half * force;
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
                double *row = rec + 5 * (i - rec_start);
                row[0] = q, row[1] = p, row[2] = h, row[3] = (double)iters, row[4] = res;
            }
        }
    }
    state[0] = q, state[1] = p, state[2] = fail_res, state[3] = max_a, state[4] = max_b;
    state[5] = h0, state[6] = (double)fail_step, state[7] = (double)fail_iters;
    return status;
}


/* ------------------------------------------------------------------------
 * %.17g without libm.  A finite non-zero |x| = m 2^e (m < 2^53) has
 * k = floor(log10 |x|) and 17 significant digits D = round(|x| 10^s),
 * s = 16 - k, rounded half to even.  For 0 <= s <= 32, m 5^s fits 128
 * bits (5^32 < 2^75), so D is that product shifted by e + s.  Values
 * outside those s (below about 1e-16, from 1e17 up) go to snprintf.
 */

typedef unsigned __int128 u128;

static const uint64_t E16 = 10000000000000000ULL, E17 = 100000000000000000ULL;

/* floor(n log10 2), to within one either way: scaled() corrects it */
static int log10_pow2(int n)
{
    int64_t t = (int64_t)n * 78913;
    return (int)(t >= 0 ? t >> 18 : -((-t + (1 << 18) - 1) >> 18));
}

/* floor(m 2^e 10^s) into *fl and whether round-half-even lifts it by one;
 * 0 when s is outside [0, 32], or when a k off by more than one would
 * overflow a shift.  "Lifts" is rem + (q & 1) > half: above half, or at
 * half with q odd. */
static int scaled(uint64_t m, int e, int s, const u128 *pow5, uint64_t *fl, int *up)
{
    if (s < 0 || s > 32)
        return 0;
    int sh = e + s;
    if (s <= 27 && sh < 0 && sh > -64) {
        /* the common field: 5^s < 2^64 takes one 64x64 -> 128 product, and
         * the right shift by r < 64 joins its two halves */
        u128 n = (u128)m * (uint64_t)pow5[s];
        uint64_t hi = (uint64_t)(n >> 64), lo = (uint64_t)n;
        int r = -sh;
        if (hi >> r)
            return 0;
        uint64_t q = hi << (64 - r) | lo >> r, rem = lo & ((1ULL << r) - 1);
        *fl = q;
        *up = rem + (q & 1) > 1ULL << (r - 1);
        return 1;
    }
    u128 n = (u128)m * pow5[s];
    if (sh >= 0) {
        /* |x| 10^s is an integer; only a wrong k can make it this large */
        if (sh >= 64 || n >> (64 - sh))
            return 0;
        *fl = (uint64_t)(n << sh), *up = 0;
        return 1;
    }
    if (-sh >= 128)
        return 0;
    u128 q = n >> -sh, rem = n - (q << -sh);
    if (q >> 64)
        return 0;
    *fl = (uint64_t)q;
    *up = rem + (q & 1) > (u128)1 << (-sh - 1);
    return 1;
}

static const char PAIRS[] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

/* the 8 digits of x < 10^8, as four digit pairs that do not wait on
 * each other */
static void digits8(char *dig, uint32_t x)
{
    uint32_t a = x / 10000, b = x % 10000;
    memcpy(dig, PAIRS + 2 * (a / 100), 2);
    memcpy(dig + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(dig + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(dig + 6, PAIRS + 2 * (b % 100), 2);
}

/* the 17 digits of 10^16 <= d < 10^17: the leading one, then two halves */
static void digits17(char *dig, uint64_t d)
{
    uint64_t rest = d % E16;
    dig[0] = (char)('0' + d / E16);
    digits8(dig + 1, (uint32_t)(rest / 100000000));
    digits8(dig + 9, (uint32_t)(rest % 100000000));
}

static char *put_uint(char *s, uint64_t v)
{
    char tmp[20];
    int n = 0;
    do {
        tmp[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        *s++ = tmp[--n];
    return s;
}

static char *put_g17(char *s, double x, const u128 *pow5)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int neg = (int)(bits >> 63), be = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((1ULL << 52) - 1);
    if (be == 0x7ff && m) { /* Python prints nan whatever its sign */
        memcpy(s, "nan", 3);
        return s + 3;
    }
    if (neg)
        *s++ = '-';
    if (be == 0x7ff) {
        memcpy(s, "inf", 3);
        return s + 3;
    }
    if (be == 0 && m == 0) {
        *s++ = '0';
        return s;
    }
    int e = -1074;
    if (be)
        m |= 1ULL << 52, e = be - 1075;
    /* 2^top <= |x| < 2^(top+1) */
    int k = log10_pow2(e + 63 - __builtin_clzll(m));
    uint64_t d;
    int up, ok;
    /* correct k on the floor, before rounding, until it has 17 digits */
    for (;;) {
        ok = scaled(m, e, 16 - k, pow5, &d, &up);
        if (!ok || (d >= E16 && d < E17))
            break;
        k += d < E16 ? -1 : 1;
    }
    if (!ok) {
        char tmp[32];
        int n = snprintf(tmp, sizeof tmp, "%.17g", neg ? -x : x);
        memcpy(s, tmp, (size_t)n);
        return s + n;
    }
    d += (uint64_t)up;
    if (d == E17)
        d = E16, k++;
    char dig[17];
    digits17(dig, d);
    int nd = 17;
    while (dig[nd - 1] == '0')
        nd--;
    if (k >= 0 && k < 17) {
        memcpy(s, dig, (size_t)k + 1);
        s += k + 1;
        if (nd > k + 1) {
            *s++ = '.';
            memcpy(s, dig + k + 1, (size_t)(nd - k - 1));
            s += nd - k - 1;
        }
    } else if (k >= -4 && k < 0) {
        *s++ = '0', *s++ = '.';
        for (int i = -1; i > k; i--)
            *s++ = '0';
        memcpy(s, dig, (size_t)nd);
        s += nd;
    } else {
        *s++ = dig[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, dig + 1, (size_t)nd - 1);
            s += nd - 1;
        }
        *s++ = 'e', *s++ = k < 0 ? '-' : '+';
        if (k < 0)
            k = -k;
        if (k < 10)
            *s++ = '0';
        s = put_uint(s, (uint64_t)k);
    }
    return s;
}

int64_t symsplit_format_rows(const double *rows, int64_t nrows, int64_t ncols,
                             const unsigned char *int_cols, char *out)
{
    u128 pow5[33];
    pow5[0] = 1;
    for (int i = 1; i <= 32; i++)
        pow5[i] = pow5[i - 1] * 5;
    char *s = out;
    for (int64_t i = 0; i < nrows; i++) {
        for (int64_t j = 0; j < ncols; j++) {
            double v = rows[i * ncols + j];
            if (!int_cols[j]) {
                s = put_g17(s, v, pow5);
            } else if (v > -9223372036854775808.0 && v < 9223372036854775808.0) {
                int64_t iv = (int64_t)v; /* "%d" truncates, as int() does */
                if (iv < 0)
                    *s++ = '-';
                s = put_uint(s, iv < 0 ? -(uint64_t)iv : (uint64_t)iv);
            } else {
                return -1;
            }
            *s++ = j + 1 < ncols ? ',' : '\n';
        }
    }
    return s - out;
}


/* ------------------------------------------------------------------------
 * Row i of coeffs is a cubic c0 t^3 + c1 t^2 + c2 t + c3, np.polyfit's
 * order, with a sign change on [0, widths[i]].  Bisect it 80 times,
 * evaluating it as np.polyval does (y = y t + c from y = 0), and write the
 * last bracket's midpoint to out[i].  a only moves to points of f(a)'s
 * sign, so that sign is fixed.
 */
void symsplit_cubic_roots(const double *coeffs, const double *widths, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double *c = coeffs + 4 * i;
        double a = 0.0, b = widths[i];
        int neg = (((0.0 * a + c[0]) * a + c[1]) * a + c[2]) * a + c[3] < 0;
        for (int k = 0; k < 80; k++) {
            double mid = 0.5 * (a + b);
            if (((((0.0 * mid + c[0]) * mid + c[1]) * mid + c[2]) * mid + c[3] < 0) == neg)
                a = mid;
            else
                b = mid;
        }
        out[i] = 0.5 * (a + b);
    }
}
