/* The arithmetic of PBP training and prediction that Python floats or numpy
 * would run as many small calls, on doubles: the two sequential Gamma chains
 * and the forward pass, which the likelihood update step and a rows pass
 * share.
 *
 * ep_refresh: one EP sweep over the stored prior sites of every run of a
 * stack, carrying each run's prior-precision Gamma from weight to weight.
 * noise_step: each run's likelihood log-normalisers, skip flag and noise-
 * precision Gamma moment match for one training example.
 * The moment maps (below the Gamma chains): a layer's forward pass
 * (forward_layer: its moments and, for a hidden layer, the rectifier) over n
 * input rows per run; a rows pass runs it for every layer of one work item
 * in one call (forward_rows), and the likelihood step over one row per run:
 * step_epoch folds n examples per run of a stack in sequence, each through
 * the forward pass (step_forward), noise_step, the reverse sweep
 * (step_backward) and the refinement of every weight (step_refine).
 * repr_matrix writes a matrix of doubles, each as Python's repr writes it,
 * between separators of the caller's: the rows of a prediction CSV and the
 * weight arrays of a model file. read_rows (at the end) reads the rows of a
 * numeric CSV, each cell as Python's float() reads it.
 *
 * Every expression is the one the Python floats or numpy arrays of pbp
 * evaluated before, in the same order and association, so the results are
 * the same bits: built with -ffp-contract=off (no fused multiply-add) and
 * -fno-builtin (pow, exp and log stay calls into the process's libm, which
 * Python's math module and float power also call), for this CPU
 * (-march=native), whose vector add, multiply, divide and sqrt round as the
 * scalar ones. The matmuls call numpy's BLAS as np.matmul does, log_ndtr
 * scipy's own function, and the rectifier's exp and powers numpy's own
 * ufunc loops. Where Python raised, the entry points return a negative
 * status instead (see kernel.py) and leave every buffer the caller reads as
 * it was.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum {
    ZERO_DIVISION = -1,       /* ZeroDivisionError: a float division by zero */
    OVERFLOW = -2,            /* OverflowError: a square that overflows */
    ZERO_WEIGHT_VARIANCE = -3,
    ZERO_PRIOR_VARIANCE = -4, /* at a flat prior site */
    NEGATIVE_VARIANCE = -5,   /* a negative pre-activation variance */
};

/* The fixed numbers of the moment maps, defined here alone; kernel.py reads
 * each from the library (ctypes in_dll).
 * log(2 pi), written as the repr of Python's math.log(2.0 * math.pi). */
const double LOG_2PI = 1.8378770664093453;
/* Below this pre-activation variance a rectifier input is deterministic:
 * the moment formulas divide by sqrt(v) and this is their exact limit. */
const double DETERMINISTIC_VARIANCE = 1e-30;
/* Below this standardized mean the pdf/cdf ratio takes its asymptotic
 * series, which stays accurate where the direct ratio loses precision. */
const double SERIES_THRESHOLD = -30.0;

/* Each struct kernel.py binds holds its int64s first, then its pointers,
 * which kernel.py's _layout mirrors. */

struct noise_args {
    int64_t runs;
    int64_t failed_run;    /* the run whose arithmetic failed, with a status */
    double *moments;       /* (3, R): targets, output means, output variances */
    const double *gamma;   /* (2, R): noise Gamma shapes, rates */
    double *gamma_next;    /* (2, R): the matched Gammas */
    double *log_z;         /* (3, R): log-normalisers at shape + 0, 1, 2 */
    uint8_t *skipped;      /* (R,) */
    double *targets;       /* (R,): the target, or the output mean where skipped */
};

struct refresh_args {
    int64_t runs, weights;
    int64_t failed_run;        /* the run whose arithmetic failed, with a status */
    double *means, *variances; /* (R, W) */
    double *sites;             /* (4, R, W): precision, precision x mean, shape, rate */
    double *lam;               /* (2, R): prior Gamma shapes, rates */
    int64_t *skipped;          /* (R,): sites skipped per run */
    double *change;            /* (R,): largest change per run */
    double *backup;            /* 6 R W + 2 R */
};

/* x ** 2 as Python's float power computes it: the base's sign dropped
 * before libm's pow, and an infinite result from a finite base an overflow. */
static int py_square(double x, double *out)
{
    if (isnan(x) || isinf(x)) {
        *out = isnan(x) ? x : fabs(x);
        return 0;
    }
    if (x == 0.0) {
        *out = 0.0;
        return 0;
    }
    if (x < 0.0)
        x = -x;
    if (x == 1.0) {
        *out = 1.0;
        return 0;
    }
    *out = pow(x, 2.0);
    return isinf(*out) ? OVERFLOW : 0;
}

/* exp(x) as math.exp: an infinite result from a finite argument overflows. */
static int py_exp(double x, double *out)
{
    *out = exp(x);
    return isinf(*out) && isfinite(x) ? OVERFLOW : 0;
}

enum { USABLE = 1, UNUSABLE = 0 };

/* log N(t | mu, rate/(shape+k-1) + v) for k = 0, 1, 2: the Gaussian collapse
 * of the Student's t left by marginalising a Gamma(shape, rate) precision.
 * UNUSABLE for a shape at or below 1, a negative v, a collapsed variance that
 * is not positive or a value that is not finite; OVERFLOW when the squared
 * residual overflows. */
static int log_z_triple(double t, double mu, double v, double shape, double rate, double lz[3])
{
    if (shape <= 1.0 || v < 0.0)
        return UNUSABLE;
    /* Neither divisor can be 0 once shape > 1. */
    double var0 = rate / (shape - 1.0) + v;
    double var1 = rate / (shape + 1.0 - 1.0) + v;
    double var2 = rate / (shape + 2.0 - 1.0) + v;
    if (!(var0 > 0.0 && var1 > 0.0 && var2 > 0.0))
        return UNUSABLE;
    double sq;
    if (py_square(t - mu, &sq))
        return OVERFLOW;
    lz[0] = -0.5 * (LOG_2PI + log(var0) + sq / var0);
    lz[1] = -0.5 * (LOG_2PI + log(var1) + sq / var1);
    lz[2] = -0.5 * (LOG_2PI + log(var2) + sq / var2);
    return isfinite(lz[0]) && isfinite(lz[1]) && isfinite(lz[2]) ? USABLE : UNUSABLE;
}

/* Match the first two tilted moments of a Gamma(a, b) precision under the
 * log-normalisers lz: E[x] = (Z1/Z) a/b, E[x^2] = (Z2/Z) a(a+1)/b^2. Returns
 * 1 with the matched (shape, rate) in out, 0 when the match is invalid (an
 * overflowing ratio, non-positive or non-finite parameters) and is rejected,
 * or ZERO_DIVISION. */
static int gamma_moments(double a, double b, const double lz[3], double out[2])
{
    double r_z2, r_21, r_10;
    if (py_exp(lz[0] + lz[2] - 2.0 * lz[1], &r_z2) || py_exp(lz[2] - lz[1], &r_21)
        || py_exp(lz[1] - lz[0], &r_10))
        return 0;
    if (a == 0.0 || b == 0.0)
        return ZERO_DIVISION;
    double denom_shape = r_z2 * (a + 1.0) / a - 1.0;
    double denom_rate = r_21 * (a + 1.0) / b - r_10 * a / b;
    if (denom_shape <= 0.0 || denom_rate <= 0.0)
        return 0;
    double shape_new = 1.0 / denom_shape;
    double rate_new = 1.0 / denom_rate;
    if (!(isfinite(shape_new) && isfinite(rate_new)))
        return 0;
    out[0] = shape_new;
    out[1] = rate_new;
    return 1;
}

/* Returns the number of runs whose example is skipped, or a status. */
int64_t noise_step(struct noise_args *s)
{
    const int64_t R = s->runs;
    const double *y = s->moments, *mz = y + R, *vz = y + 2 * R;
    const double *shape = s->gamma, *rate = shape + R;
    double *shape_next = s->gamma_next, *rate_next = shape_next + R;
    int64_t skips = 0;
    for (int64_t r = 0; r < R; r++) {
        double lz[3], refined[2] = {shape[r], rate[r]};
        int usable = log_z_triple(y[r], mz[r], vz[r], shape[r], rate[r], lz) == USABLE;
        if (usable) {
            /* A rejected match leaves refined as it was. */
            int status = gamma_moments(shape[r], rate[r], lz, refined);
            if (status < 0) {
                s->failed_run = r;
                return status;
            }
        }
        for (int k = 0; k < 3; k++)
            s->log_z[k * R + r] = usable ? lz[k] : NAN;
        s->skipped[r] = !usable;
        /* A zero residual keeps a skipped run's discarded gradients finite. */
        s->targets[r] = usable ? y[r] : mz[r];
        skips += !usable;
        shape_next[r] = refined[0];
        rate_next[r] = refined[1];
    }
    return skips;
}

/* One run's sweep, in place; its counts go to skipped[r] and change[r]. */
static int refresh_run(const struct refresh_args *s, int64_t r)
{
    const int64_t R = s->runs, W = s->weights, n = R * W;
    double *m = s->means + r * W, *v = s->variances + r * W;
    double *p_site = s->sites + r * W, *eta_site = p_site + n;
    double *a_site = eta_site + n, *b_site = a_site + n;
    double a = s->lam[r], b = s->lam[R + r];
    int64_t skipped = 0;
    double max_change = 0.0, max_delta = 0.0;

    for (int64_t k = 0; k < W; k++) {
        /* The cavity: the site removed in natural parameters. */
        double p = 1.0 / v[k] - p_site[k];
        double eta = m[k] / v[k] - eta_site[k];
        if (p < 0.0) {
            skipped++;
            continue;
        }
        double a_cav = a - a_site[k], b_cav = b - b_site[k];
        int gamma_ok = a_cav > 1.0 && b_cav > 0.0;
        double a_fit = gamma_ok ? a_cav : a, b_fit = gamma_ok ? b_cav : b;
        double a_new = a_fit, b_new = b_fit, m_new, v_new;
        if (a_fit - 1.0 == 0.0)
            return ZERO_DIVISION;
        double prior_var = b_fit / (a_fit - 1.0);
        if (p == 0.0) {
            /* The limit of the refinement for a flat cavity: the weight
             * collapses onto the collapsed prior keeping the natural mean
             * eta, and the Gamma stays at its cavity (all Z ratios -> 1). */
            if (prior_var == 0.0)
                return ZERO_PRIOR_VARIANCE;
            m_new = prior_var * eta;
            v_new = prior_var;
            /* A prior shape fallen to 1 or below gives no variance. */
            if (!(0.0 < v_new && v_new < INFINITY)) {
                skipped++;
                continue;
            }
        } else {
            /* The Gaussian refinement with d log Z / dm and d log Z / dv of
             * log N(m | 0, b/(a-1) + v) at the cavity (m, v). */
            double v_cav = 1.0 / p, m_cav = eta * v_cav;
            double total = prior_var + v_cav;
            if (total == 0.0)
                return ZERO_DIVISION;
            double dm = -m_cav / total;
            if (total * total == 0.0)
                return ZERO_DIVISION;
            double dv = 0.5 * (m_cav * m_cav / (total * total) - 1.0 / total);
            m_new = m_cav + v_cav * dm;
            v_new = v_cav - v_cav * v_cav * (dm * dm - 2.0 * dv);
            if (!(0.0 < v_new && v_new < INFINITY && -INFINITY < m_new && m_new < INFINITY)) {
                skipped++;
                continue;
            }
            if (gamma_ok) {
                /* The prior log-normalisers: a target m_cav against moments
                 * (0, v_cav), whose collapsed variance is total. With
                 * a_fit > 1, b_fit > 0 and 0 < v_cav < inf they are usable
                 * unless not finite, which the match would reject too. */
                double lz[3], refined[2] = {a_fit, b_fit};
                int status = log_z_triple(m_cav, 0.0, v_cav, a_fit, b_fit, lz);
                if (status == OVERFLOW)
                    return OVERFLOW;
                if (status == USABLE) {
                    status = gamma_moments(a_fit, b_fit, lz, refined);
                    if (status < 0)
                        return status;
                }
                a_new = refined[0];
                b_new = refined[1];
            }
        }
        p_site[k] = 1.0 / v_new - p;
        eta_site[k] = m_new / v_new - eta;
        /* Changes that are NaN are passed over, as the running maximum of
         * Python's max and numpy's fmax did. */
        double dm_abs = fabs(m_new - m[k]), dv_abs = fabs(v_new - v[k]);
        if (dm_abs > max_change)
            max_change = dm_abs;
        if (dv_abs > max_change)
            max_change = dv_abs;
        m[k] = m_new;
        v[k] = v_new;
        if (gamma_ok) {
            a_site[k] = a_new - a_cav;
            b_site[k] = b_new - b_cav;
            double delta = fabs(a_new - a), db = fabs(b_new - b);
            if (db > delta)
                delta = db;
            if (delta > max_delta)
                max_delta = delta;
            a = a_new;
            b = b_new;
        }
    }
    s->lam[r] = a;
    s->lam[R + r] = b;
    s->skipped[r] = skipped;
    s->change[r] = max_delta > max_change ? max_delta : max_change;
    return 0;
}

/* Returns 0, or a status with every buffer as it was before the call. */
int ep_refresh(struct refresh_args *s)
{
    const int64_t R = s->runs, n = R * s->weights;
    for (int64_t i = 0; i < n; i++)
        if (s->variances[i] == 0.0) {
            s->failed_run = i / s->weights;
            return ZERO_WEIGHT_VARIANCE;
        }
    double *saved[] = {s->means, s->variances, s->sites, s->lam};
    const int64_t sizes[] = {n, n, 4 * n, 2 * R};
    double *backup = s->backup;
    for (int i = 0; i < 4; i++) {
        memcpy(backup, saved[i], sizes[i] * sizeof(double));
        backup += sizes[i];
    }
    for (int64_t r = 0; r < R; r++) {
        int status = refresh_run(s, r);
        if (status) {
            backup = s->backup;
            for (int i = 0; i < 4; i++) {
                memcpy(saved[i], backup, sizes[i] * sizeof(double));
                backup += sizes[i];
            }
            s->failed_run = r;
            return status;
        }
    }
    return 0;
}

/* ------------------------------------------------------------ the moment maps
 *
 * Three kinds of operation take their bits from outside this file, called
 * through the pointers of struct externals, which kernel.py checks against
 * np.matmul, scipy.special.log_ndtr, np.exp and np.power: the matmuls from
 * numpy's BLAS, log_ndtr from scipy, and exp and power from numpy's own ufunc
 * loops (SIMD code that differs from libm's exp and pow on some arguments).
 * Besides, only +, -, *, /, sqrt (correctly rounded, as numpy's) and
 * comparisons happen here, each in the association of the numpy expression
 * it replaces, which the comment of each map quotes. The loops have no
 * branches (where numpy's expression has np.where, both sides are computed
 * and one selected), read their buffers through restrict locals and, where
 * gcc cannot tell that those do not overlap, carry `#pragma GCC ivdep`, so
 * that gcc vectorizes them; a vectorized IEEE operation rounds as the scalar
 * one.
 */

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

/* A one-dimensional inner loop of a numpy ufunc (PyUFuncGenericFunction):
 * args, dimensions and steps (in bytes) of its operands, and its data. */
typedef void (*ufunc_loop)(char **args, const intptr_t *dimensions, const intptr_t *steps,
                           void *data);

/* numpy's bundled OpenBLAS (ILP64: 64-bit integers), the double log_ndtr of
 * scipy.special.cython_special, and the 'd->d' loop of np.exp and the
 * 'dd->d' loop of np.power with their data. */
struct externals {
    void (*dgemv)(int order, int trans, int64_t m, int64_t n, double alpha, const double *a,
                  int64_t lda, const double *x, int64_t incx, double beta, double *y, int64_t incy);
    double (*ddot)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
    void (*dgemm)(int order, int trans_a, int trans_b, int64_t m, int64_t n, int64_t k,
                  double alpha, const double *a, int64_t lda, const double *b, int64_t ldb,
                  double beta, double *c, int64_t ldc);
    double (*log_ndtr)(double x, int skip_dispatch);
    ufunc_loop exp, power;
    void *exp_data, *power_data;
};

/* out = x @ M for each run, one row x of rows and M (rows, cols) run_stride
 * apart, cols > 1, as np.matmul computes a row times a matrix, with numpy's
 * arguments: where the row has one element numpy's own loop, which adds
 * each product to 0.0, and one gemv otherwise. */
void matvec(const struct externals *e, int64_t runs, int64_t rows, int64_t cols,
            int64_t run_stride, const double *m, const double *x, double *out)
{
    for (int64_t r = 0; r < runs; r++) {
        const double *a = m + r * run_stride, *z = x + r * rows;
        double *y = out + r * cols;
        if (rows == 1)
            for (int64_t j = 0; j < cols; j++)
                y[j] = 0.0 + z[0] * a[j];
        else
            e->dgemv(ROW_MAJOR, TRANS, rows, cols, 1.0, a, cols, z, 1, 0.0, y, 1);
    }
}

/* out = z @ M^T for each run, n rows z (n, cols) per run and M (rows, cols)
 * run_stride apart, cols > 1, as np.matmul computes it on stacked inputs,
 * with numpy's arguments: for one row and one output unit one cblas_ddot
 * added to 0.0, for one row or one output unit one gemv, and one gemm
 * otherwise. */
void forward_products(const struct externals *e, int64_t runs, int64_t n, int64_t rows,
                      int64_t cols, int64_t run_stride, const double *m, const double *z,
                      double *out)
{
    for (int64_t r = 0; r < runs; r++) {
        const double *a = m + r * run_stride, *x = z + r * n * cols;
        double *y = out + r * n * rows;
        if (n == 1 && rows == 1) {
            double sum = 0.0;
            sum += e->ddot(cols, x, 1, a, 1);
            *y = sum;
        } else if (n == 1) {
            e->dgemv(COL_MAJOR, TRANS, cols, rows, 1.0, a, cols, x, 1, 0.0, y, 1);
        } else if (rows == 1) {
            e->dgemv(COL_MAJOR, TRANS, cols, n, 1.0, x, cols, a, 1, 0.0, y, 1);
        } else {
            e->dgemm(ROW_MAJOR, NO_TRANS, TRANS, n, rows, cols, 1.0, x, cols, a, cols, 0.0, y,
                     rows);
        }
    }
}

/* out = log_ndtr(x), n values */
void log_ndtr_n(const struct externals *e, int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = e->log_ndtr(x[i], 0);
}

/* out = np.exp(x), n contiguous values, as np.exp passes them to its loop. */
void exp_n(const struct externals *e, int64_t n, const double *x, double *out)
{
    char *args[] = {(char *)x, (char *)out};
    const intptr_t dimensions[] = {n}, steps[] = {sizeof(double), sizeof(double)};
    e->exp(args, dimensions, steps, e->exp_data);
}

/* out = x ** exponent, n contiguous values: np.power with a scalar exponent,
 * which it broadcasts as an operand of stride 0. */
void power_n(const struct externals *e, int64_t n, const double *x, double exponent, double *out)
{
    char *args[] = {(char *)x, (char *)&exponent, (char *)out};
    const intptr_t dimensions[] = {n}, steps[] = {sizeof(double), 0, sizeof(double)};
    e->power(args, dimensions, steps, e->power_data);
}

/* np.maximum(x, 0.0): NaN propagates, and -0.0 gives +0.0. A select, which
 * a vectorized loop keeps branch-free. */
static inline double maximum0(double x)
{
    return x > 0.0 || isnan(x) ? x : 0.0;
}

/* out = x * x, n values */
static void square(int64_t n, const double *restrict x, double *restrict out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = x[i] * x[i];
}

/* A layer's moments from the products p of its four matmuls, (4, n), n rows
 * x units:
 * mean = (zm @ M^T) / sqrt(cols)
 * variance = (zv @ (M*M)^T + (zm*zm) @ V^T + zv @ V^T) / cols */
static void linear_moments(int64_t n, const double *p, int64_t cols, double *restrict mean,
                           double *restrict variance)
{
    const double *restrict p0 = p, *restrict p1 = p + n, *restrict p2 = p + 2 * n;
    const double *restrict p3 = p + 3 * n;
    const double sqrt_cols = __builtin_sqrt((double)cols), c = (double)cols;
    for (int64_t i = 0; i < n; i++) {
        mean[i] = p0[i] / sqrt_cols;
        variance[i] = (p1[i] + p2[i] + p3[i]) / c;
    }
}

/* The rectifier max(0, x), x ~ N(m, v), per unit, in three parts around
 * log_ndtr of (alpha, -alpha) and exp of (log_cdf, log_cdf_neg, log_pdf,
 * log_ratio), which run on adjacent rows of one buffer (see rectify). Each
 * part computes both branches of every unit and selects, so that its loop
 * has no branch and vectorizes; the branch flags are double masks, 1.0 where
 * the unit takes the branch and 0.0 elsewhere, beside the other doubles. */
enum {
    ALPHA, NEG_ALPHA,
    LOG_CDF, LOG_CDF_NEG, LOG_PDF, LOG_RATIO,
    CDF, CDF_NEG, PDF, RATIO,
    SQRT_V, V_SAFE, VPRIME, MEAN_POS, ALPHA_S,
    /* alpha_s ** 3, ** -2 and ** -4 of every unit: of alpha for the units
     * that take the series, exactly -1.0, 1.0 and 1.0 (the powers of -1.0)
     * for the others */
    CUBE, INV_SQUARE, INV_FOURTH,
    DETERMINISTIC, SERIES, /* the masks */
    RELU_ROWS
};

struct relu_args {
    int64_t rows, units, out_stride; /* out_stride: doubles between rows of out_m, out_v */
    int64_t n_deterministic, n_series;
    const double *m, *v;             /* (rows, units) pre-activation moments */
    /* RELU_ROWS rows of rows x units, in the order above: row k at buf + k *
     * rows * units, so that one buffer serves calls of up to as many rows as
     * it was made for */
    double *buf;
    double *out_m, *out_v;
};

/* det = v < DETERMINISTIC_VARIANCE; v_safe = where(det, 1.0, v);
 * sqrt_v = sqrt(v_safe); alpha = m / sqrt_v;
 * log_pdf = -0.5 * (alpha * alpha + LOG_2PI); series = alpha <
 * SERIES_THRESHOLD; alpha_s = where(series, alpha, -1.0); the powers of -1.0
 * in cube, inv_square and inv_fourth; and the two counts.
 * NEGATIVE_VARIANCE, before any write, where some v < 0 (a NaN is not). */
static int relu_pre(struct relu_args *s)
{
    const int64_t n = s->rows * s->units;
    const double *restrict m = s->m, *restrict v = s->v;
    int64_t negative = 0;
    for (int64_t i = 0; i < n; i++)
        negative += v[i] < 0.0;
    if (negative)
        return NEGATIVE_VARIANCE;
    double *buf = s->buf;
    double *restrict alpha = buf + ALPHA * n, *restrict neg_alpha = buf + NEG_ALPHA * n;
    double *restrict log_pdf = buf + LOG_PDF * n, *restrict alpha_s = buf + ALPHA_S * n;
    double *restrict sqrt_v = buf + SQRT_V * n, *restrict v_safe = buf + V_SAFE * n;
    double *restrict cube = buf + CUBE * n, *restrict inv_square = buf + INV_SQUARE * n;
    double *restrict inv_fourth = buf + INV_FOURTH * n;
    double *restrict deterministic = buf + DETERMINISTIC * n;
    double *restrict series = buf + SERIES * n;
    #pragma GCC ivdep
    for (int64_t i = 0; i < n; i++) {
        int det = v[i] < DETERMINISTIC_VARIANCE;
        double safe = det ? 1.0 : v[i];
        double root = __builtin_sqrt(safe);
        double a = m[i] / root;
        int tail = a < SERIES_THRESHOLD;
        v_safe[i] = safe;
        sqrt_v[i] = root;
        alpha[i] = a;
        neg_alpha[i] = -a;
        log_pdf[i] = -0.5 * (a * a + LOG_2PI);
        alpha_s[i] = tail ? a : -1.0; /* keeps the unused branch finite */
        cube[i] = -1.0;
        inv_square[i] = 1.0;
        inv_fourth[i] = 1.0;
        deterministic[i] = det ? 1.0 : 0.0;
        series[i] = tail ? 1.0 : 0.0;
    }
    int64_t n_det = 0, n_series = 0;
    for (int64_t i = 0; i < n; i++) {
        n_det += deterministic[i] != 0.0;
        n_series += series[i] != 0.0;
    }
    s->n_deterministic = n_det;
    s->n_series = n_series;
    return 0;
}

/* log_ratio = log_pdf - log_cdf */
static void relu_mid(const struct relu_args *s)
{
    const int64_t n = s->rows * s->units;
    double *buf = s->buf;
    const double *restrict log_pdf = buf + LOG_PDF * n, *restrict log_cdf = buf + LOG_CDF * n;
    double *restrict log_ratio = buf + LOG_RATIO * n;
    for (int64_t i = 0; i < n; i++)
        log_ratio[i] = log_pdf[i] - log_cdf[i];
}

/* alpha_s ** 3, ** -2 and ** -4 of the units that take the series, through
 * numpy's power loop on those alone: gathered into vprime and raised into
 * mean_pos (rows that relu_post writes afterwards), then scattered. */
static void series_powers(const struct externals *e, const struct relu_args *s)
{
    const int64_t n = s->rows * s->units;
    double *buf = s->buf;
    const double *series = buf + SERIES * n, *alpha_s = buf + ALPHA_S * n;
    double *gathered = buf + VPRIME * n, *raised = buf + MEAN_POS * n;
    double *powers[] = {buf + CUBE * n, buf + INV_SQUARE * n, buf + INV_FOURTH * n};
    const double exponents[] = {3.0, -2.0, -4.0};
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++)
        if (series[i] != 0.0)
            gathered[k++] = alpha_s[i];
    for (int p = 0; p < 3; p++) {
        power_n(e, k, gathered, exponents[p], raised);
        for (int64_t i = 0, j = 0; i < n; i++)
            if (series[i] != 0.0)
                powers[p][i] = raised[j++];
    }
}

/* ratio = where(series, -alpha_s - 1.0 / alpha_s + 2.0 / alpha_s**3, ratio)
 * vprime = m + sqrt_v * ratio; mean_pos = cdf * vprime
 * out_v = maximum(mean_pos * vprime * cdf_neg + cdf * v_safe * (1.0 - ratio * (ratio + alpha)), 0.0)
 * and where det: out_m = maximum(m, 0.0), out_v = 0.0. */
static void relu_post(const struct relu_args *s)
{
    const int64_t units = s->units, n = s->rows * units;
    for (int64_t r = 0; r < s->rows; r++) {
        const int64_t b = r * units, o = r * s->out_stride;
        double *row = s->buf + b; /* row r of buffer row 0 */
        const double *restrict m = s->m + b, *restrict alpha = row + ALPHA * n;
        const double *restrict alpha_s = row + ALPHA_S * n, *restrict cube = row + CUBE * n;
        const double *restrict cdf = row + CDF * n, *restrict cdf_neg = row + CDF_NEG * n;
        const double *restrict sqrt_v = row + SQRT_V * n, *restrict v_safe = row + V_SAFE * n;
        const double *restrict deterministic = row + DETERMINISTIC * n;
        const double *restrict series = row + SERIES * n;
        double *restrict ratio = row + RATIO * n, *restrict vprime = row + VPRIME * n;
        double *restrict mean_pos = row + MEAN_POS * n;
        double *restrict out_m = s->out_m + o, *restrict out_v = s->out_v + o;
        #pragma GCC ivdep
        for (int64_t j = 0; j < units; j++) {
            double tail = -alpha_s[j] - 1.0 / alpha_s[j] + 2.0 / cube[j];
            double g = series[j] != 0.0 ? tail : ratio[j];
            double vp = m[j] + sqrt_v[j] * g;
            double mp = cdf[j] * vp;
            double mean_vprime = mp * vp;
            double cdf_v = cdf[j] * v_safe[j];
            double u = 1.0 - g * (g + alpha[j]);
            double variance = maximum0(mean_vprime * cdf_neg[j] + cdf_v * u);
            int det = deterministic[j] != 0.0;
            ratio[j] = g;
            vprime[j] = vp;
            mean_pos[j] = mp;
            out_m[j] = det ? maximum0(m[j]) : mp;
            out_v[j] = det ? 0.0 : variance;
        }
    }
}

/* The whole rectifier of s: relu_pre; log_ndtr; relu_mid; where some unit
 * takes the series, series_powers (alpha_s ** 3 for relu_post and ** -2 and
 * ** -4 for relu_backward); exp; relu_post. Returns 0 or NEGATIVE_VARIANCE. */
int rectify(const struct externals *e, struct relu_args *s)
{
    int status = relu_pre(s);
    if (status)
        return status;
    const int64_t n = s->rows * s->units;
    double *buf = s->buf;
    /* (alpha, -alpha) and (log_cdf, log_cdf_neg) are adjacent rows, and so
     * are the four from log_cdf and the four from cdf. */
    log_ndtr_n(e, 2 * n, buf + ALPHA * n, buf + LOG_CDF * n);
    relu_mid(s);
    if (s->n_series)
        series_powers(e, s);
    exp_n(e, 4 * n, buf + LOG_CDF * n, buf + CDF * n);
    relu_post(s);
    return 0;
}

/* The gradients of log Z w.r.t. the rectifier's input moments (dma, dva,
 * (rows, units)) from those w.r.t. its output moments (dmb, dvb, whose rows
 * are in_stride doubles apart), both branches of every unit and a select. */
static void relu_backward(const struct relu_args *f, int64_t in_stride, const double *dmb_in,
                          const double *dvb_in, double *dma_out, double *dva_out)
{
    const int64_t units = f->units, n = f->rows * units;
    for (int64_t r = 0; r < f->rows; r++) {
        const int64_t b = r * units, k = r * in_stride;
        const double *row = f->buf + b; /* row r of buffer row 0 */
        const double *restrict m = f->m + b, *restrict v_safe = row + V_SAFE * n;
        const double *restrict sqrt_v = row + SQRT_V * n, *restrict alpha = row + ALPHA * n;
        const double *restrict ratio = row + RATIO * n, *restrict cdf = row + CDF * n;
        const double *restrict cdf_neg = row + CDF_NEG * n, *restrict pdf = row + PDF * n;
        const double *restrict vprime = row + VPRIME * n, *restrict mean_pos = row + MEAN_POS * n;
        const double *restrict inv_square = row + INV_SQUARE * n;
        const double *restrict inv_fourth = row + INV_FOURTH * n;
        const double *restrict deterministic = row + DETERMINISTIC * n;
        const double *restrict series = row + SERIES * n;
        const double *restrict dmb_row = dmb_in + k, *restrict dvb_row = dvb_in + k;
        double *restrict dma = dma_out + b, *restrict dva = dva_out + b;
        #pragma GCC ivdep
        for (int64_t j = 0; j < units; j++) {
            double vs = v_safe[j], sq = sqrt_v[j], a = alpha[j], g = ratio[j];
            double vp = vprime[j], mb = mean_pos[j], dmb = dmb_row[j], dvb = dvb_row[j];
            double ratio_alpha = g + a;
            /* dg_dalpha = -g * (ratio + alpha), or in the series branch
             * -1.0 + alpha_s**-2 - 6.0 * alpha_s**-4 */
            double dg = series[j] != 0.0 ? -1.0 + inv_square[j] - 6.0 * inv_fourth[j]
                                         : -g * ratio_alpha;
            double dalpha_dm = 1.0 / sq;
            double dalpha_dv = -a / (2.0 * vs);
            double ds_dv = 1.0 / (2.0 * sq);
            double dvp_dm = 1.0 + dg;
            double dvp_dv = ds_dv * g + sq * dg * dalpha_dv;
            double dcdf_dm = pdf[j] * dalpha_dm;
            double dcdf_dv = pdf[j] * dalpha_dv;
            double dmb_dm = dcdf_dm * vp + cdf[j] * dvp_dm;
            double dmb_dv = dcdf_dv * vp + cdf[j] * dvp_dv;
            double u = 1.0 - g * ratio_alpha;
            double du_dalpha = -dg * (2.0 * g + a) - g;
            /* vb = mb * vp * Phi(-alpha) + Phi(alpha) * v * u */
            double mb_vp_pdf = mb * vp * pdf[j];
            double cdf_v_du = cdf[j] * vs * du_dalpha;
            double dvb_dm = dmb_dm * vp * cdf_neg[j] + mb * dvp_dm * cdf_neg[j]
                            - mb_vp_pdf * dalpha_dm + dcdf_dm * vs * u + cdf_v_du * dalpha_dm;
            double dvb_dv = dmb_dv * vp * cdf_neg[j] + mb * dvp_dv * cdf_neg[j]
                            - mb_vp_pdf * dalpha_dv + dcdf_dv * vs * u + cdf[j] * u
                            + cdf_v_du * dalpha_dv;
            /* A deterministic unit: mb = max(0, m), vb = 0, so
             * dma = dmb * (m > 0.0) and dva = 0.0. */
            int det = deterministic[j] != 0.0;
            dma[j] = det ? dmb * (m[j] > 0.0 ? 1.0 : 0.0) : dmb * dmb_dm + dvb * dvb_dm;
            dva[j] = det ? 0.0 : dmb * dmb_dv + dvb * dvb_dv;
        }
    }
}

/* ---------------------------------------------- the forward pass and the step
 *
 * The forward pass of n input rows per run through a stack's layers
 * (forward_layer), which a rows pass runs for every layer of one work item
 * in one call (forward_rows). A step over one input row per run:
 * step_forward, noise_step (above), step_backward and step_refine, and
 * step_epoch runs n steps in sequence. Each phase is an entry point of its
 * own too, through which the tests run a step one phase at a time. */

/* One layer, (rows, cols) weights per run from offset on in the flat (R, W)
 * buffers of the stack, and the buffers of its pass, n rows per run (one
 * for a step); the backward pass's are a step's alone. */
struct step_layer {
    int64_t rows, cols, offset;
    double *zm, *zv;         /* (R, n, cols): the bias-extended input moments */
    double *scratch;         /* zm * zm, then (4, R, n, rows) the products of its moments */
    double *mean, *variance; /* (R, n, rows): the pre-activation moments */
    struct relu_args *relu;  /* the rectifier of mean, variance; NULL for the output layer */
    double *dma, *dva;       /* (R, rows): d log Z / d(mean, variance) */
    double *operand;         /* (R, rows, cols): M*M + V; NULL for the input layer */
    double *back;            /* (3, R, cols): dma @ M, dva @ V, dva @ (M*M + V) */
    double *dmz, *dvz;       /* (R, cols): d log Z / d(zm, zv) */
};

struct step_args {
    int64_t runs, weights, n_layers;
    struct step_layer *layers;
    const struct externals *externals;
    double *means, *variances, *means_sq, *d_means, *d_variances; /* (R, W) */
    double *gamma;              /* (2, R): the stack's noise Gamma shapes, rates */
    /* The noise step, whose output moments are the output layer's mean and
     * variance: its targets of the gradients, skip flags and matched Gammas. */
    struct noise_args *noise;
    int64_t *undo, *updates;    /* (R,) */
    /* NULL, or n_layers + 2 nanosecond totals: each layer's forward pass,
     * then step_backward and step_refine. */
    int64_t *phase_ns;
};

static int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* Whether the input layer's products zv @ (M*M)^T and zv @ V^T, its zv all
 * +0.0, are +0.0 without the matmuls: where every M*M is finite and every V
 * positive and finite, n weights per run over the runs, every term is +0.0.
 * Elsewhere a term is NaN (0 * inf, 0 * NaN) or may be -0.0 (0 * -V). */
static int zero_input_products(int64_t runs, int64_t n, int64_t stride, const double *m_sq,
                               const double *v)
{
    int64_t finite = 0;
    for (int64_t r = 0; r < runs; r++)
        for (int64_t i = r * stride; i < r * stride + n; i++)
            finite += (m_sq[i] < INFINITY) & (v[i] > 0.0) & (v[i] < INFINITY);
    return finite == runs * n;
}

/* Layer l's forward pass of n rows per run: the layer's moments and, for a
 * hidden layer, its rectifier, whose output moments are the next layer's
 * inputs. Returns 0 or NEGATIVE_VARIANCE. */
static int forward_layer(const struct step_args *s, int64_t l, int64_t n)
{
    int64_t start = s->phase_ns ? now_ns() : 0;
    const struct step_layer *L = s->layers + l;
    const int64_t R = s->runs, W = s->weights, rows = L->rows, cols = L->cols, k = R * n * rows;
    const double *m = s->means + L->offset, *v = s->variances + L->offset;
    double *m_sq = s->means_sq + L->offset, *zm_sq = L->scratch, *p = zm_sq + R * n * cols;
    const struct externals *e = s->externals;
    for (int64_t r = 0; r < R; r++)
        square(rows * cols, m + r * W, m_sq + r * W);
    square(R * n * cols, L->zm, zm_sq);
    const int zero_zv = l == 0 && zero_input_products(R, rows * cols, W, m_sq, v);
    forward_products(e, R, n, rows, cols, W, m, L->zm, p);
    if (zero_zv)
        memset(p + k, 0, k * sizeof(double));
    else
        forward_products(e, R, n, rows, cols, W, m_sq, L->zv, p + k);
    forward_products(e, R, n, rows, cols, W, v, zm_sq, p + 2 * k);
    if (zero_zv)
        memset(p + 3 * k, 0, k * sizeof(double));
    else
        forward_products(e, R, n, rows, cols, W, v, L->zv, p + 3 * k);
    linear_moments(k, p, cols, L->mean, L->variance);
    int status = 0;
    if (L->relu) {
        L->relu->rows = R * n;
        status = rectify(e, L->relu);
    }
    if (s->phase_ns)
        s->phase_ns[l] += now_ns() - start;
    return status;
}

/* A work item of a rows pass: rows [row, row + rows) of runs [run, run +
 * runs) of the inputs x, through every layer. */
struct rows_args {
    int64_t n;                       /* rows per run of x */
    const double *x;                 /* (R, n, d), d = layers[0].cols - 1 */
    double *out_mean, *out_variance; /* (R, n): the output moments */
};

/* s is bound to a stack's means and variances, and to buffers for at least
 * the item's rows over all its runs; its runs field is not read. Returns 0
 * or NEGATIVE_VARIANCE, having written no output. */
int forward_rows(const struct step_args *s, const struct rows_args *a, int64_t run, int64_t runs,
                 int64_t row, int64_t rows)
{
    struct step_args item = *s;
    const int64_t W = s->weights, cols = s->layers[0].cols, d = cols - 1;
    const struct step_layer *out = s->layers + s->n_layers - 1;
    if (runs * rows == 0)
        return 0;
    item.runs = runs;
    item.means += run * W;
    item.variances += run * W;
    for (int64_t r = 0; r < runs; r++)
        for (int64_t i = 0; i < rows; i++)
            memcpy(s->layers[0].zm + (r * rows + i) * cols, a->x + ((run + r) * a->n + row + i) * d,
                   d * sizeof(double));
    for (int64_t l = 0; l < s->n_layers; l++) {
        int status = forward_layer(&item, l, rows);
        if (status)
            return status;
    }
    for (int64_t r = 0; r < runs; r++)
        for (int64_t i = 0; i < rows; i++) {
            const int64_t j = (run + r) * a->n + row + i, k = (r * rows + i) * out->rows;
            a->out_mean[j] = out->mean[k];
            a->out_variance[j] = out->variance[k];
        }
    return 0;
}

/* The forward pass of the inputs in the input layer's unit slots, layer
 * after layer, one row per run, which leaves the output moments in the noise
 * step's. Returns 0 or NEGATIVE_VARIANCE. */
int step_forward(const struct step_args *s)
{
    for (int64_t l = 0; l < s->n_layers; l++) {
        int status = forward_layer(s, l, 1);
        if (status)
            return status;
    }
    return 0;
}

/* The reverse sweep through layer L's moments (see linear_moments), c its
 * columns, one input row per run: the weight gradients
 * dM = dma_col * mz * inv_s + 2.0 * inv_c * M * (dva_col * vz)
 * dV = inv_c * (dva_col * (mz * mz + vz))
 * and, for a layer with inputs, the operand M*M + V and then the input
 * gradients
 * dmz = inv_s * (dma @ M) + 2.0 * inv_c * mz * (dva @ V)
 * dvz = inv_c * (dva @ (M*M + V)) */
static void linear_backward(const struct step_args *s, const struct step_layer *L)
{
    const int64_t R = s->runs, rows = L->rows, cols = L->cols, W = s->weights;
    const double inv_c = 1.0 / (double)cols, inv_s = 1.0 / __builtin_sqrt((double)cols);
    const double two_inv_c = 2.0 * inv_c;
    for (int64_t r = 0; r < R; r++) {
        const double *restrict zm = L->zm + r * cols, *restrict zv = L->zv + r * cols;
        for (int64_t i = 0; i < rows; i++) {
            const int64_t w = L->offset + r * W + i * cols;
            const double dma = L->dma[r * rows + i], dva = L->dva[r * rows + i];
            const double *restrict m = s->means + w;
            double *restrict dm = s->d_means + w, *restrict dv = s->d_variances + w;
            for (int64_t j = 0; j < cols; j++) {
                dm[j] = dma * zm[j] * inv_s + two_inv_c * m[j] * (dva * zv[j]);
                dv[j] = inv_c * (dva * (zm[j] * zm[j] + zv[j]));
            }
            if (L->operand) {
                const double *restrict m_sq = s->means_sq + w, *restrict v = s->variances + w;
                double *restrict operand = L->operand + (r * rows + i) * cols;
                for (int64_t j = 0; j < cols; j++)
                    operand[j] = m_sq[j] + v[j];
            }
        }
    }
    if (!L->operand)
        return;
    const int64_t n = R * cols;
    double *restrict p_m = L->back, *restrict p_v = p_m + n, *restrict p_op = p_v + n;
    matvec(s->externals, R, rows, cols, W, s->means + L->offset, L->dma, p_m);
    matvec(s->externals, R, rows, cols, W, s->variances + L->offset, L->dva, p_v);
    matvec(s->externals, R, rows, cols, rows * cols, L->operand, L->dva, p_op);
    const double *restrict zm = L->zm;
    double *restrict dmz = L->dmz, *restrict dvz = L->dvz;
    for (int64_t k = 0; k < n; k++) {
        dmz[k] = inv_s * p_m[k] + two_inv_c * zm[k] * p_v[k];
        dvz[k] = inv_c * p_op[k];
    }
}

/* The gradients of log Z w.r.t. every weight mean and variance, seeded with
 * those w.r.t. each run's output moments:
 * total = rate / (shape - 1.0) + variance; diff = target - mean
 * dma = diff / total; dva = 0.5 * (diff * diff / (total * total) - 1.0 / total) */
void step_backward(const struct step_args *s)
{
    int64_t start = s->phase_ns ? now_ns() : 0;
    const int64_t R = s->runs, last = s->n_layers - 1;
    const struct step_layer *out = s->layers + last;
    for (int64_t r = 0; r < R; r++) {
        double total = s->gamma[R + r] / (s->gamma[r] - 1.0) + out->variance[r];
        double diff = s->noise->targets[r] - out->mean[r];
        out->dma[r] = diff / total;
        out->dva[r] = 0.5 * (diff * diff / (total * total) - 1.0 / total);
    }
    for (int64_t l = last; l >= 0; l--) {
        const struct step_layer *L = s->layers + l;
        linear_backward(s, L);
        /* The input gradients without the bias slot, whose moments are
         * constants. */
        if (l > 0)
            relu_backward(L[-1].relu, L->cols, L->dmz, L->dvz, L[-1].dma, L[-1].dva);
    }
    if (s->phase_ns)
        s->phase_ns[s->n_layers] += now_ns() - start;
}

/* The Gaussian refinement of every weight of every run that keeps its
 * example, in place: m_new = m + v * dM, v_new = v - v * v * (dM * dM -
 * 2.0 * dV), kept where v_new is positive and both are finite and counted
 * in undo otherwise (a select, which keeps the loop vectorized); a skipped
 * run keeps its weights (undo and updates 0).
 * Then the noise Gammas take the matched ones. */
void step_refine(const struct step_args *s)
{
    int64_t start = s->phase_ns ? now_ns() : 0;
    const int64_t W = s->weights;
    for (int64_t r = 0; r < s->runs; r++) {
        int64_t undo = 0;
        if (!s->noise->skipped[r]) {
            double *restrict m = s->means + r * W, *restrict v = s->variances + r * W;
            const double *restrict dm = s->d_means + r * W, *restrict dv = s->d_variances + r * W;
            for (int64_t w = 0; w < W; w++) {
                double m_new = m[w] + v[w] * dm[w];
                double v_new = v[w] - v[w] * v[w] * (dm[w] * dm[w] - 2.0 * dv[w]);
                int ok = v_new > 0.0 && isfinite(v_new) && isfinite(m_new);
                m[w] = ok ? m_new : m[w];
                v[w] = ok ? v_new : v[w];
                undo += 1 - ok;
            }
        }
        s->undo[r] = undo;
        s->updates[r] = s->noise->skipped[r] ? 0 : W;
    }
    memcpy(s->gamma, s->noise->gamma_next, 2 * s->runs * sizeof(double));
    if (s->phase_ns)
        s->phase_ns[s->n_layers + 1] += now_ns() - start;
}

/* n examples per run of a stack, in sequence, each one step: the inputs
 * xs[t] in the input layer's unit slots and the targets ys[t] in the noise
 * step's; step_forward; noise_step; and, unless every run skips the
 * example, step_backward and step_refine. */
struct epoch_args {
    int64_t n;
    int64_t failed_run;                /* the run whose noise step failed, with a status */
    const double *xs, *ys;             /* (n, R, d), (n, R); d = layers[0].cols - 1 */
    int64_t *skipped, *undo, *updates; /* (R,): each run's sums over the examples */
};

/* Returns 0 or the status of the first example that fails, after the
 * examples before it. */
int step_epoch(const struct step_args *s, struct epoch_args *e)
{
    const int64_t R = s->runs, cols = s->layers[0].cols, d = cols - 1;
    double *x = s->layers[0].zm, *y = s->noise->moments;
    for (int64_t r = 0; r < R; r++)
        e->skipped[r] = e->undo[r] = e->updates[r] = 0;
    for (int64_t t = 0; t < e->n; t++) {
        for (int64_t r = 0; r < R; r++)
            memcpy(x + r * cols, e->xs + (t * R + r) * d, d * sizeof(double));
        memcpy(y, e->ys + t * R, R * sizeof(double));
        int status = step_forward(s);
        if (status)
            return status;
        int64_t skips = noise_step(s->noise);
        if (skips < 0) {
            e->failed_run = s->noise->failed_run;
            return (int)skips;
        }
        for (int64_t r = 0; r < R; r++)
            e->skipped[r] += s->noise->skipped[r];
        if (skips == R)
            continue;
        step_backward(s);
        step_refine(s);
        for (int64_t r = 0; r < R; r++) {
            e->undo[r] += s->undo[r];
            e->updates[r] += s->updates[r];
        }
    }
    return 0;
}

/* Python's repr of a double, written by Ryu's shortest round-trip conversion
 * (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018): the fewest
 * decimal digits that read back as the double, the closest to it among
 * them, ties to even, which are the digits of CPython's dtoa in mode 0.
 *
 * pow5 holds the two tables of 128-bit multipliers, low word first, that
 * kernel.py builds from exact integers: POW5_COUNT entries floor(5^i /
 * 2^(len(5^i) - 125)), then 342 entries floor(2^(len(5^i) + 124) / 5^i) + 1,
 * len the bit length. */
enum { POW5_COUNT = 326, POW5_BITS = 125 };

/* ceil(log2(5^e)) for 1 <= e <= 3528, and 1 for e = 0. */
static inline int32_t pow5_bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }
/* floor(log10(2^e)) and floor(log10(5^e)), for 0 <= e <= 1650. */
static inline uint32_t log10_pow2(int32_t e) { return ((uint32_t)e * 78913) >> 18; }
static inline uint32_t log10_pow5(int32_t e) { return ((uint32_t)e * 732923) >> 20; }

static inline int multiple_of_pow5(uint64_t value, uint32_t p)
{
    uint32_t count = 0;
    for (; value % 5 == 0; value /= 5)
        count++;
    return count >= p;
}

/* (m * mul) >> j of a 128-bit mul, for 64 <= j < 128. */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    unsigned __int128 low = (unsigned __int128)m * mul[0], high = (unsigned __int128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest digits of the finite, positive double of the given IEEE
 * mantissa and biased exponent, as an integer and its power of ten. */
static uint64_t shortest_digits(const uint64_t *pow5, uint64_t mantissa, uint32_t biased, int32_t *e10)
{
    /* The interval of doubles that round to this one, [4 m2 - 1 - mm_shift,
     * 4 m2 + 2] x 2^e2: two more bits for its bounds. */
    int32_t e2 = (biased ? (int32_t)biased : 1) - 1023 - 52 - 2;
    uint64_t m2 = biased ? (UINT64_C(1) << 52) | mantissa : mantissa;
    int accept_bounds = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = mantissa != 0 || biased <= 1;
    uint64_t vr, vp, vm;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        uint32_t q = log10_pow2(e2) - (e2 > 3);
        *e10 = (int32_t)q;
        int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits((int32_t)q) - 1;
        const uint64_t *mul = pow5 + 2 * (POW5_COUNT + q);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        /* Whether an end of the interval, or its middle, is exact in
         * decimal: only one of the three can be a multiple of 5. */
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        *e10 = (int32_t)q + e2;
        int32_t i = -e2 - (int32_t)q;
        int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
        }
    }
    /* Drop digits while the interval still holds two candidates; round the
     * last one dropped, to even where it is exactly 5 followed by zeros. */
    int32_t removed = 0;
    uint32_t last = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        for (; vp / 10 > vm / 10; removed++) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10, vp /= 10, vm /= 10;
        }
        if (vm_trailing_zeros) {
            for (; vm % 10 == 0; removed++) {
                vr_trailing_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10, vp /= 10, vm /= 10;
            }
        }
        if (vr_trailing_zeros && last == 5 && vr % 2 == 0)
            last = 4;
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100, vp /= 100, vm /= 100;
            removed += 2;
        }
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10, vp /= 10, vm /= 10;
        }
        output = vr + (vr == vm || round_up);
    }
    *e10 += removed;
    return output;
}

/* repr(x) at out, with no terminator; returns its length, at most 24.
 * Python's layout: the exponent form where the decimal point would fall
 * more than 16 digits after the first digit or 4 or more places before it
 * (decpt > 16 or decpt <= -4), with a sign and at least two exponent
 * digits; otherwise positional, an integral value ending in ".0". */
static int64_t repr_double(const uint64_t *pow5, double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mantissa = bits & ((UINT64_C(1) << 52) - 1);
    uint32_t biased = (uint32_t)(bits >> 52) & 0x7ff;
    char *p = out;
    if (biased == 0x7ff && mantissa) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3 - out;
    }
    if (biased == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3 - out;
    }
    int32_t e10;
    uint64_t output = shortest_digits(pow5, mantissa, biased, &e10);
    char digits[20];
    int32_t n = 0;
    for (; output; output /= 10)
        digits[19 - n++] = (char)('0' + output % 10);
    const char *d = digits + 20 - n;
    int32_t decpt = n + e10;
    if (decpt > 16 || decpt <= -4) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        int32_t e = decpt - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        memcpy(p, "0.000", 2 - decpt);
        p += 2 - decpt;
        memcpy(p, d, n);
        p += n;
    } else if (decpt < n) {
        memcpy(p, d, decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, d + decpt, n - decpt);
        p += n - decpt;
    } else {
        memcpy(p, d, n);
        p += n;
        memset(p, '0', decpt - n);
        p += decpt - n;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p - out;
}

/* The (rows, cols) doubles x, each as repr writes it, the values of a row
 * joined by col_sep (col_len bytes) and the rows by row_sep (row_len bytes),
 * at out, which holds rows * cols * (24 + the longer length) bytes or more.
 * Returns the number of bytes written. */
int64_t repr_matrix(const uint64_t *pow5, int64_t rows, int64_t cols, const double *x,
                    const char *col_sep, int64_t col_len, const char *row_sep, int64_t row_len,
                    char *out)
{
    char *p = out;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++) {
            const int64_t len = j ? col_len : i ? row_len : 0;
            memcpy(p, j ? col_sep : row_sep, len);
            p += len;
            p += repr_double(pow5, x[i * cols + j], p);
        }
    return p - out;
}

/* The rows of a numeric CSV, read in one pass over its bytes, each cell with
 * the bits of Python's float(). A cell is, in ASCII,
 * [ \t]*[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?[ \t]*, at most CELL_BYTES long;
 * cells are split on ',', lines end in "\n", "\r\n" or "\r", empty lines
 * are skipped and every row has the width of the first. Anything else, or a
 * value that is not finite, refuses the text.
 *
 * A cell of at most 19 significant digits m, m <= 2^53, times 10^e with
 * -22 <= e <= 22 is m * 10^e or m / 10^-e of two exact doubles: one
 * correctly rounded operation (W. D. Clinger, "How to read floating point
 * numbers accurately", PLDI 1990). Every other cell goes to libc's strtod,
 * which must stop at the cell's last digit; kernel.py checks at import that
 * it rounds correctly (check_read). */
enum { CELL_BYTES = 400, READ_DONE = 0, READ_FULL = 1, READ_REFUSED = -1 };

struct read_args {
    int64_t size;     /* bytes of text */
    int64_t pos;      /* where the next row starts */
    int64_t width;    /* cells per row, 0 until the first row is read */
    int64_t rows;     /* rows written to out */
    int64_t capacity; /* cells out holds */
    const char *text;
    double *out;
};

static const double exact_pow10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static inline int is_digit(char c) { return (unsigned char)(c - '0') < 10; }
static inline int is_blank(char c) { return c == ' ' || c == '\t'; }

/* The cell at p, before end, into *value; returns the byte after it (and
 * its trailing blanks), or NULL where it is not of the grammar, too long or
 * not finite. */
static const char *read_cell(const char *p, const char *end, double *value)
{
    const char *start = p;
    while (p < end && is_blank(*p))
        p++;
    const char *number = p;
    int negative = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    /* The value is m * 10^(scale + exponent) unless truncated: m holds the
     * first 19 significant digits and there are more. */
    uint64_t m = 0;
    int significant = 0, digits = 0, truncated = 0;
    int64_t scale = 0, exponent = 0;
    for (; p < end && is_digit(*p); p++, digits++) {
        unsigned d = (unsigned)(*p - '0');
        if (significant == 19)
            truncated = 1;
        else if (m | d)
            m = 10 * m + d, significant++;
    }
    if (p < end && *p == '.') {
        for (p++; p < end && is_digit(*p); p++, digits++) {
            unsigned d = (unsigned)(*p - '0');
            if (significant == 19) {
                truncated = 1;
            } else {
                if (m | d)
                    m = 10 * m + d, significant++;
                scale--;
            }
        }
    }
    if (digits == 0)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        int negative_exponent = p < end && *p == '-';
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (p == end || !is_digit(*p))
            return NULL;
        for (; p < end && is_digit(*p); p++)
            if (exponent < 100000)
                exponent = 10 * exponent + (*p - '0');
        if (negative_exponent)
            exponent = -exponent;
    }
    const char *number_end = p;
    while (p < end && is_blank(*p))
        p++;
    if (p - start > CELL_BYTES)
        return NULL;
    int64_t e10 = scale + exponent;
    if (!truncated && m <= (UINT64_C(1) << 53) && e10 >= -22 && e10 <= 22) {
        double x = e10 >= 0 ? (double)m * exact_pow10[e10] : (double)m / exact_pow10[-e10];
        *value = negative ? -x : x;
        return p;
    }
    char buf[CELL_BYTES + 1], *stop;
    size_t n = (size_t)(number_end - number);
    memcpy(buf, number, n);
    buf[n] = '\0';
    double x = strtod(buf, &stop);
    if (stop != buf + n || !isfinite(x))
        return NULL;
    *value = x;
    return p;
}

/* Rows of the text from a->pos into a->out, a->width cells each, after the
 * a->rows written: READ_DONE at the end of the text, where at least one row
 * is read; READ_FULL where a->out has no room for the next row, whose start
 * a->pos then holds; READ_REFUSED where the text is not of the grammar. */
int read_rows(struct read_args *a)
{
    const char *text = a->text, *end = text + a->size, *p = text + a->pos;
    int64_t width = a->width, rows = a->rows;
    while (p < end) {
        if (*p == '\n' || *p == '\r') {
            p++;
            continue;
        }
        const char *row = p;
        double *out = a->out + rows * width;
        int64_t cells = 0;
        for (;;) {
            if (width && cells == width)
                return READ_REFUSED;
            if (rows * width + cells == a->capacity) {
                a->pos = row - text, a->width = width, a->rows = rows;
                return READ_FULL;
            }
            p = read_cell(p, end, out + cells++);
            if (!p)
                return READ_REFUSED;
            if (p == end || *p != ',')
                break;
            p++;
        }
        if ((p < end && *p != '\n' && *p != '\r') || (width && cells != width))
            return READ_REFUSED;
        width = cells;
        rows++;
    }
    a->pos = a->size, a->width = width, a->rows = rows;
    return rows ? READ_DONE : READ_REFUSED;
}
