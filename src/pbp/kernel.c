/* The arithmetic of PBP training and prediction that Python floats or numpy
 * would run as many small calls, on doubles: the two sequential Gamma chains,
 * the likelihood update step and the elementwise maps of a rows pass.
 *
 * ep_refresh: one EP sweep over the stored prior sites of every run of a
 * stack, carrying each run's prior-precision Gamma from weight to weight.
 * noise_step: each run's likelihood log-normalisers, skip flag and noise-
 * precision Gamma moment match for one training example.
 * The moment maps (below the Gamma chains): the linear layer's moments
 * around its matmuls and the rectifier (rectify), which a rows pass calls
 * once per layer of each item, and the likelihood step: step_epoch folds n
 * examples per run of a stack in sequence, each through the forward pass
 * (step_forward), noise_step, the reverse sweep (step_backward) and the
 * refinement of every weight (step_refine).
 *
 * Every expression is the one the Python floats or numpy arrays of pbp
 * evaluated before, in the same order and association, so the results are
 * the same bits: built with -ffp-contract=off (no fused multiply-add) and
 * -fno-builtin (pow, exp and log stay calls into the process's libm, which
 * Python's math module and float power also call). The matmuls call numpy's
 * BLAS as np.matmul does, log_ndtr scipy's own function, and the rectifier's
 * exp and powers numpy's own ufunc loops. Where Python raised, the entry
 * points return a negative status instead (see kernel.py) and leave every
 * buffer the caller reads as it was.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

enum {
    ZERO_DIVISION = -1,       /* ZeroDivisionError: a float division by zero */
    OVERFLOW = -2,            /* OverflowError: a square that overflows */
    ZERO_WEIGHT_VARIANCE = -3,
    ZERO_PRIOR_VARIANCE = -4, /* at a flat prior site */
    NEGATIVE_VARIANCE = -5,   /* a negative pre-activation variance */
};

struct noise_args {
    int64_t runs;
    double *moments;       /* (3, R): targets, output means, output variances */
    const double *gamma;   /* (2, R): noise Gamma shapes, rates */
    double *gamma_next;    /* (2, R): the matched Gammas */
    double *log_z;         /* (3, R): log-normalisers at shape + 0, 1, 2 */
    uint8_t *skipped;      /* (R,) */
    double *targets;       /* (R,): the target, or the output mean where skipped */
    double log_2pi;
    int64_t failed_run;    /* the run whose arithmetic failed, with a status */
};

struct refresh_args {
    int64_t runs, weights;
    double *means, *variances; /* (R, W) */
    double *sites;             /* (4, R, W): precision, precision x mean, shape, rate */
    double *lam;               /* (2, R): prior Gamma shapes, rates */
    int64_t *skipped;          /* (R,): sites skipped per run */
    double *change;            /* (R,): largest change per run */
    double *backup;            /* 6 R W + 2 R */
    double log_2pi;
    int64_t failed_run;        /* the run whose arithmetic failed, with a status */
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
static int log_z_triple(double t, double mu, double v, double shape, double rate,
                        double log_2pi, double lz[3])
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
    lz[0] = -0.5 * (log_2pi + log(var0) + sq / var0);
    lz[1] = -0.5 * (log_2pi + log(var1) + sq / var1);
    lz[2] = -0.5 * (log_2pi + log(var2) + sq / var2);
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
        int usable = log_z_triple(y[r], mz[r], vz[r], shape[r], rate[r], s->log_2pi, lz) == USABLE;
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
    /* The backward pass divides by every run's shape - 1. */
    if (skips < R)
        for (int64_t r = 0; r < R; r++)
            if (shape[r] - 1.0 == 0.0) {
                s->failed_run = r;
                return ZERO_DIVISION;
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
                int status = log_z_triple(m_cav, 0.0, v_cav, a_fit, b_fit, s->log_2pi, lz);
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

/* ------------------------------------------------ the moment maps of a step
 *
 * Three kinds of operation take their bits from outside this file, called
 * through the pointers of struct externals, which kernel.py checks against
 * np.matmul, scipy.special.log_ndtr, np.exp and np.power: the matmuls from
 * numpy's BLAS, log_ndtr from scipy, and exp and power from numpy's own ufunc
 * loops (SIMD code that differs from libm's exp and pow on some arguments).
 * Besides, only +, -, *, /, sqrt (correctly rounded, as numpy's) and
 * comparisons happen here, each in the association of the numpy expression
 * it replaces, which the comment of each map quotes. The branch-free loops
 * read their buffers through restrict locals, so that gcc vectorizes them; a
 * vectorized IEEE operation rounds as the scalar one.
 */

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

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
    double (*log_ndtr)(double x, int skip_dispatch);
    ufunc_loop exp, power;
    void *exp_data, *power_data;
};

/* out = x @ M^T (transposed) or x @ M for each run, M (rows, cols), as
 * np.matmul computes a row times a matrix, with numpy's arguments: where the
 * output has one element one cblas_ddot added to 0.0, where the row has one
 * element numpy's own loop, which adds each product to 0.0, and one gemv
 * otherwise. */
void matvec(const struct externals *e, int64_t transposed, int64_t runs, int64_t rows,
            int64_t cols, int64_t run_stride, const double *m, const double *x, double *out)
{
    const int64_t n_in = transposed ? cols : rows, n_out = transposed ? rows : cols;
    for (int64_t r = 0; r < runs; r++) {
        const double *a = m + r * run_stride, *z = x + r * n_in;
        double *y = out + r * n_out;
        if (n_out == 1) {
            double sum = 0.0;
            sum += e->ddot(n_in, z, 1, a, 1);
            *y = sum;
        } else if (n_in == 1) {
            for (int64_t j = 0; j < n_out; j++)
                y[j] = 0.0 + z[0] * a[j];
        } else if (transposed) {
            e->dgemv(COL_MAJOR, TRANS, cols, rows, 1.0, a, cols, z, 1, 0.0, y, 1);
        } else {
            e->dgemv(ROW_MAJOR, TRANS, rows, cols, 1.0, a, cols, z, 1, 0.0, y, 1);
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

/* np.maximum(x, 0.0): NaN propagates, and -0.0 gives +0.0. */
static inline double maximum0(double x)
{
    return isnan(x) ? x : x > 0.0 ? x : 0.0;
}

struct square_args {
    int64_t n;
    const double *x;
    double *out;
};

/* out = x * x */
void square(const struct square_args *s)
{
    const int64_t n = s->n;
    const double *restrict x = s->x;
    double *restrict out = s->out;
    for (int64_t i = 0; i < n; i++)
        out[i] = x[i] * x[i];
}

/* A layer's moments from the products of its four matmuls, n rows of units:
 * mean = (zm @ M^T) / sqrt(cols)
 * variance = (zv @ (M*M)^T + (zm*zm) @ V^T + zv @ V^T) / cols */
struct linear_args {
    int64_t n;                     /* rows x units */
    const double *p0, *p1, *p2, *p3; /* (n): the four matmuls, in that order */
    double *mean, *variance;       /* (n) */
    double sqrt_cols, cols;
};

void linear_moments(const struct linear_args *s)
{
    const int64_t n = s->n;
    const double *restrict p0 = s->p0, *restrict p1 = s->p1;
    const double *restrict p2 = s->p2, *restrict p3 = s->p3;
    double *restrict mean = s->mean, *restrict variance = s->variance;
    const double sqrt_cols = s->sqrt_cols, cols = s->cols;
    for (int64_t i = 0; i < n; i++) {
        mean[i] = p0[i] / sqrt_cols;
        variance[i] = (p1[i] + p2[i] + p3[i]) / cols;
    }
}

/* The rectifier max(0, x), x ~ N(m, v), per unit, in three parts around
 * log_ndtr of (alpha, -alpha) and exp of (log_cdf, log_cdf_neg, log_pdf,
 * log_ratio), which run on adjacent rows of one buffer (see rectify). */
struct relu_args {
    int64_t rows, units, out_stride; /* out_stride: doubles between rows of out_m, out_v */
    const double *m, *v;             /* (rows, units) pre-activation moments */
    double *alpha, *neg_alpha;
    double *log_cdf, *log_cdf_neg, *log_pdf, *log_ratio;
    double *cdf, *cdf_neg, *pdf, *ratio;
    double *sqrt_v, *v_safe, *vprime, *mean_pos, *alpha_s;
    /* alpha_s ** 3, ** -2 and ** -4, read where a unit takes the series */
    double *cube, *inv_square, *inv_fourth;
    double *out_m, *out_v;
    uint8_t *deterministic, *series;
    int64_t n_deterministic, n_series;
    double deterministic_variance, series_threshold, log_2pi;
};

/* det = v < cutoff; v_safe = where(det, 1.0, v); sqrt_v = sqrt(v_safe);
 * alpha = m / sqrt_v; log_pdf = -0.5 * (alpha * alpha + LOG_2PI);
 * series = alpha < threshold; alpha_s = where(series, alpha, -1.0).
 * NEGATIVE_VARIANCE where some v < 0 (a NaN is not). */
static int relu_pre(struct relu_args *s)
{
    const int64_t n = s->rows * s->units;
    int64_t n_det = 0, n_series = 0;
    for (int64_t i = 0; i < n; i++) {
        double v = s->v[i];
        if (v < 0.0)
            return NEGATIVE_VARIANCE;
        int det = v < s->deterministic_variance;
        double v_safe = det ? 1.0 : v;
        double sqrt_v = __builtin_sqrt(v_safe);
        double alpha = s->m[i] / sqrt_v;
        int series = alpha < s->series_threshold;
        s->v_safe[i] = v_safe;
        s->sqrt_v[i] = sqrt_v;
        s->alpha[i] = alpha;
        s->neg_alpha[i] = -alpha;
        s->log_pdf[i] = -0.5 * (alpha * alpha + s->log_2pi);
        s->alpha_s[i] = series ? alpha : -1.0; /* keeps the unused branch finite */
        s->deterministic[i] = det;
        s->series[i] = series;
        n_det += det;
        n_series += series;
    }
    s->n_deterministic = n_det;
    s->n_series = n_series;
    return 0;
}

/* log_ratio = log_pdf - log_cdf */
static void relu_mid(const struct relu_args *s)
{
    const int64_t n = s->rows * s->units;
    const double *restrict log_pdf = s->log_pdf, *restrict log_cdf = s->log_cdf;
    double *restrict log_ratio = s->log_ratio;
    for (int64_t i = 0; i < n; i++)
        log_ratio[i] = log_pdf[i] - log_cdf[i];
}

/* ratio = where(series, -alpha_s - 1.0 / alpha_s + 2.0 / alpha_s**3, ratio)
 * vprime = m + sqrt_v * ratio; mean_pos = cdf * vprime
 * out_v = maximum(mean_pos * vprime * cdf_neg + cdf * v_safe * (1.0 - ratio * (ratio + alpha)), 0.0)
 * and where det: out_m = maximum(m, 0.0), out_v = 0.0. */
static void relu_post(const struct relu_args *s)
{
    for (int64_t r = 0; r < s->rows; r++) {
        for (int64_t j = 0; j < s->units; j++) {
            int64_t i = r * s->units + j, o = r * s->out_stride + j;
            double alpha_s = s->alpha_s[i];
            double ratio = s->series[i] ? -alpha_s - 1.0 / alpha_s + 2.0 / s->cube[i] : s->ratio[i];
            double vprime = s->m[i] + s->sqrt_v[i] * ratio;
            double mean_pos = s->cdf[i] * vprime;
            double mean_vprime = mean_pos * vprime;
            double cdf_v = s->cdf[i] * s->v_safe[i];
            double u = 1.0 - ratio * (ratio + s->alpha[i]);
            double variance = maximum0(mean_vprime * s->cdf_neg[i] + cdf_v * u);
            s->ratio[i] = ratio;
            s->vprime[i] = vprime;
            s->mean_pos[i] = mean_pos;
            if (s->deterministic[i]) {
                s->out_m[o] = maximum0(s->m[i]);
                s->out_v[o] = 0.0;
            } else {
                s->out_m[o] = mean_pos;
                s->out_v[o] = variance;
            }
        }
    }
}

/* The whole rectifier of s: relu_pre; log_ndtr; relu_mid; where some unit
 * takes the series, alpha_s ** 3 for relu_post and ** -2 and ** -4 for
 * relu_backward; exp; relu_post. Returns 0 or NEGATIVE_VARIANCE. */
int rectify(const struct externals *e, struct relu_args *s)
{
    int status = relu_pre(s);
    if (status)
        return status;
    const int64_t n = s->rows * s->units;
    /* (alpha, -alpha) and (log_cdf, log_cdf_neg) are adjacent rows, and so
     * are the four from log_cdf and the four from cdf. */
    log_ndtr_n(e, 2 * n, s->alpha, s->log_cdf);
    relu_mid(s);
    if (s->n_series) {
        power_n(e, n, s->alpha_s, 3.0, s->cube);
        power_n(e, n, s->alpha_s, -2.0, s->inv_square);
        power_n(e, n, s->alpha_s, -4.0, s->inv_fourth);
    }
    exp_n(e, 4 * n, s->log_cdf, s->cdf);
    relu_post(s);
    return 0;
}

/* The gradients of log Z w.r.t. the rectifier's input moments (dma, dva,
 * (rows, units)) from those w.r.t. its output moments (dmb, dvb, whose rows
 * are in_stride doubles apart), branch for branch. */
static void relu_backward(const struct relu_args *f, int64_t in_stride, const double *dmb_in,
                          const double *dvb_in, double *dma, double *dva)
{
    for (int64_t r = 0; r < f->rows; r++) {
        for (int64_t j = 0; j < f->units; j++) {
            int64_t i = r * f->units + j, k = r * in_stride + j;
            double v_safe = f->v_safe[i], sq = f->sqrt_v[i], alpha = f->alpha[i];
            double g = f->ratio[i], cdf = f->cdf[i], cdf_neg = f->cdf_neg[i], pdf = f->pdf[i];
            double vp = f->vprime[i], mb = f->mean_pos[i];
            double dmb = dmb_in[k], dvb = dvb_in[k];
            if (f->deterministic[i]) {
                /* mb = max(0, m), vb = 0: dma = dmb * (m > 0.0), dva = 0.0 */
                dma[i] = dmb * (f->m[i] > 0.0 ? 1.0 : 0.0);
                dva[i] = 0.0;
                continue;
            }
            double ratio_alpha = g + alpha;
            /* dg_dalpha = -g * (ratio + alpha), or in the series branch
             * -1.0 + alpha_s**-2 - 6.0 * alpha_s**-4 */
            double dg = f->series[i] ? -1.0 + f->inv_square[i] - 6.0 * f->inv_fourth[i]
                                     : -g * ratio_alpha;
            double dalpha_dm = 1.0 / sq;
            double dalpha_dv = -alpha / (2.0 * v_safe);
            double ds_dv = 1.0 / (2.0 * sq);
            double dvp_dm = 1.0 + dg;
            double dvp_dv = ds_dv * g + sq * dg * dalpha_dv;
            double dcdf_dm = pdf * dalpha_dm;
            double dcdf_dv = pdf * dalpha_dv;
            double dmb_dm = dcdf_dm * vp + cdf * dvp_dm;
            double dmb_dv = dcdf_dv * vp + cdf * dvp_dv;
            double u = 1.0 - g * ratio_alpha;
            double du_dalpha = -dg * (2.0 * g + alpha) - g;
            /* vb = mb * vp * Phi(-alpha) + Phi(alpha) * v * u */
            double mb_vp_pdf = mb * vp * pdf;
            double cdf_v_du = cdf * v_safe * du_dalpha;
            double dvb_dm = dmb_dm * vp * cdf_neg + mb * dvp_dm * cdf_neg - mb_vp_pdf * dalpha_dm
                            + dcdf_dm * v_safe * u + cdf_v_du * dalpha_dm;
            double dvb_dv = dmb_dv * vp * cdf_neg + mb * dvp_dv * cdf_neg - mb_vp_pdf * dalpha_dv
                            + dcdf_dv * v_safe * u + cdf * u + cdf_v_du * dalpha_dv;
            dma[i] = dmb * dmb_dm + dvb * dvb_dm;
            dva[i] = dmb * dmb_dv + dvb * dvb_dv;
        }
    }
}

/* ------------------------------------------------------- the likelihood step
 *
 * A step over one input row per run of a stack: step_forward, noise_step
 * (above), step_backward and step_refine, and step_epoch runs n steps in
 * sequence. Each phase is an entry point of its own too, through which
 * forward_trace and the tests run a step one phase at a time. */

/* One layer, (rows, cols) weights per run from offset on in the flat (R, W)
 * buffers of the step, and the buffers of its pass, one row per run. */
struct step_layer {
    int64_t rows, cols, offset;
    double *zm, *zv;         /* (R, cols): the bias-extended input moments */
    double *scratch;         /* (R, cols) zm * zm, then (4, R, rows) the matmuls of its moments */
    double *mean, *variance; /* (R, rows): the pre-activation moments */
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

/* Layer l's forward pass: the layer's moments and, for a hidden layer, its
 * rectifier, whose output moments are the next layer's inputs. Returns 0 or
 * NEGATIVE_VARIANCE. */
static int forward_layer(const struct step_args *s, int64_t l)
{
    int64_t start = s->phase_ns ? now_ns() : 0;
    const struct step_layer *L = s->layers + l;
    const int64_t R = s->runs, W = s->weights, rows = L->rows, cols = L->cols, n = R * rows;
    const double *m = s->means + L->offset, *v = s->variances + L->offset;
    double *m_sq = s->means_sq + L->offset, *zm_sq = L->scratch, *p = zm_sq + R * cols;
    for (int64_t r = 0; r < R; r++)
        square(&(struct square_args){rows * cols, m + r * W, m_sq + r * W});
    square(&(struct square_args){R * cols, L->zm, zm_sq});
    matvec(s->externals, 1, R, rows, cols, W, m, L->zm, p);
    matvec(s->externals, 1, R, rows, cols, W, m_sq, L->zv, p + n);
    matvec(s->externals, 1, R, rows, cols, W, v, zm_sq, p + 2 * n);
    matvec(s->externals, 1, R, rows, cols, W, v, L->zv, p + 3 * n);
    linear_moments(&(struct linear_args){n, p, p + n, p + 2 * n, p + 3 * n, L->mean, L->variance,
                                         __builtin_sqrt((double)cols), (double)cols});
    int status = L->relu ? rectify(s->externals, L->relu) : 0;
    if (s->phase_ns)
        s->phase_ns[l] += now_ns() - start;
    return status;
}

/* The forward pass of the inputs in the input layer's unit slots, layer
 * after layer, which leaves the output moments in the noise step's. Returns
 * 0 or NEGATIVE_VARIANCE. */
int step_forward(const struct step_args *s)
{
    for (int64_t l = 0; l < s->n_layers; l++) {
        int status = forward_layer(s, l);
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
    matvec(s->externals, 0, R, rows, cols, W, s->means + L->offset, L->dma, p_m);
    matvec(s->externals, 0, R, rows, cols, W, s->variances + L->offset, L->dva, p_v);
    matvec(s->externals, 0, R, rows, cols, rows * cols, L->operand, L->dva, p_op);
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
 * in undo otherwise; a skipped run keeps its weights (undo and updates 0).
 * Then the noise Gammas take the matched ones. */
void step_refine(const struct step_args *s)
{
    int64_t start = s->phase_ns ? now_ns() : 0;
    const int64_t W = s->weights;
    for (int64_t r = 0; r < s->runs; r++) {
        int64_t undo = 0;
        if (!s->noise->skipped[r]) {
            double *m = s->means + r * W, *v = s->variances + r * W;
            const double *dm = s->d_means + r * W, *dv = s->d_variances + r * W;
            for (int64_t w = 0; w < W; w++) {
                double m_new = m[w] + v[w] * dm[w];
                double v_new = v[w] - v[w] * v[w] * (dm[w] * dm[w] - 2.0 * dv[w]);
                if (v_new > 0.0 && isfinite(v_new) && isfinite(m_new)) {
                    m[w] = m_new;
                    v[w] = v_new;
                } else {
                    undo++;
                }
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
    int64_t n, inputs;
    const double *xs, *ys;             /* (n, R, inputs), (n, R) */
    int64_t *skipped, *undo, *updates; /* (R,): each run's sums over the examples */
    int64_t failed_run;                /* the run whose noise step failed, with a status */
};

/* Returns 0 or the status of the first example that fails, after the
 * examples before it. */
int step_epoch(const struct step_args *s, struct epoch_args *e)
{
    const int64_t R = s->runs, d = e->inputs, cols = s->layers[0].cols;
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
