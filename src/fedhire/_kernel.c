/* The compiled steps of competitive penalized learning: the weighted
 * distances, the squash, the epoch bookkeeping and the feature-weight
 * refresh of run_cpl; and fh_kmeans, the whole Lloyd loop of the k-means
 * that fragments each ground-truth cluster (federation.kmeans).
 *
 * One epoch is four kinds of call on the buffers of struct fh_run, all
 * allocated by numpy: fh_stale_columns finds the similarity columns to
 * recompute, fh_negated_distances gives -D for one bounded group of them
 * (Python takes np.exp of the group in place), fh_floor_scatter floors the
 * group into the n x k0 cache, and fh_epoch does the rest: gamma, the
 * presentation loop, the win counts, the centroid means, the empty streaks
 * and the deactivation. A feature-weight refresh is three more calls,
 * fh_refresh_live, fh_refresh_overlap and fh_refresh_rows, with numpy
 * between them. Only np.exp and the refresh's three BLAS products stay in
 * numpy, since neither can be repeated here bit for bit.
 *
 * Bit for bit the numpy and Python forms kept as oracles in tests/oracles.py:
 * every operation is the same IEEE double operation in the same order. The
 * distances add their per-feature terms in numpy's pairwise_sum order, the
 * order of sum(axis=-1) in the broadcast-and-sum oracle, and so do the row
 * sums of the refresh; the centroid sums add in object order, as np.add.at
 * does, and the k-means means as numpy's mean(axis=0) does; exp is the libm
 * exp that Python's math.exp calls; the winner and rival keep numpy argmax's
 * first-index tie rule (strict > comparisons only), and the k-means argmin
 * and argmax theirs. Built without -ffast-math and with -ffp-contract=off
 * (see _kernel.py), so no operation is reordered or fused.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Objects per block of fh_dissimilarities. A block's terms are added across
 * a lane of this many objects, one lane entry per object, so the compiler
 * may vectorize over objects without reordering any single entry's sum. */
#define LANE 64
/* Clusterlets per tile: a block's sums for TILE clusterlets are written to
 * out together, TILE adjacent entries of each object's row. */
#define TILE 8
/* numpy's pairwise_sum: runs shorter than UNROLL add in sequence, runs up to
 * PAIRWISE_BLOCK use UNROLL strided accumulators, longer runs split in two */
#define UNROLL 8
#define PAIRWISE_BLOCK 128

/* One feature's term of a distance, the oracle's (s * (x - c))**2. */
static inline double term(double x, double c, double s)
{
    double t = s * (x - c);
    return t * t;
}

/* acc[b] = the sum of object b's terms over count features, in numpy's
 * pairwise_sum order, for the LANE objects of a block. x holds count rows of
 * LANE objects, stride apart; c and s are one centroid row and one scaled
 * row. */
static void pairwise_terms(const double *restrict x, int64_t stride,
                           const double *restrict c, const double *restrict s,
                           int64_t count, double *restrict acc)
{
    if (count < UNROLL) {
        for (int b = 0; b < LANE; b++)
            acc[b] = 0.0;
        for (int64_t z = 0; z < count; z++)
            for (int b = 0; b < LANE; b++)
                acc[b] += term(x[z * stride + b], c[z], s[z]);
    } else if (count <= PAIRWISE_BLOCK) {
        double r[UNROLL][LANE];
        int64_t end = count - count % UNROLL, z;
        for (int q = 0; q < UNROLL; q++)
            for (int b = 0; b < LANE; b++)
                r[q][b] = term(x[q * stride + b], c[q], s[q]);
        for (z = UNROLL; z < end; z += UNROLL)
            for (int q = 0; q < UNROLL; q++)
                for (int b = 0; b < LANE; b++)
                    r[q][b] += term(x[(z + q) * stride + b], c[z + q], s[z + q]);
        for (int b = 0; b < LANE; b++)
            acc[b] = ((r[0][b] + r[1][b]) + (r[2][b] + r[3][b]))
                     + ((r[4][b] + r[5][b]) + (r[6][b] + r[7][b]));
        for (; z < count; z++)
            for (int b = 0; b < LANE; b++)
                acc[b] += term(x[z * stride + b], c[z], s[z]);
    } else {
        double rest[LANE];
        int64_t half = count / 2;
        half -= half % UNROLL;
        pairwise_terms(x, stride, c, s, half, acc);
        pairwise_terms(x + half * stride, stride, c + half, s + half,
                       count - half, rest);
        for (int b = 0; b < LANE; b++)
            acc[b] += rest[b];
    }
}

/* out[i][j] = sum_z (scaled[j][z] * (x[z][i] - centroids[j][z]))^2, added
 * in pairwise_sum order, for the d x n feature-major values x, the k x d rows
 * centroids and scaled, and the n x k out; negated when negate is set. The
 * objects go in blocks of LANE; the last, partial block is copied into a
 * zero-padded buffer first. Returns 0, or -1 if that buffer could not be
 * allocated. */
static int distances(const double *x, int64_t d, int64_t n,
                     const double *centroids, const double *scaled, int64_t k,
                     double *out, int negate)
{
    double acc[TILE][LANE], *pad = NULL;
    for (int64_t lo = 0; lo < n; lo += LANE) {
        const double *block = x + lo;
        int64_t stride = n, m = n - lo < LANE ? n - lo : LANE;
        if (m < LANE) {
            pad = calloc((size_t)(d * LANE), sizeof *pad);
            if (pad == NULL)
                return -1;
            for (int64_t z = 0; z < d; z++)
                memcpy(pad + z * LANE, x + z * n + lo, (size_t)m * sizeof *pad);
            block = pad;
            stride = LANE;
        }
        for (int64_t j0 = 0; j0 < k; j0 += TILE) {
            int64_t width = k - j0 < TILE ? k - j0 : TILE;
            for (int64_t t = 0; t < width; t++)
                pairwise_terms(block, stride, centroids + (j0 + t) * d,
                               scaled + (j0 + t) * d, d, acc[t]);
            for (int64_t b = 0; b < m; b++)
                for (int64_t t = 0; t < width; t++)
                    out[(lo + b) * k + j0 + t] = negate ? -acc[t][b] : acc[t][b];
        }
    }
    free(pad);
    return 0;
}

/* The distances alone, for the objects left orphaned by a deactivation. */
int fh_dissimilarities(const double *x, int64_t d, int64_t n,
                       const double *centroids, const double *scaled,
                       int64_t k, double *out)
{
    return distances(x, d, n, centroids, scaled, k, out, 0);
}

/* Sigmoid squash of a raw weight into (0, 1): 1 / (1 + e^{-10(raw + 5)}),
 * in the numerically stable two-branch form. */
double fh_squash(double raw)
{
    double z = 10.0 * (raw + 5.0);
    if (z >= 0.0)
        return 1.0 / (1.0 + exp(-z));
    double e = exp(z);
    return e / (1.0 + e);
}


/* Every buffer of one run_cpl call, allocated by numpy; the layout of Run in
 * _kernel.py. All arrays are C-contiguous; k x d arrays hold one row per
 * clusterlet. */
struct fh_run {
    int64_t n, d, k0;
    int64_t group;              /* columns per group of fresh similarities */
    double floor;               /* SIMILARITY_FLOOR */
    double threshold;           /* ELIMINATION_THRESHOLD */
    int64_t dead_epochs;        /* DEAD_UNIT_EPOCHS */
    double variance_floor;      /* VARIANCE_FLOOR */
    double entry_tolerance;     /* ENTRY_TOLERANCE */
    double row_sum_tolerance;   /* ROW_SUM_TOLERANCE */
    const double *values;       /* n x d */
    const double *by_feature;   /* d x n */
    double *sims;               /* n x k0, the floored exp(-D) columns */
    double *stored_centroids;   /* k0 x d, the rows each column was made from */
    double *stored_rows;        /* k0 x d */
    double *centroids;          /* k0 x d, the ClusterletState arrays */
    int64_t *win_counts;        /* k0 */
    double *raw_weights;        /* k0 */
    double *weights;            /* k0 */
    uint8_t *active;            /* k0, numpy bool */
    double *rows;               /* k0 x d, the M rows */
    int64_t *act;               /* k0, the active indices, ascending */
    int64_t *stale;             /* k0, the stale active indices, ascending */
    double *fresh;              /* n x group, one group of fresh columns */
    double *group_centroids;    /* group x d */
    double *group_scaled;       /* group x d, the rows d * m_j */
    int64_t *assignments;       /* 2 x n, written alternately */
    int64_t *counts;            /* k0 */
    double *sums;               /* k0 x d */
    int64_t *streaks;           /* k0, consecutive memberless epochs */
    double *gamma;              /* k0 */
    double *gw;                 /* k0, gamma * weight of the active, compact */
    /* the feature-weight refresh, allocated by its first call; the k x d
     * buffers hold one row per live clusterlet, in the order of live */
    const double *totals;       /* 2 x d, the column sums of x and of x^2 */
    int64_t *members;           /* k0, the objects of each clusterlet */
    int64_t *live;              /* k0, the live clusterlets, ascending */
    int64_t *remap;             /* k0, the index in live, or -1 */
    double *compact;            /* n x d, -(x - c)^2 / 2, then its exp */
    double *onehot;             /* n x k, one 1.0 per object */
    double *sum_x;              /* k0 x d, sum x, then scale, then alpha beta */
    double *sum_xx;             /* k0 x d, sum x^2, then exponent, then rows */
    double *sum_compact;        /* k0 x d, sum exp(-(x - c)^2 / 2) */
};

/* The active columns whose centroid row or M row compares unequal to the
 * rows it was computed from, ascending, into r->stale; their new rows are
 * stored. Returns how many. NaN compares unequal to everything, so the NaN
 * rows stored at the start make every column stale once. */
int64_t fh_stale_columns(struct fh_run *r)
{
    int64_t d = r->d, count = 0;
    for (int64_t j = 0; j < r->k0; j++) {
        if (!r->active[j])
            continue;
        const double *c = r->centroids + j * d, *m = r->rows + j * d;
        double *sc = r->stored_centroids + j * d, *sm = r->stored_rows + j * d;
        int64_t z = 0;
        while (z < d && sc[z] == c[z] && sm[z] == m[z])
            z++;
        if (z == d)
            continue;
        r->stale[count++] = j;
        memcpy(sc, c, (size_t)d * sizeof *sc);
        memcpy(sm, m, (size_t)d * sizeof *sm);
    }
    return count;
}

/* -D of the stale columns lo .. lo + width - 1 into the n x width group
 * r->fresh, each distance as fh_dissimilarities gives it. The caller takes
 * the exp in place. Returns 0, or -1 if a block could not be allocated. */
int fh_negated_distances(struct fh_run *r, int64_t lo, int64_t width)
{
    int64_t d = r->d;
    for (int64_t t = 0; t < width; t++) {
        int64_t j = r->stale[lo + t];
        for (int64_t z = 0; z < d; z++) {
            r->group_centroids[t * d + z] = r->centroids[j * d + z];
            r->group_scaled[t * d + z] = (double)d * r->rows[j * d + z];
        }
    }
    return distances(r->by_feature, d, r->n, r->group_centroids,
                     r->group_scaled, width, r->fresh, 1);
}

/* Floor the group r->fresh at r->floor, as np.maximum does (NaN stays NaN),
 * into its columns of r->sims. */
void fh_floor_scatter(struct fh_run *r, int64_t lo, int64_t width)
{
    for (int64_t i = 0; i < r->n; i++) {
        const double *f = r->fresh + i * width;
        double *row = r->sims + i * r->k0;
        for (int64_t t = 0; t < width; t++)
            row[r->stale[lo + t]] = f[t] < r->floor ? r->floor : f[t];
    }
}

/* Whether clusterlet a goes before clusterlet b at the two-active floor,
 * ignoring their indices: nonempty first, then the higher weight, NaN last
 * (numpy's lexsort on -weight). */
static int outranks(const struct fh_run *r, int64_t a, int64_t b)
{
    int fa = r->counts[a] > 0, fb = r->counts[b] > 0;
    double wa = r->weights[a], wb = r->weights[b];
    if (fa != fb)
        return fa;
    if (isnan(wa) || isnan(wb))
        return !isnan(wa) && isnan(wb);
    return wa > wb;
}

/* One epoch after the similarity columns are fresh, into row out of
 * r->assignments. Returns how many objects were won by a clusterlet that the
 * epoch then deactivated, or -1 if fewer than two clusterlets are active.
 *
 * gamma_j = 1 - g_j / sum_t g_t over every win count (1 while none was won)
 * is fixed for the epoch. Row i scores gw[t] * sims[i][act[t]] over the
 * active; the winner v (first index of the maximum) gains eta of raw weight,
 * the rival r (first maximum among the others) loses eta * s_r / s_v, and
 * their weights and gw are refreshed after each row. Then the centroids of
 * nonempty active clusterlets move to the mean of their members, summed in
 * object order as np.add.at adds; the memberless active count one more empty
 * epoch; and the active with a weight under the threshold or a streak at the
 * dead-unit count are deactivated. When that would leave fewer than two, the
 * two first in floor order (outranks, then the lower index) stay instead. */
int64_t fh_epoch(struct fh_run *r, double eta, int64_t out)
{
    int64_t n = r->n, d = r->d, k0 = r->k0, na = 0, total = 0;
    int64_t *act = r->act, *assignments = r->assignments + out * n;
    double *gw = r->gw;
    for (int64_t j = 0; j < k0; j++) {
        total += r->win_counts[j];
        if (r->active[j])
            act[na++] = j;
    }
    if (na < 2)
        return -1;
    for (int64_t j = 0; j < k0; j++)
        r->gamma[j] = total == 0
                          ? 1.0
                          : 1.0 - (double)r->win_counts[j] / (double)total;
    for (int64_t t = 0; t < na; t++)
        gw[t] = r->gamma[act[t]] * r->weights[act[t]];

    for (int64_t i = 0; i < n; i++) {
        const double *row = r->sims + i * k0;
        /* one pass for the winner v and the rival w, the first index of
         * the maximum among the others: when a score beats the best, the
         * old best becomes the rival */
        int64_t v = 0, w = 0;
        double best = gw[0] * row[act[0]], second = -INFINITY;
        for (int64_t t = 1; t < na; t++) {
            double s = gw[t] * row[act[t]];
            if (s > best) {
                second = best;
                w = v;
                best = s;
                v = t;
            } else if (s > second) {
                second = s;
                w = t;
            }
        }
        int64_t jv = act[v], jw = act[w];
        assignments[i] = jv;
        r->win_counts[jv] += 1;
        r->raw_weights[jv] += eta;
        r->weights[jv] = fh_squash(r->raw_weights[jv]);
        gw[v] = r->gamma[jv] * r->weights[jv];
        r->raw_weights[jw] -= eta * row[jw] / row[jv];
        r->weights[jw] = fh_squash(r->raw_weights[jw]);
        gw[w] = r->gamma[jw] * r->weights[jw];
    }

    memset(r->counts, 0, (size_t)k0 * sizeof *r->counts);
    for (int64_t i = 0; i < n; i++)
        r->counts[assignments[i]] += 1;
    for (int64_t j = 0; j < k0; j++)
        if (r->counts[j] > 0)
            memset(r->sums + j * d, 0, (size_t)d * sizeof *r->sums);
    for (int64_t i = 0; i < n; i++) {
        double *sum = r->sums + assignments[i] * d;
        for (int64_t z = 0; z < d; z++)
            sum[z] += r->values[i * d + z];
    }
    for (int64_t j = 0; j < k0; j++) {
        if (r->counts[j] > 0 && r->active[j])
            for (int64_t z = 0; z < d; z++)
                r->centroids[j * d + z] = r->sums[j * d + z] / (double)r->counts[j];
        if (r->counts[j] > 0)
            r->streaks[j] = 0;
        else if (r->active[j])
            r->streaks[j] += 1;
    }

    int64_t survivors = 0;
    for (int64_t t = 0; t < na; t++) {
        int64_t j = act[t];
        if (r->weights[j] < r->threshold || r->streaks[j] >= r->dead_epochs)
            r->active[j] = 0;
        else
            survivors++;
    }
    if (survivors < 2 && survivors < na) {
        int64_t first = act[0], second = -1;
        for (int64_t t = 1; t < na; t++)
            if (outranks(r, act[t], first))
                first = act[t];
        for (int64_t t = 0; t < na; t++)
            if (act[t] != first && (second < 0 || outranks(r, act[t], second)))
                second = act[t];
        for (int64_t t = 0; t < na; t++)
            r->active[act[t]] = act[t] == first || act[t] == second;
    }

    int64_t orphans = 0;
    for (int64_t i = 0; i < n; i++)
        orphans += !r->active[assignments[i]];
    return orphans;
}

/* numpy's pairwise_sum of the count doubles at a, the order in which
 * sum(axis=-1) adds one row: pairwise_terms for a single value. */
static double pairwise_sum(const double *a, int64_t count)
{
    if (count < UNROLL) {
        double res = 0.0;
        for (int64_t z = 0; z < count; z++)
            res += a[z];
        return res;
    }
    if (count <= PAIRWISE_BLOCK) {
        double r[UNROLL];
        int64_t end = count - count % UNROLL, z;
        for (int q = 0; q < UNROLL; q++)
            r[q] = a[q];
        for (z = UNROLL; z < end; z += UNROLL)
            for (int q = 0; q < UNROLL; q++)
                r[q] += a[z + q];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; z < count; z++)
            res += a[z];
        return res;
    }
    int64_t half = count / 2;
    half -= half % UNROLL;
    return pairwise_sum(a, half) + pairwise_sum(a + half, count - half);
}

/* Step one of a feature-weight refresh, from the assignments of every object
 * (after the orphan reassignment). The live clusterlets are those that own
 * an object: their member counts go to r->members, their indices ascending
 * to r->live and their positions in it to r->remap. Returns how many are
 * live, or -1, writing no M row, if an object's clusterlet is inactive or
 * out of range. One live clusterlet gets the uniform row 1/d and nothing
 * else is done. Otherwise the first n x k entries of r->onehot become the
 * object x live one-hot, and r->compact the exponents -0.5 (x - c)^2 of each
 * object against its own centroid, for Python to exponentiate in place. */
int64_t fh_refresh_live(struct fh_run *r, const int64_t *assignments)
{
    int64_t n = r->n, d = r->d, k0 = r->k0, k = 0;
    memset(r->members, 0, (size_t)k0 * sizeof *r->members);
    for (int64_t i = 0; i < n; i++) {
        int64_t a = assignments[i];
        if (a < 0 || a >= k0 || !r->active[a])
            return -1;
        r->members[a] += 1;
    }
    for (int64_t j = 0; j < k0; j++) {
        r->remap[j] = r->members[j] > 0 ? k : -1;
        if (r->members[j] > 0)
            r->live[k++] = j;
    }
    if (k == 1) {
        for (int64_t z = 0; z < d; z++)
            r->rows[r->live[0] * d + z] = 1.0 / (double)d;
        return 1;
    }
    memset(r->onehot, 0, (size_t)(n * k) * sizeof *r->onehot);
    for (int64_t i = 0; i < n; i++) {
        int64_t a = assignments[i];
        const double *x = r->values + i * d, *c = r->centroids + a * d;
        r->onehot[i * k + r->remap[a]] = 1.0;
        for (int64_t z = 0; z < d; z++) {
            double t = x[z] - c[z];
            r->compact[i * d + z] = -0.5 * (t * t);
        }
    }
    return k;
}

/* Unbiased variance from a sum of squares, a count and a mean; 0 for a
 * singleton, then floored as np.maximum floors (NaN stays NaN). */
static double variance(double sq_sum, double count, double mean, double floor)
{
    double dof = count - 1.0 > 1.0 ? count - 1.0 : 1.0;
    double var = count <= 1.0 ? 0.0 : (sq_sum - count * (mean * mean)) / dof;
    return var < floor ? floor : var;
}

/* Step two, once Python has put the member sums of x, x^2 and exp(compact)
 * of the k live clusterlets into r->sum_x, r->sum_xx and r->sum_compact.
 * With mu, var the mean and floored unbiased variance of a feature inside
 * the clusterlet and mu_bar, var_bar those outside it, r->sum_x gets the
 * overlap scale sqrt(2 sqrt(var var_bar) / (var + var_bar)) and r->sum_xx
 * the exponent -(mu - mu_bar)^2 / (4 (var + var_bar)), for Python to
 * exponentiate in place. */
void fh_refresh_overlap(struct fh_run *r, int64_t k)
{
    int64_t d = r->d;
    const double *total_x = r->totals, *total_xx = r->totals + d;
    for (int64_t t = 0; t < k; t++) {
        double count = (double)r->members[r->live[t]];
        double rest = (double)r->n - count;
        double *s1 = r->sum_x + t * d, *s2 = r->sum_xx + t * d;
        for (int64_t z = 0; z < d; z++) {
            double mu = s1[z] / count;
            double mu_bar = (total_x[z] - s1[z]) / rest;
            double var = variance(s2[z], count, mu, r->variance_floor);
            double var_bar = variance(total_xx[z] - s2[z], rest, mu_bar,
                                      r->variance_floor);
            double gap = mu - mu_bar;
            s1[z] = sqrt(2.0 * sqrt(var * var_bar) / (var + var_bar));
            s2[z] = -(gap * gap) / (4.0 * (var + var_bar));
        }
    }
}

/* Step three, once Python has exponentiated r->sum_xx: alpha =
 * sqrt(max(1 - scale e, 0)), the Hellinger distance of the two Gaussian
 * fits, beta = sqrt(sum_compact) / count, and each live row alpha beta over
 * its sum, or the uniform row 1/d where that sum is <= 0. The rows are
 * checked as a FeatureClusterMatrix checks them and only then copied into
 * the M rows of the live clusterlets. Returns how many rows fell back to
 * uniform, or, writing no M row, -1 if an entry lies outside
 * [-entry_tolerance, 1 + entry_tolerance] and else -2 if a row sum is
 * further than row_sum_tolerance from 1 (or NaN). */
int64_t fh_refresh_rows(struct fh_run *r, int64_t k)
{
    int64_t d = r->d, fallbacks = 0;
    double lo = -r->entry_tolerance, hi = 1.0 + r->entry_tolerance;
    int out_of_range = 0, off_sum = 0;
    for (int64_t t = 0; t < k; t++) {
        double count = (double)r->members[r->live[t]];
        double *product = r->sum_x + t * d, *row = r->sum_xx + t * d;
        const double *compact = r->sum_compact + t * d;
        for (int64_t z = 0; z < d; z++) {
            double gap = 1.0 - product[z] * row[z];
            double alpha = sqrt(gap < 0.0 ? 0.0 : gap);
            product[z] = alpha * (sqrt(compact[z]) / count);
        }
        double sum = pairwise_sum(product, d);
        if (sum <= 0.0)
            fallbacks++;
        for (int64_t z = 0; z < d; z++) {
            row[z] = sum <= 0.0 ? 1.0 / (double)d : product[z] / sum;
            out_of_range |= row[z] < lo || row[z] > hi;
        }
        off_sum |= !(fabs(pairwise_sum(row, d) - 1.0) <= r->row_sum_tolerance);
    }
    if (out_of_range)
        return -1;
    if (off_sum)
        return -2;
    for (int64_t t = 0; t < k; t++)
        memcpy(r->rows + r->live[t] * d, r->sum_xx + t * d, (size_t)d * sizeof *r->rows);
    return fallbacks;
}

/* Lloyd k-means of the n x d values from the k x d centroids, updated in
 * place, for at most max_iters iterations; the final assignments go to
 * assignments. by_feature holds the values d x n and ones is a k x d block
 * of 1.0, so each distance is distances() with unit scale, (1.0 * (x - c))^2
 * = (x - c)^2, in numpy's pairwise order. Each iteration: the first index of
 * the smallest distance (NaN first, as argmin) into next; each empty cluster,
 * ascending, takes the first object of the largest own distance, which then
 * reads -inf (the counts are not updated in between); a stop if next repeats
 * the assignments; then the mean of each nonempty cluster's members, an
 * empty one keeping its centroid. A mean adds in object order from 0.0, as
 * numpy's axis-0 mean of a d >= 2 member block does; at d = 1 numpy reduces
 * the m members as one contiguous run, so the mean is 0.0 plus pairwise_sum
 * of them, grouped by cluster into scratch. Returns 0, or -1 if a block of
 * distances could not be allocated. */
int fh_kmeans(int64_t n, int64_t d, int64_t k, int64_t max_iters,
              const double *values, double *centroids, const double *by_feature,
              const double *ones, double *dists, int64_t *assignments,
              int64_t *next, int64_t *counts, double *scratch)
{
    for (int64_t i = 0; i < n; i++)
        assignments[i] = -1;
    for (int64_t iter = 0; iter < max_iters; iter++) {
        if (distances(by_feature, d, n, centroids, ones, k, dists, 0))
            return -1;
        memset(counts, 0, (size_t)k * sizeof *counts);
        for (int64_t i = 0; i < n; i++) {
            const double *row = dists + i * k;
            int64_t best = 0;
            for (int64_t j = 1; j < k; j++)
                if (row[j] < row[best] || (isnan(row[j]) && !isnan(row[best])))
                    best = j;
            next[i] = best;
            counts[best] += 1;
        }
        int own = 0;
        for (int64_t j = 0; j < k; j++) {
            if (counts[j] > 0)
                continue;
            if (!own) {
                for (int64_t i = 0; i < n; i++)
                    scratch[i] = dists[i * k + next[i]];
                own = 1;
            }
            int64_t far = 0;
            for (int64_t i = 1; i < n; i++)
                if (scratch[i] > scratch[far] || (isnan(scratch[i]) && !isnan(scratch[far])))
                    far = i;
            next[far] = j;
            scratch[far] = -INFINITY;
        }
        if (memcmp(next, assignments, (size_t)n * sizeof *next) == 0)
            break;
        memcpy(assignments, next, (size_t)n * sizeof *next);

        memset(counts, 0, (size_t)k * sizeof *counts);
        for (int64_t i = 0; i < n; i++)
            counts[assignments[i]] += 1;
        if (d == 1) {
            /* counts become the start of each cluster's run in scratch, and
             * after the scatter its end */
            for (int64_t j = 0, start = 0; j < k; j++) {
                int64_t m = counts[j];
                counts[j] = start;
                start += m;
            }
            for (int64_t i = 0; i < n; i++)
                scratch[counts[assignments[i]]++] = values[i];
            for (int64_t j = 0, start = 0; j < k; start = counts[j++])
                if (counts[j] > start)
                    centroids[j] = (0.0 + pairwise_sum(scratch + start, counts[j] - start))
                                   / (double)(counts[j] - start);
        } else {
            for (int64_t j = 0; j < k; j++)
                if (counts[j] > 0)
                    memset(centroids + j * d, 0, (size_t)d * sizeof *centroids);
            for (int64_t i = 0; i < n; i++) {
                double *sum = centroids + assignments[i] * d;
                for (int64_t z = 0; z < d; z++)
                    sum[z] += values[i * d + z];
            }
            for (int64_t j = 0; j < k; j++)
                for (int64_t z = 0; counts[j] > 0 && z < d; z++)
                    centroids[j * d + z] /= (double)counts[j];
        }
    }
    return 0;
}
