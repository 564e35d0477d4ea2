/* The compiled steps of competitive penalized learning: the weighted
 * distances, the squash, the epoch bookkeeping and the feature-weight
 * refresh of run_cpl; fh_fragments, the draws and the whole Lloyd loops of
 * the k-means that fragments the ground-truth clusters
 * (federation.kmeans_clusters), on as many threads as call it at once; and
 * fh_ward, the Ward agglomeration that gives the server's final partition.
 *
 * A run_cpl run is one kernel call, fh_cpl, on the buffers of struct fh_run:
 * besides the values, two numpy arenas that run_cpl lays out (cpl._Run), one
 * for the similarity cache and one for every other buffer. fh_cpl seeds the
 * run's initial state from the indices of its seed objects (seed_run; the
 * indices come from fh_choice below), adds the column totals once
 * (column_totals), transposes the values into blocks of LANE objects once
 * (blocks), and runs the epochs. Each epoch, fh_columns recomputes the
 * similarity columns whose rows changed from those blocks and writes their
 * floored exp(-D) into the n x k0 cache, fh_epoch does the rest of the epoch
 * (gamma, the presentation loop, the win counts, the centroid means, the
 * empty streaks and the deactivation),
 * reassign_orphans moves the objects of deactivated clusterlets, the
 * assignments are compared with those of the two epochs before, and unless
 * they repeat either, fh_refresh recomputes the feature weights of the
 * clusterlets whose members or centroid changed since the last refresh.
 * After the last epoch, a client's run folds each clusterlet with fewer
 * members than its floor into the nearest other (fold), so each centroid it
 * uploads is the mean of at least that many objects; then compact packs the
 * surviving clusterlets to the front of the state arrays and remaps the
 * final assignments onto them, so run_cpl only copies the result out.
 *
 * The arithmetic is fixed, and the scalar forms kept as oracles in
 * tests/oracles.py repeat it bit for bit: every distance adds its feature
 * terms (s (x - c))^2 in sequence from 0.0; every exp is fexp below, one
 * fixed sequence of operations on arguments <= 0 that the compiler may run
 * across a vector of entries without changing any entry's bits; every
 * per-cluster sum and column total adds in object order from 0.0, and every
 * row sum in feature order from 0.0; the winner and rival keep numpy
 * argmax's first-index tie rule (strict > comparisons only), and the orphan
 * and k-means argmin and the k-means argmax theirs. Built without
 * -ffast-math and with -ffp-contract=off (see _kernel.py), so no operation is
 * reordered or fused.
 *
 * Two loops are cloned per x86-64 level, each clone picked at load time:
 * exps for x86-64-v4, v3 and the default level, and the distance tiles
 * (tile_terms) for v3 and the default level only, since GCC's v4 code for
 * that loop is slower than its default code. Every clone gives the same
 * bits. The kernel allocates nothing and keeps no state between calls: its
 * scratch is numpy's too, so calls on disjoint buffers, and fh_fragments
 * calls that share one counter, may run at once on several threads. The
 * package calls fh_cpl, fh_fragments, fh_ward and fh_choice, the seeded draw
 * of the objects that start a run or a k-means (a partial Fisher-Yates
 * shuffle on SplitMix64, all 64-bit integer code, which tests/oracles.py
 * repeats); every other function is static.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Objects per block of the distances. A block's terms are added across a
 * lane of this many objects, one lane entry per object, so the compiler may
 * vectorize over objects without reordering any single entry's sum. */
#define LANE 64
/* Rows per tile: a block's distances to TILE rows are computed together. */
#define TILE 8
/* Objects of a block whose sums are kept in registers at a time. */
#define CHUNK 8

/* The coefficients 1/i! of the degree-13 Taylor polynomial of exp, by
 * parity: the odd ones from i = 13 down to i = 3, the even ones from i = 12
 * down to i = 2, each in Horner's order. */
static const double EXP_ODD[6] = {
    0x1.6124613a86d09p-33, 0x1.ae64567f544e4p-26, 0x1.71de3a556c734p-19,
    0x1.a01a01a01a01ap-13, 0x1.1111111111111p-7, 0x1.5555555555555p-3,
};
static const double EXP_EVEN[6] = {
    0x1.1eed8eff8d898p-29, 0x1.27e4fb7789f5cp-22, 0x1.a01a01a01a01ap-16,
    0x1.6c16c16c16c17p-10, 0x1.5555555555555p-5, 0x1.0p-1,
};

/* exp(x) for x <= 0 or NaN, within 1 ulp of libm's exp on [-708, 0], the
 * kernel's only exp. x is clamped at -708 (NaN compares false and stays), so
 * 2^k below stays a normal number; then k = rint(x / ln 2) by the 1.5 * 2^52
 * shift, which leaves k in the low bits of the sum; the Cody-Waite
 * reduction r = x - k ln2hi - k ln2lo, where ln2hi has 32 significant bits
 * so that k ln2hi is exact; the Taylor polynomial of r as 1 + (r + s (even +
 * r odd)), s = r^2, with the halves even and odd by Horner's rule in s, two
 * chains of 5 steps rather than one of 13, as accurate; and the product with
 * 2^k, built from its exponent bits. No branch and no libm call, so a loop
 * of fexp can run as vector code. */
static inline double fexp(double x)
{
    x = x < -708.0 ? -708.0 : x;
    double shifted = x * 0x1.71547652b82fep0 + 0x1.8p52, k = shifted - 0x1.8p52;
    double r = x - k * 0x1.62e42feep-1 - k * 0x1.a39ef35793c76p-33, s = r * r;
    double odd = EXP_ODD[0], even = EXP_EVEN[0];
#pragma GCC unroll 8
    for (int i = 1; i < 6; i++) {
        odd = odd * s + EXP_ODD[i];
        even = even * s + EXP_EVEN[i];
    }
    double p = 1.0 + (r + s * (even + r * odd));
    /* the low 12 bits of shifted's bits hold k mod 4096 */
    uint64_t bits;
    memcpy(&bits, &shifted, sizeof bits);
    bits = (bits + 1023) << 52;
    double scale;
    memcpy(&scale, &bits, sizeof scale);
    return p * scale;
}

/* One clone of exps per x86-64 level, the best one the CPU runs picked at
 * load time (by an ifunc, hence glibc). The clones give the same bits: each
 * runs the same IEEE operations per entry, none fused (-ffp-contract=off).
 * TILE_CLONES, the levels of tile_terms, leaves out x86-64-v4 (see there). */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define TILE_CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONES
#define TILE_CLONES
#endif

/* v[i] = fexp(-v[i]) floored at floor for i < m, as np.maximum floors (NaN
 * stays NaN); the loop the compiler runs as vector code. */
CLONES static void exps(double *v, int64_t m, double floor)
{
    for (int64_t i = 0; i < m; i++) {
        double e = fexp(-v[i]);
        v[i] = e < floor ? floor : e;
    }
}

/* One feature's term of a distance, the oracle's (s * (x - c))**2. */
static inline double term(double x, double c, double s)
{
    double t = s * (x - c);
    return t * t;
}

/* acc[t][b] = the distance of object b of a block to row t of a tile, its d
 * terms added in sequence from 0.0. x holds d rows of LANE objects; c and s
 * hold the width centroid rows and scaled rows of the tile, d apart. The
 * sums of CHUNK objects at a time stay in registers. Cloned for x86-64-v3
 * and the default level only (TILE_CLONES): at d = 16 the v3 build of this
 * loop took about half the time per term of the default build, but the v4
 * build two to three times the default's, and a v4 clone would be the one
 * every AVX-512 CPU picks. */
TILE_CLONES static void tile_terms(const double *restrict x,
                                   const double *restrict c,
                                   const double *restrict s, int64_t d,
                                   int64_t width, double acc[TILE][LANE])
{
    for (int64_t t = 0; t < width; t++)
        for (int b0 = 0; b0 < LANE; b0 += CHUNK) {
            double sum[CHUNK] = {0.0};
            for (int64_t z = 0; z < d; z++) {
                double cz = c[t * d + z], sz = s[t * d + z];
                const double *xz = x + z * LANE + b0;
/* the CHUNK sums unrolled into registers; the pragma takes no macro */
#pragma GCC unroll 8
                for (int b = 0; b < CHUNK; b++)
                    sum[b] += term(xz[b], cz, sz);
            }
            for (int b = 0; b < CHUNK; b++)
                acc[t][b0 + b] = sum[b];
        }
}

/* The n x d values x in blocks of LANE objects, each transposed into d x
 * LANE entries of out: the block of the objects from lo (a multiple of
 * LANE) starts at out + lo d, and its entries past the n objects are 0.0.
 * The distances read only this copy, made once per run or k-means. */
static void blocks(const double *x, int64_t n, int64_t d, double *out)
{
    for (int64_t lo = 0; lo < n; lo += LANE, out += d * LANE)
        for (int64_t z = 0; z < d; z++)
            for (int64_t b = 0; b < LANE; b++)
                out[z * LANE + b] = lo + b < n ? x[(lo + b) * d + z] : 0.0;
}

/* out[i][j] = sum_z (scaled[j][z] * (x[i][z] - centroids[j][z]))^2 for the
 * n x d values x, given as their blocks (blocks), the k x d rows centroids
 * and scaled, and the n x k out: the distances of the k-means. */
static void fh_dissimilarities(const double *blocked, int64_t n, int64_t d,
                               const double *centroids, const double *scaled,
                               int64_t k, double *out)
{
    double acc[TILE][LANE];
    for (int64_t lo = 0; lo < n; lo += LANE) {
        int64_t m = n - lo < LANE ? n - lo : LANE;
        for (int64_t j0 = 0; j0 < k; j0 += TILE) {
            int64_t width = k - j0 < TILE ? k - j0 : TILE;
            tile_terms(blocked + lo * d, centroids + j0 * d, scaled + j0 * d, d, width,
                       acc);
            for (int64_t b = 0; b < m; b++)
                for (int64_t t = 0; t < width; t++)
                    out[(lo + b) * k + j0 + t] = acc[t][b];
        }
    }
}

/* Sigmoid squash of a raw weight into (0, 1): 1 / (1 + e^{-10(raw + 5)}),
 * in the numerically stable two-branch form; the least weight is exp(-708) /
 * (1 + exp(-708)), as fexp clamps. squash(0.0) is 1.0: 1 + fexp(-50) rounds
 * to 1. */
static inline double squash(double raw)
{
    double z = 10.0 * (raw + 5.0);
    if (z >= 0.0)
        return 1.0 / (1.0 + fexp(-z));
    double e = fexp(z);
    return e / (1.0 + e);
}

/* Every buffer of one run_cpl call, allocated by numpy; the layout of Run in
 * _kernel.py. All arrays are C-contiguous; k x d arrays hold one row per
 * clusterlet. Besides the values, run_cpl places them all in its arenas. */
struct fh_run {
    int64_t n, d, k0;
    double floor;               /* SIMILARITY_FLOOR */
    double threshold;           /* ELIMINATION_THRESHOLD */
    int64_t dead_epochs;        /* DEAD_UNIT_EPOCHS */
    double variance_floor;      /* VARIANCE_FLOOR */
    double entry_tolerance;     /* ENTRY_TOLERANCE */
    double row_sum_tolerance;   /* ROW_SUM_TOLERANCE */
    int64_t min_members;        /* the fold's member floor; 1 skips the fold */
    const double *values;       /* n x d */
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
    int64_t *assignments;       /* 3 x n, a ring: epoch e writes row e % 3 */
    int64_t *counts;            /* k0, the members of each clusterlet */
    double *sums;               /* k0 x d, the member sums of x */
    int64_t *streaks;           /* k0, consecutive memberless epochs */
    double *gamma;              /* k0 */
    double *gw;                 /* k0, gamma * weight of the active, compact */
    double *totals;             /* 2 x d, the column sums of x and of x^2 */
    double *sum_xx;             /* k0 x d, the member sums of x^2 */
    double *sum_compact;        /* k0 x d, the member sums of exp(-(x - c)^2 / 2) */
    double *terms;              /* n x d, the objects' exp(-(x - c)^2 / 2) */
    double *blocked;            /* d LANE per LANE objects, the values' blocks */
    double *pad;                /* 2 k0 d, the columns' scratch */
    double *row_centroids;      /* k0 x d, the centroid each M row was made from */
    uint8_t *fell_back;         /* k0, whether each M row last fell back to 1/d */
    uint8_t *redo;              /* k0, the refresh's rows to recompute and the
                                   centroids that means recomputes */
};

/* Recompute the similarity columns whose rows changed: the active columns
 * whose centroid row or M row compares unequal to the rows stored for them,
 * ascending, into r->stale. Their new rows are stored, and column j of
 * r->sims gets exp(-D_ij) floored at r->floor, as np.maximum floors (NaN
 * stays NaN), where D_ij is the distance of object i to centroid row j with
 * the scaled row d * m_j. The centroid rows and scaled rows of the stale
 * columns are gathered first, into r->pad; then the distances of each block
 * of objects of r->blocked, made once per run, to each tile of those rows
 * turn into floored exps in place, one row of LANE at a time. Returns how
 * many columns were recomputed.
 * NaN compares unequal to everything, so the NaN rows stored at the start
 * make every column stale once. */
static int64_t fh_columns(struct fh_run *r)
{
    int64_t n = r->n, d = r->d, k0 = r->k0, count = 0;
    for (int64_t j = 0; j < k0; j++) {
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
    if (count == 0)
        return 0;
    double acc[TILE][LANE];
    double *c = r->pad, *s = c + d * count;
    for (int64_t t = 0; t < count; t++)
        for (int64_t z = 0; z < d; z++) {
            c[t * d + z] = r->centroids[r->stale[t] * d + z];
            s[t * d + z] = (double)d * r->rows[r->stale[t] * d + z];
        }
    for (int64_t lo = 0; lo < n; lo += LANE) {
        int64_t m = n - lo < LANE ? n - lo : LANE;
        for (int64_t j0 = 0; j0 < count; j0 += TILE) {
            const int64_t *cols = r->stale + j0;
            int64_t width = count - j0 < TILE ? count - j0 : TILE;
            tile_terms(r->blocked + lo * d, c + j0 * d, s + j0 * d, d, width, acc);
            for (int64_t t = 0; t < width; t++)
                exps(acc[t], LANE, r->floor);
            for (int64_t b = 0; b < m; b++) {
                double *row = r->sims + (lo + b) * k0;
                for (int64_t t = 0; t < width; t++)
                    row[cols[t]] = acc[t][b];
            }
        }
    }
    return count;
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

/* The centroid of each clusterlet j with mark[j] set becomes the mean of its
 * members in the n assignments row: their values added in object order from
 * 0.0 into r->sums, over their count, which r->counts must hold. */
static void means(struct fh_run *r, const int64_t *row, const uint8_t *mark)
{
    int64_t n = r->n, d = r->d, k0 = r->k0;
    for (int64_t j = 0; j < k0; j++)
        if (mark[j])
            memset(r->sums + j * d, 0, (size_t)d * sizeof *r->sums);
    for (int64_t i = 0; i < n; i++) {
        if (!mark[row[i]])
            continue;
        double *sum = r->sums + row[i] * d;
        for (int64_t z = 0; z < d; z++)
            sum[z] += r->values[i * d + z];
    }
    for (int64_t j = 0; j < k0; j++)
        for (int64_t z = 0; mark[j] && z < d; z++)
            r->centroids[j * d + z] = r->sums[j * d + z] / (double)r->counts[j];
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
static int64_t fh_epoch(struct fh_run *r, double eta, int64_t out)
{
    int64_t n = r->n, k0 = r->k0, na = 0, total = 0;
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
        r->weights[jv] = squash(r->raw_weights[jv]);
        gw[v] = r->gamma[jv] * r->weights[jv];
        r->raw_weights[jw] -= eta * row[jw] / row[jv];
        r->weights[jw] = squash(r->raw_weights[jw]);
        gw[w] = r->gamma[jw] * r->weights[jw];
    }

    memset(r->counts, 0, (size_t)k0 * sizeof *r->counts);
    for (int64_t i = 0; i < n; i++)
        r->counts[assignments[i]] += 1;
    /* every winner is active */
    for (int64_t j = 0; j < k0; j++) {
        r->redo[j] = r->counts[j] > 0;
        if (r->counts[j] > 0)
            r->streaks[j] = 0;
        else if (r->active[j])
            r->streaks[j] += 1;
    }
    means(r, assignments, r->redo);

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

/* Unbiased variance from a sum of squares, a count and a mean; 0 for a
 * singleton, then floored as np.maximum floors (NaN stays NaN). */
static double variance(double sq_sum, double count, double mean, double floor)
{
    double dof = count - 1.0 > 1.0 ? count - 1.0 : 1.0;
    double var = count <= 1.0 ? 0.0 : (sq_sum - count * (mean * mean)) / dof;
    return var < floor ? floor : var;
}

/* The column sums of the n x d values x and of x^2 into r->totals, in object
 * order from 0.0; they hold for the whole run, so fh_cpl adds them once. */
static void column_totals(struct fh_run *r)
{
    int64_t n = r->n, d = r->d;
    double *total_x = r->totals, *total_xx = r->totals + d;
    memset(r->totals, 0, (size_t)(2 * d) * sizeof *r->totals);
    for (int64_t i = 0; i < n; i++)
        for (int64_t z = 0; z < d; z++) {
            double x = r->values[i * d + z];
            total_x[z] += x;
            total_xx[z] += x * x;
        }
}

/* The feature-weight refresh from the assignments of every object (after the
 * orphan reassignment), with r->totals made by column_totals: the M rows of the
 * live clusterlets, those that own an object, are brought up to date; the
 * others keep theirs. One live clusterlet gets the uniform row 1/d, and its
 * stored centroid becomes NaN so that its next refresh recomputes it.
 *
 * A live row is a function of its members in object order, its centroid and
 * the run's constants alone. previous holds the assignments of the last
 * refresh that returned >= 0, or is NULL; a live row is recomputed when
 * previous is NULL, when an object joined or left the clusterlet since
 * previous, or when its centroid compares unequal to the one stored in
 * r->row_centroids when the row was last made (NaN at the start of a run,
 * unequal to everything, so the first refresh recomputes every row). Any
 * other live row is kept: it is bitwise the row a recomputation would give
 * (±0.0 compare equal and square to the same terms), and it counts as a
 * fallback again when r->fell_back says it was one.
 *
 * One pass over every object counts the members into r->counts and marks the
 * rows to recompute in r->redo. Then one pass over the members of those rows
 * forms their sums of x and x^2 into r->sums and r->sum_xx and the halved
 * squares (x - c)^2 / 2 against the member's own centroid into r->terms,
 * packed in object order; one call of exps turns all of those into
 * compactness terms, and a second pass adds them into r->sum_compact, in
 * object order. With mu, var the mean and floored unbiased variance of a
 * feature inside the clusterlet and mu_bar, var_bar those outside it, alpha =
 * sqrt(max(1 - sqrt(2 sqrt(var var_bar) / (var + var_bar)) exp(-(mu -
 * mu_bar)^2 / (4 (var + var_bar))), 0)) is the Hellinger distance of the two
 * Gaussian fits, beta = sqrt(sum_compact) / count, and each row is alpha beta
 * over its sum, or the uniform row 1/d where that sum is <= 0. The rows are
 * checked as a FeatureClusterMatrix checks them and only then copied into the
 * M rows, with their centroids and fallback flags. Returns how many live rows
 * are fallbacks, or, writing no M row, -1 if an object's clusterlet is
 * inactive or out of range, -2 if an entry lies outside [-entry_tolerance, 1
 * + entry_tolerance] and else -3 if a row sum is further than
 * row_sum_tolerance from 1 (or NaN). */
static int64_t fh_refresh(struct fh_run *r, const int64_t *assignments,
                          const int64_t *previous)
{
    int64_t n = r->n, d = r->d, k0 = r->k0, live = 0, last = 0, fallbacks = 0;
    const double *total_x = r->totals, *total_xx = r->totals + d;
    /* 1 recomputes a row; a recomputed row that fell back becomes 2 */
    uint8_t *redo = r->redo;
    memset(r->counts, 0, (size_t)k0 * sizeof *r->counts);
    memset(redo, previous == NULL, (size_t)k0);
    for (int64_t i = 0; i < n; i++) {
        int64_t a = assignments[i];
        if (a < 0 || a >= k0 || !r->active[a])
            return -1;
        if (r->counts[a]++ == 0) {
            live++;
            last = a;
        }
        if (previous != NULL && previous[i] != a)
            redo[a] = redo[previous[i]] = 1;
    }
    if (live == 1) {
        for (int64_t z = 0; z < d; z++) {
            r->rows[last * d + z] = 1.0 / (double)d;
            r->row_centroids[last * d + z] = NAN;
        }
        return 0;
    }
    for (int64_t j = 0; j < k0; j++) {
        if (r->counts[j] == 0)
            continue;
        const double *c = r->centroids + j * d, *stored = r->row_centroids + j * d;
        int64_t z = 0;
        while (z < d && stored[z] == c[z])
            z++;
        redo[j] |= z < d;
        if (redo[j]) {
            memset(r->sums + j * d, 0, (size_t)d * sizeof *r->sums);
            memset(r->sum_xx + j * d, 0, (size_t)d * sizeof *r->sum_xx);
            memset(r->sum_compact + j * d, 0, (size_t)d * sizeof *r->sum_compact);
        }
    }
    int64_t packed = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = assignments[i];
        if (!redo[a])
            continue;
        const double *x = r->values + i * d, *c = r->centroids + a * d;
        double *term = r->terms + packed++ * d;
        for (int64_t z = 0; z < d; z++) {
            double t = x[z] - c[z];
            term[z] = 0.5 * (t * t);
            r->sums[a * d + z] += x[z];
            r->sum_xx[a * d + z] += x[z] * x[z];
        }
    }
    exps(r->terms, packed * d, 0.0);
    packed = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = assignments[i];
        if (!redo[a])
            continue;
        const double *term = r->terms + packed++ * d;
        for (int64_t z = 0; z < d; z++)
            r->sum_compact[a * d + z] += term[z];
    }

    double lo = -r->entry_tolerance, hi = 1.0 + r->entry_tolerance;
    int out_of_range = 0, off_sum = 0;
    for (int64_t j = 0; j < k0; j++) {
        if (r->counts[j] == 0 || !redo[j])
            continue;
        double count = (double)r->counts[j], rest = (double)n - count, sum = 0.0;
        /* the sums of x become the overlaps' scale factors and then the
         * products alpha beta, the sums of x^2 the exps' arguments and then
         * the row */
        double *product = r->sums + j * d, *row = r->sum_xx + j * d;
        const double *compact = r->sum_compact + j * d;
        for (int64_t z = 0; z < d; z++) {
            double mu = product[z] / count;
            double mu_bar = (total_x[z] - product[z]) / rest;
            double var = variance(row[z], count, mu, r->variance_floor);
            double var_bar = variance(total_xx[z] - row[z], rest, mu_bar,
                                      r->variance_floor);
            double gap = mu - mu_bar;
            product[z] = sqrt(2.0 * sqrt(var * var_bar) / (var + var_bar));
            row[z] = (gap * gap) / (4.0 * (var + var_bar));
        }
        /* fexp(-(a / b)) is fexp(-a / b): IEEE division is sign-symmetric;
         * no exp is negative, so the floor 0.0 changes nothing */
        exps(row, d, 0.0);
        for (int64_t z = 0; z < d; z++) {
            double h = 1.0 - product[z] * row[z];
            product[z] = sqrt(h < 0.0 ? 0.0 : h) * (sqrt(compact[z]) / count);
            sum += product[z];
        }
        if (sum <= 0.0)
            redo[j] = 2;
        double check = 0.0;
        for (int64_t z = 0; z < d; z++) {
            row[z] = sum <= 0.0 ? 1.0 / (double)d : product[z] / sum;
            out_of_range |= row[z] < lo || row[z] > hi;
            check += row[z];
        }
        off_sum |= !(fabs(check - 1.0) <= r->row_sum_tolerance);
    }
    if (out_of_range)
        return -2;
    if (off_sum)
        return -3;
    for (int64_t j = 0; j < k0; j++) {
        if (r->counts[j] == 0)
            continue;
        if (redo[j]) {
            memcpy(r->rows + j * d, r->sum_xx + j * d, (size_t)d * sizeof *r->rows);
            memcpy(r->row_centroids + j * d, r->centroids + j * d,
                   (size_t)d * sizeof *r->row_centroids);
            r->fell_back[j] = redo[j] == 2;
        }
        fallbacks += r->fell_back[j];
    }
    return fallbacks;
}

/* Each object of the n assignments whose clusterlet is inactive goes to the
 * nearest active one, scanned in ascending index: the distance adds the terms
 * (d m_jz (x_iz - c_jz))^2 in feature order from 0.0, as fh_dissimilarities
 * does, and the first index of the smallest wins, a NaN first (argmin's
 * rule). Each clusterlet that receives an object is marked in received,
 * unless it is NULL. */
static void reassign_orphans(const struct fh_run *r, int64_t *assignments,
                             uint8_t *received)
{
    int64_t n = r->n, d = r->d, k0 = r->k0;
    for (int64_t i = 0; i < n; i++) {
        if (r->active[assignments[i]])
            continue;
        const double *x = r->values + i * d;
        int64_t best = -1;
        double least = 0.0;
        for (int64_t j = 0; j < k0; j++) {
            if (!r->active[j])
                continue;
            const double *c = r->centroids + j * d, *m = r->rows + j * d;
            double dist = 0.0;
            for (int64_t z = 0; z < d; z++)
                dist += term(x[z], c[z], (double)d * m[z]);
            if (best < 0 || dist < least || (isnan(dist) && !isnan(least))) {
                best = j;
                least = dist;
            }
        }
        assignments[i] = best;
        if (received != NULL)
            received[best] = 1;
    }
}

/* The fold of a run's final assignments row, after its last epoch: every
 * active clusterlet with fewer than r->min_members members is deactivated,
 * and the objects of those that own any go to the nearest active clusterlet
 * (reassign_orphans). If no clusterlet has that many members, the first
 * active one stays active and every object goes to it instead. Each
 * clusterlet that received an object gets its centroid recomputed as the
 * mean of its members, added in object order from 0.0; its other state and
 * its M row stay those of the last epoch. Returns how many clusterlets that
 * owned an object were folded into another. */
static int64_t fold(struct fh_run *r, int64_t *row)
{
    int64_t n = r->n, k0 = r->k0, first = -1, kept = 0, folded = 0;
    uint8_t *received = r->redo;
    memset(r->counts, 0, (size_t)k0 * sizeof *r->counts);
    memset(received, 0, (size_t)k0);
    for (int64_t i = 0; i < n; i++)
        r->counts[row[i]] += 1;
    for (int64_t j = 0; j < k0; j++) {
        if (!r->active[j])
            continue;
        if (first < 0)
            first = j;
        if (r->counts[j] >= r->min_members)
            kept++;
        else {
            r->active[j] = 0;
            folded += r->counts[j] > 0;
        }
    }
    if (kept == 0) {
        r->active[first] = 1;
        folded -= r->counts[first] > 0;
        for (int64_t i = 0; i < n; i++)
            if (row[i] != first) {
                row[i] = first;
                received[first] = 1;
            }
    } else
        reassign_orphans(r, row, received);
    memset(r->counts, 0, (size_t)k0 * sizeof *r->counts);
    for (int64_t i = 0; i < n; i++)
        r->counts[row[i]] += 1;
    means(r, row, received);
    return folded;
}

/* The initial state of a run from the indices of its k0 seed objects:
 * centroid j is a copy of the values of object seeds[j], with no win, a raw
 * weight of 0.0 and the weight 1.0 (squash(0.0) is 1.0), active, with the
 * uniform M row 1/d, no empty epoch and no fallback. The stored rows of the
 * columns and the centroids of the M rows are NaN, which compares unequal
 * to everything, so the first epoch computes every column and the first
 * refresh every live row. */
static void seed_run(struct fh_run *r, const int64_t *seeds)
{
    int64_t d = r->d, k0 = r->k0;
    for (int64_t j = 0; j < k0; j++) {
        memcpy(r->centroids + j * d, r->values + seeds[j] * d,
               (size_t)d * sizeof *r->centroids);
        r->win_counts[j] = 0;
        r->raw_weights[j] = 0.0;
        r->weights[j] = 1.0;
        r->active[j] = 1;
        r->streaks[j] = 0;
        r->fell_back[j] = 0;
    }
    for (int64_t i = 0; i < k0 * d; i++) {
        r->rows[i] = 1.0 / (double)d;
        r->stored_centroids[i] = r->stored_rows[i] = r->row_centroids[i] = NAN;
    }
}

/* The survivors of a run, the active clusterlets that own an object of the
 * final assignments row, in ascending index: their centroids, win counts,
 * raw weights, weights and M rows move to the front of those arrays, in that
 * order, the first of them become active and the rest inactive, and row is
 * remapped onto them (through r->act). After the orphan reassignment every
 * object's clusterlet is active, so every object keeps one. Returns how
 * many survive. */
static int64_t compact(struct fh_run *r, int64_t *row)
{
    int64_t n = r->n, d = r->d, k0 = r->k0, k = 0, *remap = r->act;
    memset(r->counts, 0, (size_t)k0 * sizeof *r->counts);
    for (int64_t i = 0; i < n; i++)
        r->counts[row[i]] += 1;
    for (int64_t j = 0; j < k0; j++) {
        remap[j] = -1;
        if (!r->active[j] || r->counts[j] == 0)
            continue;
        if (k < j) {
            memcpy(r->centroids + k * d, r->centroids + j * d,
                   (size_t)d * sizeof *r->centroids);
            memcpy(r->rows + k * d, r->rows + j * d, (size_t)d * sizeof *r->rows);
            r->win_counts[k] = r->win_counts[j];
            r->raw_weights[k] = r->raw_weights[j];
            r->weights[k] = r->weights[j];
        }
        remap[j] = k++;
    }
    for (int64_t j = 0; j < k0; j++)
        r->active[j] = j < k;
    for (int64_t i = 0; i < n; i++)
        row[i] = remap[row[i]];
    return k;
}

/* The whole competitive-learning loop of run_cpl, for at most max_epochs
 * epochs (at least one). A run with seeds starts from the state seed_run
 * makes of them; a run without (NULL) from the state already in its
 * buffers. Then the column totals (column_totals), the blocks of the values
 * that every fh_columns reads (blocks) and the epochs: epoch e
 * runs fh_columns and fh_epoch into row e % 3 of the assignment ring,
 * reassigns the objects of deactivated clusterlets (reassign_orphans), and
 * stops, without a refresh, from epoch 1 on if the row repeats the previous
 * one (a fixed point) and from epoch 2 on if it repeats the one of two
 * epochs before (a two-cycle: the run would only oscillate on to the cap).
 * Otherwise it refreshes the feature weights (fh_refresh), against the
 * previous row from epoch 1 on: that row is the last refresh's, since every
 * epoch that does not stop refreshes. So the M rows at the end are those the
 * final epoch scored with. Last, a run whose member floor r->min_members is
 * above 1 folds the clusterlets below it into others (fold), and the
 * survivors are compacted into the front of the state (compact). info gets
 * the epochs used, the stop (0 at the cap, 1 at a fixed point, 2 at a
 * two-cycle), the final row, the fallback rows of every refresh, summed, the
 * survivor count and the folded clusterlets. Returns 0; or, when a step
 * fails, a negative code, with nothing compacted: fh_refresh's -1, -2 or -3,
 * or -4 if an epoch starts with fewer than two active clusterlets. */
int64_t fh_cpl(struct fh_run *r, const int64_t *seeds, double eta,
               int64_t max_epochs, int64_t *info)
{
    int64_t n = r->n, fallbacks = 0, epoch = 0, stop = 0;
    size_t size = (size_t)n * sizeof *r->assignments;
    if (seeds != NULL)
        seed_run(r, seeds);
    column_totals(r);
    blocks(r->values, n, r->d, r->blocked);
    for (; epoch < max_epochs && !stop; epoch++) {
        int64_t *row = r->assignments + (epoch % 3) * n;
        fh_columns(r);
        int64_t orphans = fh_epoch(r, eta, epoch % 3);
        if (orphans < 0)
            return -4;
        if (orphans > 0)
            reassign_orphans(r, row, NULL);
        /* the rows of epochs e - 1 and e - 2 */
        const int64_t *previous = r->assignments + ((epoch + 2) % 3) * n;
        const int64_t *before = r->assignments + ((epoch + 1) % 3) * n;
        if (epoch > 0 && memcmp(row, previous, size) == 0)
            stop = 1;
        else if (epoch > 1 && memcmp(row, before, size) == 0)
            stop = 2;
        else {
            int64_t count = fh_refresh(r, row, epoch > 0 ? previous : NULL);
            if (count < 0)
                return count;
            fallbacks += count;
        }
    }
    int64_t *last = r->assignments + ((epoch - 1) % 3) * n;
    info[0] = epoch;
    info[1] = stop;
    info[2] = (epoch - 1) % 3;
    info[3] = fallbacks;
    info[5] = r->min_members > 1 ? fold(r, last) : 0;
    info[4] = compact(r, last);
    return 0;
}

/* Lloyd k-means of the n x d values x, given also as their blocks
 * (blocks), from the k x d centroids, updated in place, for at most
 * max_iters iterations; the final assignments go to assignments. ones is a
 * k x d block of 1.0, so each distance is fh_dissimilarities with unit scale,
 * (1.0 * (x - c))^2 = (x - c)^2. Each iteration: the first index of the
 * smallest distance (NaN first, as argmin) into next; each empty cluster,
 * ascending, takes the first object of the largest own distance (NaN first,
 * as argmax) among the clusters with more than one member, and the counts
 * follow the move, so no cluster is left empty for 1 <= k <= n; a stop if
 * next repeats the assignments; then each nonempty cluster's mean, its
 * members added in object order from 0.0 and divided by the count, an empty
 * one keeping its centroid. */
static void lloyd(int64_t n, int64_t d, int64_t k, int64_t max_iters,
                  const double *x, const double *blocked, double *centroids,
                  const double *ones, double *dists, int64_t *assignments,
                  int64_t *next, int64_t *counts, double *own)
{
    for (int64_t i = 0; i < n; i++)
        assignments[i] = -1;
    for (int64_t iter = 0; iter < max_iters; iter++) {
        fh_dissimilarities(blocked, n, d, centroids, ones, k, dists);
        memset(counts, 0, (size_t)k * sizeof *counts);
        for (int64_t i = 0; i < n; i++) {
            const double *row = dists + i * k;
            int64_t best = 0;
            for (int64_t j = 1; j < k; j++)
                if (row[j] < row[best] || (isnan(row[j]) && !isnan(row[best])))
                    best = j;
            next[i] = best;
            counts[best] += 1;
            own[i] = row[best];
        }
        for (int64_t j = 0; j < k; j++) {
            if (counts[j] > 0)
                continue;
            int64_t far = -1;
            for (int64_t i = 0; i < n; i++)
                if (counts[next[i]] > 1
                    && (far < 0 || own[i] > own[far] || (isnan(own[i]) && !isnan(own[far]))))
                    far = i;
            counts[next[far]] -= 1;
            counts[j] = 1;
            next[far] = j;
        }
        if (memcmp(next, assignments, (size_t)n * sizeof *next) == 0)
            break;
        memcpy(assignments, next, (size_t)n * sizeof *next);

        for (int64_t j = 0; j < k; j++)
            if (counts[j] > 0)
                memset(centroids + j * d, 0, (size_t)d * sizeof *centroids);
        for (int64_t i = 0; i < n; i++) {
            double *sum = centroids + assignments[i] * d;
            for (int64_t z = 0; z < d; z++)
                sum[z] += x[i * d + z];
        }
        for (int64_t j = 0; j < k; j++)
            for (int64_t z = 0; counts[j] > 0 && z < d; z++)
                centroids[j * d + z] /= (double)counts[j];
    }
}

/* Ward's agglomeration of m >= 1 weighted centres (the m x d centres and
 * their m weights, each > 0) by the nearest-neighbour chain (Murtagh 1983;
 * Mullner, arXiv:1109.2378). cost holds the m x m Ward costs w_a w_b / (w_a +
 * w_b) ||c_a - c_b||^2, the rise in the within-cluster sum of squares if
 * clusters a and b merge, and inf on the diagonal and towards merged
 * clusters. The chain starts from the cluster that the last merge kept (at
 * first, 0) and grows from its top to the top's nearest cluster: the first
 * index of the least cost, or the chain's previous element (at first, the
 * first other live cluster) if none costs less. When the top two are each
 * other's nearest, they merge: the lower index keeps the union, its weight
 * the sum and its costs the Lance-Williams update, and the higher index's
 * weight becomes 0 and its costs inf. Writes the m - 1 merges as (kept,
 * merged) index pairs, with their costs as heights, in the chain's order;
 * Ward's cost is reducible, so the merges sorted by height are the greedy
 * order. chain is m entries of scratch, and weights are overwritten. */
void fh_ward(int64_t m, int64_t d, const double *centres, double *weights,
             double *cost, int64_t *chain, int64_t *merges, double *heights)
{
    for (int64_t a = 0; a < m; a++) {
        cost[a * m + a] = INFINITY;
        for (int64_t b = a + 1; b < m; b++) {
            double sq = 0.0;
            for (int64_t z = 0; z < d; z++)
                sq += term(centres[a * d + z], centres[b * d + z], 1.0);
            cost[a * m + b] = cost[b * m + a] =
                weights[a] * weights[b] / (weights[a] + weights[b]) * sq;
        }
    }
    int64_t length = 0, lo = 0;
    for (int64_t step = 0; step + 1 < m; step++) {
        int64_t a, b;
        if (length == 0)
            chain[length++] = lo;
        for (;;) {
            a = chain[length - 1];
            if (length > 1)
                b = chain[length - 2];
            else
                for (b = 0; b == a || weights[b] == 0.0; b++)
                    ;
            const double *row = cost + a * m;
            double least = row[b];
            for (int64_t x = 0; x < m; x++)
                if (row[x] < least) {
                    least = row[x];
                    b = x;
                }
            if (length > 1 && b == chain[length - 2])
                break;
            chain[length++] = b;
        }
        length -= 2;
        lo = a < b ? a : b;
        int64_t hi = a < b ? b : a;
        double wl = weights[lo], wh = weights[hi], height = cost[lo * m + hi];
        for (int64_t x = 0; x < m; x++) {
            double wx = weights[x];
            cost[x * m + hi] = INFINITY;
            if (x == lo || x == hi || wx == 0.0)
                continue;
            cost[lo * m + x] = cost[x * m + lo] =
                ((wl + wx) * cost[lo * m + x] + (wh + wx) * cost[hi * m + x] - wx * height)
                / (wl + wh + wx);
        }
        weights[lo] = wl + wh;
        weights[hi] = 0.0;
        merges[2 * step] = lo;
        merges[2 * step + 1] = hi;
        heights[step] = height;
    }
}

/* k distinct indices of 0..n-1, 1 <= k <= n, into out: the first k places
 * of a partial Fisher-Yates shuffle of 0..n-1. Each swap place is drawn from
 * SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), whose stream starts at the
 * first output of a SplitMix64 seeded with seed, so that seeds one
 * golden-gamma step apart do not draw one stream shifted by a step. A draw
 * below span redraws while its output is below 2^64 mod span, so each place
 * is equally likely. The shuffle is sparse: a place holds its own index
 * until a swap moves another there, and only the moved places are stored,
 * as (place, entry) pairs in table, an open-addressing hash table of slots
 * pairs (a power of two >= 2k, so at most half fill), probed linearly from
 * a multiplicative hash of the place. So the memory is O(k) whatever n. */
static uint64_t splitmix64(uint64_t *state)
{
    uint64_t z = *state += 0x9e3779b97f4a7c15u;
    z = (z ^ z >> 30) * 0xbf58476d1ce4e5b9u;
    z = (z ^ z >> 27) * 0x94d049bb133111ebu;
    return z ^ z >> 31;
}

/* The pair of place in table: the one that stores it, or the empty pair
 * (place -1) where it would go. */
static int64_t *moved(int64_t *table, uint64_t mask, int64_t place)
{
    uint64_t h = (uint64_t)place * 0x9e3779b97f4a7c15u, s = (h ^ h >> 32) & mask;
    while (table[2 * s] != place && table[2 * s] >= 0)
        s = (s + 1) & mask;
    return table + 2 * s;
}

void fh_choice(uint64_t seed, int64_t n, int64_t k, int64_t *out, int64_t *table,
               int64_t slots)
{
    uint64_t state = splitmix64(&seed), mask = (uint64_t)slots - 1;
    for (int64_t s = 0; s < 2 * slots; s++)
        table[s] = -1;
    for (int64_t i = 0; i < k; i++) {
        uint64_t span = (uint64_t)(n - i), x = splitmix64(&state);
        while (x < -span % span)
            x = splitmix64(&state);
        int64_t j = i + (int64_t)(x % span), *at = moved(table, mask, i);
        /* place i is never read again, so only place j takes its entry */
        int64_t entry = at[0] == i ? at[1] : i;
        at = moved(table, mask, j);
        out[i] = at[0] == j ? at[1] : j;
        at[0] = j;
        at[1] = entry;
    }
}

/* The slots of fh_choice's table for k draws: the least power of two >= 2k. */
static int64_t choice_slots(int64_t k)
{
    int64_t slots = 1;
    while (slots < 2 * k)
        slots <<= 1;
    return slots;
}

/* The fragmentation k-means of count clusters, taken one at a time from
 * order, at the next place of the shared counter *taken, until none is left;
 * calls on other threads take from the same order and counter, so every
 * cluster is split once, by whichever call takes it first. Cluster c is the
 * objects bounds[c] to bounds[c + 1] - 1 of the values, its fragment count k
 * = firsts[c + 1] - firsts[c], 1 <= k <= its objects, and its k-means seed
 * seeds[c]. Its start centroids are copies of the objects that fh_choice
 * draws with that seed, in draw order, written to rows firsts[c] on of
 * centroids; its values are blocked once (blocks), and lloyd moves those
 * centroids to the final means and writes the objects' fragments, 0 to k -
 * 1, from bounds[c] on of assignments. The rest is the call's own scratch,
 * for clusters of at most most_objects objects and most_k fragments: floats
 * holds most_k d ones, the most_objects most_k distances, the most_objects
 * own distances and the blocks of most_objects objects (d LANE per LANE
 * objects, rounded up); ints holds the most_objects next assignments, the
 * most_k counts, the most_k draws and the table of 2 choice_slots(most_k)
 * entries. */
void fh_fragments(int64_t count, int64_t d, int64_t max_iters, int64_t most_objects,
                  int64_t most_k, const int64_t *order, int64_t *taken,
                  const double *values, const int64_t *bounds, const int64_t *firsts,
                  const uint64_t *seeds, double *centroids, int64_t *assignments,
                  double *floats, int64_t *ints)
{
    double *ones = floats, *dists = ones + most_k * d;
    double *own = dists + most_objects * most_k, *blocked = own + most_objects;
    int64_t *next = ints, *counts = next + most_objects, *draws = counts + most_k;
    int64_t *table = draws + most_k;
    for (int64_t i = 0; i < most_k * d; i++)
        ones[i] = 1.0;
    for (int64_t t; (t = __atomic_fetch_add(taken, 1, __ATOMIC_RELAXED)) < count;) {
        int64_t c = order[t], lo = bounds[c], n = bounds[c + 1] - lo;
        int64_t k = firsts[c + 1] - firsts[c];
        const double *x = values + lo * d;
        double *start = centroids + firsts[c] * d;
        fh_choice(seeds[c], n, k, draws, table, choice_slots(k));
        for (int64_t j = 0; j < k; j++)
            memcpy(start + j * d, x + draws[j] * d, (size_t)d * sizeof *start);
        blocks(x, n, d, blocked);
        lloyd(n, d, k, max_iters, x, blocked, start, ones, dists, assignments + lo, next,
              counts, own);
    }
}
