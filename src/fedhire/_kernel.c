/* The compiled steps of competitive penalized learning: the weighted
 * distances, the presentation loop and the squash.
 *
 * Bit for bit the numpy and Python forms kept as oracles in tests/oracles.py:
 * every operation is the same IEEE double operation in the same order. The
 * distances add their per-feature terms in numpy's pairwise_sum order, the
 * order of sum(axis=-1) in the broadcast-and-sum oracle; exp is the libm exp
 * that Python's math.exp calls; the winner and rival keep numpy argmax's
 * first-index tie rule (strict > comparisons only). Built without
 * -ffast-math and with -ffp-contract=off (see _kernel.py), so no operation
 * is reordered or fused.
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
 * centroids and scaled, and the n x k out. The objects go in blocks of LANE;
 * the last, partial block is copied into a zero-padded buffer first. Returns
 * 0, or -1 if that buffer could not be allocated. */
int fh_dissimilarities(const double *x, int64_t d, int64_t n,
                       const double *centroids, const double *scaled,
                       int64_t k, double *out)
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
                    out[(lo + b) * k + j0 + t] = acc[t][b];
        }
    }
    free(pad);
    return 0;
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

/* Present the n rows of the n x k similarity block in order. Row i scores
 * gw[j] * sims[i][j]; the winner v (first index of the maximum) gains eta of
 * raw weight, the rival r (first maximum among the others) loses
 * eta * s_r / s_v. Their weights and gw = gamma * weight are refreshed after
 * each row; winners[i] = v. */
void fh_presentation_epoch(const double *sims, int64_t n, int64_t k,
                           const double *gamma, double *gw, double *raw,
                           double *weights, double eta, int64_t *winners)
{
    for (int64_t i = 0; i < n; i++) {
        const double *row = sims + i * k;
        /* one pass for the winner v and the rival r, the first index of
         * the maximum among the others: when a score beats the best, the
         * old best becomes the rival */
        int64_t v = 0, r = 0;
        double best = gw[0] * row[0], second = -INFINITY;
        for (int64_t j = 1; j < k; j++) {
            double s = gw[j] * row[j];
            if (s > best) {
                second = best;
                r = v;
                best = s;
                v = j;
            } else if (s > second) {
                second = s;
                r = j;
            }
        }
        winners[i] = v;
        raw[v] += eta;
        weights[v] = fh_squash(raw[v]);
        gw[v] = gamma[v] * weights[v];
        raw[r] -= eta * row[r] / row[v];
        weights[r] = fh_squash(raw[r]);
        gw[r] = gamma[r] * weights[r];
    }
}
