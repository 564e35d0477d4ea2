/* The presentation loop of competitive penalized learning, and the squash.
 *
 * Bit for bit the numpy and Python loop kept as the oracle in tests/oracles.py:
 * every operation is the same IEEE double operation in the same order, exp
 * is the libm exp that Python's math.exp calls, and the winner and rival
 * keep numpy argmax's first-index tie rule (strict > comparisons only).
 * Built without -ffast-math and with -ffp-contract=off (see _kernel.py), so
 * no operation is reordered or fused.
 */
#include <math.h>
#include <stdint.h>

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
