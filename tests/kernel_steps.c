/* The steps of one competitive-learning epoch, for the per-step oracle
 * tests. In the package's kernel they are static: fh_cpl, the whole loop, is
 * their only caller. This file includes the kernel's source and exports each
 * step under a step_ name; kernel_steps.py builds it with the package's
 * compiler and flags, the kernel's directory on the include path. */
#include "_kernel.c"

void step_seed(struct fh_run *r, const int64_t *seeds)
{
    seed_run(r, seeds);
}

double step_squash(double raw)
{
    return squash(raw);
}

int64_t step_columns(struct fh_run *r)
{
    return fh_columns(r);
}

int64_t step_epoch(struct fh_run *r, double eta, int64_t out)
{
    return fh_epoch(r, eta, out);
}

void step_orphans(const struct fh_run *r, int64_t *assignments)
{
    reassign_orphans(r, assignments, NULL);
}

void step_totals(struct fh_run *r)
{
    column_totals(r);
}

void step_blocks(struct fh_run *r)
{
    blocks(r->values, r->n, r->d, r->blocked);
}

int64_t step_refresh(struct fh_run *r, const int64_t *assignments,
                     const int64_t *previous)
{
    return fh_refresh(r, assignments, previous);
}

/* the distances of the n x d values x, blocked into pad first */
void step_dissimilarities(const double *x, int64_t n, int64_t d,
                          const double *centroids, const double *scaled,
                          int64_t k, double *out, double *pad)
{
    blocks(x, n, d, pad);
    fh_dissimilarities(pad, n, d, centroids, scaled, k, out);
}
