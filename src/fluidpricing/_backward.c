/* Fused backward induction over the (remaining periods, inventory) lattice.
 *
 * values is a (rows x width) row-major array: row 0 holds the optimal value
 * V(t, y), row 1 + i the value of a policy whose demand rate is
 * clip(y / t, lo[i], hi[i]); lo[i] == hi[i] is a constant rate.  Every row
 * gets r(d) + d * W(t-1, y-1) + (1 - d) * W(t-1, y), with the rate, the clip
 * and the update evaluated in the operation order of the numpy pass
 * (policies._backward), so both agree bit for bit as long as the compiler
 * does not contract a * b + c into a fused multiply-add.
 *
 * One call advances the rows from period t_from to t_to, updating only the
 * cells y in [max(1, cone + t), y_hi] that a requested point can still
 * read.  With triangle set, V(t, y) = V(t, t) for every y >= t, so only
 * y <= t is computed and V(t, t) is copied into cell t + 1 for the next
 * period.  Column 0 (no inventory) is never written.  Each row is updated in
 * place from high y to low, so W(t-1, y-1) is still unchanged when read.
 */

static double clip(double x, double lo, double hi)
{
    /* numpy's clip: maximum with lo first, then minimum with hi */
    x = x > lo ? x : lo;
    return x < hi ? x : hi;
}

static void optimal_row(double *v, long first, long last, double alpha,
                        double beta, double d_lo, double d_hi)
{
    for (long y = last; y >= first; y--) {
        double below = v[y - 1], here = v[y];
        double d = clip((alpha + beta * (below - here)) / 2.0, d_lo, d_hi);
        v[y] = d * (alpha - d) / beta + d * below + (1.0 - d) * here;
    }
}

/* ys[y] == y as a double: a load, unlike a conversion from long, vectorizes */
static void clipped_row(double *restrict w, const double *restrict ys,
                        long first, long last, double t, double lo, double hi,
                        double alpha, double beta)
{
    for (long y = last; y >= first; y--) {
        double below = w[y - 1], here = w[y];
        double d = clip(ys[y] / t, lo, hi);
        w[y] = d * (alpha - d) / beta + d * below + (1.0 - d) * here;
    }
}

/* clipped_row with lo == hi == d: the rate and r(d) are the same in every cell */
static void constant_row(double *w, long first, long last, double d,
                         double alpha, double beta)
{
    double reward = d * (alpha - d) / beta;
    for (long y = last; y >= first; y--) {
        double below = w[y - 1], here = w[y];
        w[y] = reward + d * below + (1.0 - d) * here;
    }
}

void backward(double *values, long rows, long width, const double *ys,
              const double *lo, const double *hi, double alpha, double beta,
              double d_lo, double d_hi, long t_from, long t_to, long cone,
              long y_hi, int triangle)
{
    for (long t = t_from + 1; t <= t_to; t++) {
        long first = cone + t > 1 ? cone + t : 1;
        long last = triangle && t < y_hi ? t : y_hi;
        optimal_row(values, first, last, alpha, beta, d_lo, d_hi);
        for (long r = 1; r < rows; r++) {
            double *w = values + r * width;
            if (lo[r - 1] == hi[r - 1])
                constant_row(w, first, last, hi[r - 1], alpha, beta);
            else
                clipped_row(w, ys, first, last, (double)t, lo[r - 1],
                            hi[r - 1], alpha, beta);
        }
        if (triangle && t < y_hi)
            for (long r = 0; r < rows; r++)
                values[r * width + t + 1] = values[r * width + t];
    }
}
