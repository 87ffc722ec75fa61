/* Compiled loops of fluidpricing, loaded with ctypes by fluidpricing.kernels.
 *
 * Each entry point reproduces a Python or numpy loop operation by operation,
 * so both agree bit for bit as long as the compiler does not contract
 * a * b + c into a fused multiply-add (-ffp-contract=off).  An explicit fma()
 * is not a contraction: it rounds once, as written, and backward's quotients
 * use it where a theorem gives the bits of the division (quotient).  These
 * loops are the package's only engines; their twins are the references in
 * tests/oracles.py:
 *
 *   backward   the exact backward pass of policies.solve_dp and
 *              policies.exact_values, one row loop with four rate sources,
 *              over the whole cone or over a band, as a lower and an upper
 *              bound in one call (oracles.backward, oracles.band_copy);
 *   forward    the one-product Monte Carlo engine of sim.simulate and
 *              sim.simulate_batch, one rate law for every replication
 *              (oracles.simulate, oracles.simulate_batch);
 *   noise_sum  the noise sums of the hindsight benchmark (sim.ho_noise_means),
 *              in counter order, at every horizon of one pass
 *              (oracles.noise_sum);
 *   forward2   the two-product re-solving Monte Carlo engine of
 *              sim.simulate_batch (oracles.simulate_batch);
 *   backward2  the two-product exact backward pass of policies.multi_values,
 *              a row of the optimal value V or of the value W of the model's
 *              re-solving policy, read at every horizon of one pass
 *              (oracles.backward_multi, oracles.resolving_multi);
 *   box_qp     the n-product fluid problem of fluid.solve_fluid_multi and
 *              fluid.partial_optimum, a box-constrained concave quadratic
 *              program (oracles.box_qp_max).
 */

#include <limits.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* kernels._compile builds this file once for the CPU that runs it.  On an
 * x86-64 glibc host whose CPU runs x86-64-v4 (AVX-512) or x86-64-v3 (AVX2),
 * it sets KERNEL_ARCH to that level, and the loops marked KERNEL_LOOP
 * (backward, forward, noise_sum, forward2 and backward2) are built for it
 * with every helper inlined; box_qp, a scalar solve of at most a few dozen
 * products, and every other function stay baseline code.  backward's rows,
 * single or as a lower and upper pair, run in blocks of 8 cells (cells) that
 * vectorize at every level with the lanes in memory order: one 8-lane vector
 * under AVX-512, two 4-lane vectors under AVX2 and four 2-lane ones in the
 * baseline.  forward, noise_sum and forward2 vectorize across replications
 * under AVX-512 only, as the uniform draw converts a 64-bit integer to a
 * double, which AVX2 cannot do in a vector.  backward2 vectorizes across each
 * inventory row (backward2_row) under AVX-512 only: gcc moves a multiply of
 * box_qp2 into one arm of a clip, and only AVX-512's masks let a vector loop
 * run floating-point work under a condition.  Every level gives the same
 * bits: a vector lane rounds each operation as the scalar code does, and
 * -ffp-contract=off keeps contracted multiply-adds out of every level.
 *
 * Both levels have the FMA instruction, so KERNEL_FMA is set with them and
 * backward's explicit fma() calls run as single instructions.  In the
 * baseline, fma() is a libm call, which backward's quotients must not make per
 * cell: a call keeps the loop from vectorizing.  Without KERNEL_ARCH, or with
 * a compiler that does not know the levels (gcc before 11; clang reports
 * __GNUC__ 4), each marked function is the one baseline loop. */
#if defined(KERNEL_ARCH) && __GNUC__ >= 11
#define KERNEL_LOOP __attribute__((flatten, target("arch=" KERNEL_ARCH)))
#define KERNEL_FMA 1
#else
#define KERNEL_LOOP
#define KERNEL_FMA 0
#endif

static double clip(double x, double lo, double hi)
{
    /* numpy's clip: maximum with lo first, then minimum with hi */
    x = x > lo ? x : lo;
    return x < hi ? x : hi;
}

/* -- backward ---------------------------------------------------------------
 *
 * Fused backward induction over the (remaining periods, inventory) lattice.
 * w is one row of width cells.  It holds the optimal value V(t, y) when
 * optimal is set, else the value of a policy whose demand rate is
 * clip(y / t, lo, hi) (lo == hi is a constant rate) when table is NULL, else
 * the DP action table[t * stride + y] of a row-major table.  Unless record is
 * NULL, the row is copied into row t of the row-major (t_to + 1) x width
 * array record after each period t.
 *
 * Every row is one loop, rows: each cell takes a rate d from a source and
 * gets r(d) + d * W(t-1, y-1) + (1 - d) * W(t-1, y), r(d) = d * (alpha - d)
 * / beta, in the operation order of oracles.backward.  The source, a constant
 * that gcc folds into each call's own loop, is
 *
 *   OPTIMAL   V's maximizer clip((alpha + beta * (W(t-1, y-1) - W(t-1, y)))
 *             / 2, d_lo, d_hi), read from the row itself;
 *   TABLE     src[y], one period's row of a DP table;
 *   RATIO     the quotient src[y] / c with src[y] == y as a double (a load,
 *             unlike a conversion from long, vectorizes) and c == t;
 *   CONSTANT  c in every cell.
 *
 * A policy row is split where y / t saturates (clipped_rows) into
 * CONSTANT(hi), RATIO and CONSTANT(lo) segments, so that only the cells with
 * lo < y / t < hi take y / t: clipping one source per cell made the gap sweep,
 * whose whole-cone rows are mostly saturated, half again as slow.
 *
 * Division is the slowest operation of a cell, so a RATIO cell takes its
 * y / t and its r(d) without one when fused is set: quotient multiplies by
 * the reciprocal rb = 1 / b, rounded once per call for beta and once per
 * period for t, and corrects the product with two fma() calls.
 * Markstein's theorem (Markstein 1990, IBM J. Res. Dev. 34(1); Muller et
 * al., Handbook of Floating-Point Arithmetic, the chapter on division): in
 * binary floating point rounded to nearest, with rb = RN(1 / b)
 * and q = RN(a * rb), fma(fma(-q, b, a), rb, q) = RN(a / b), the bits of
 * a / b, as long as no operand or result is subnormal and nothing overflows
 * or underflows; a numerator of +0.0 gives +0.0 (-0.0 would give +0.0 too,
 * but no numerator here is -0.0).  A numerator near the bottom of the normal
 * range does break it: a subnormal one over beta = 0.7 gave a quotient one ulp
 * off in about one case in eight (tests/quotients.c checks the helper against
 * a / b).  So backward sets fused only where every quotient a RATIO cell can
 * take stays far inside the normal range:
 *
 *   - the loop has the FMA instruction (KERNEL_FMA), and
 *   - alpha and beta lie in [FUSED_MIN, FUSED_MAX] = [2^-128, 2^128].
 *
 * Then y and t are whole numbers below 2^63, so a RATIO rate d = y / t is 0
 * or within [2^-63, 2^63].  alpha - d cancels exactly (Sterbenz's lemma) when
 * it cancels at all, so it is 0 or at least min(alpha, d) * 2^-53 in
 * magnitude, and at most 2^128.  So each numerator d * (alpha - d) is 0 or
 * within [2^-244, 2^191] in magnitude, and r(d) within [2^-372, 2^319].
 *
 * The other sources divide.  A TABLE or CONSTANT rate is whatever the caller
 * gives (a DP table, a static rate, which may be subnormal); CONSTANT's r(d)
 * is one division per call, which gcc moves out of the loop.  OPTIMAL keeps
 * its division per cell for another reason: V's row runs beside the policy
 * rows, one per thread of the pool, and with V's reward corrected too, both
 * threads' loops ran on the vector multiply-add units alone.  Where the two
 * CPUs share a core, as on a 2-vCPU cloud instance, the exact round of table2
 * then took 29 or 41 ms from one round to the next, as the host placed the
 * threads.  A dividing V uses the divider while the policy rows multiply,
 * and the round took 40 to 43 ms in the middle half of its rounds.
 *
 * One call advances the row from period t_from to t_to, updating only the
 * cells y in [max(1, cone + t), y_hi] that a requested point can still
 * read.  With triangle set, V(t, y) = V(t, t) for every y >= t, so only
 * y <= t is computed and V(t, t) is copied into cell t + 1 for the next
 * period.  Column 0 (no inventory) is never written.  The row is updated in
 * place from high y to low, a block of BLOCK cells at a time and then the
 * cells below the last block one by one (rows), so that W(t-1, y-1) is still
 * unchanged when read.
 *
 * With u NULL the row is exact and runs the whole cone.  Otherwise w and u
 * are a lower and an upper bound copy of the row (oracles.band_copy): both
 * update only the cells of the cone within a band around the fluid paths of
 * the points they serve (band_at), and write into the cell on either side of
 * the band a bound on its value that the next period may read.  The lower
 * copy writes 0; the upper copy writes a bound that holds in exact
 * arithmetic, scaled by SLACK so that the rounding of the pass cannot cross
 * it (edge_bound).  The update is monotone in the previous row (a policy's
 * rate does not depend on it, so this holds for the rounded update too; the
 * optimal row's holds in exact arithmetic), so the lower copy stays at or
 * below the full pass and the upper copy at or above it: where the two agree
 * bit for bit, both hold the full pass's value.
 *
 * The copies visit the same cells, so a policy row computes each cell's rate
 * and r(d) once for both.  The optimal row's rate reads the row itself, so
 * each copy has its own; instead, span[2] .. span[3] is a run of cells where
 * w and u hold the same bits (the caller starts it at 0 .. width - 1, both
 * rows being 0), and u takes w's new value wherever a cell and the one below
 * it lie in the run (optimal_rows).  Equal inputs give equal outputs, so u
 * has the bits of a copy computed on its own.
 */

#define SLACK (1.0 + 1e-9)
#define FUSED_MIN 0x1p-128
#define FUSED_MAX 0x1p+128

enum { OPTIMAL, TABLE, RATIO, CONSTANT };

/* The cells of a block of rows: gcc runs one as one 8-lane vector in the
 * x86-64-v4 level, two of 4 lanes at x86-64-v3 and four of 2 in the
 * baseline */
#define BLOCK 8

/* a / b, with rb == 1 / b: by Markstein's correction of a * rb when fused is
 * set, which gives the same bits where backward sets it, else by a division */
static inline __attribute__((always_inline)) double
quotient(double a, double b, double rb, const int fused)
{
    if (!fused)
        return a / b;
    double q = a * rb;
    return fma(fma(-q, b, a), rb, q);
}

/* The n <= BLOCK cells x .. x + n - 1 of w and, unless u is NULL (as with
 * OPTIMAL), of u, each cell's rate and r(d) computed once for both; rc is
 * 1 / c and rbeta 1 / beta, read only when fused is set (RATIO rows).  Every
 * cell is read before any is written, so the loop can run upward and gcc
 * vectorizes it with the lanes in memory order; it is kept rolled, as gcc
 * would otherwise unroll BLOCK cells before it could vectorize them. */
static inline __attribute__((always_inline)) void
cells(double *restrict w, double *restrict u, const double *restrict src,
      long x, long n, double c, double rc, double alpha, double beta,
      double rbeta, double d_lo, double d_hi, const int source, const int fused)
{
    double next[BLOCK], unext[BLOCK];
#pragma GCC unroll 1
    for (long k = 0; k < n; k++) {
        double below = w[x - 1 + k], here = w[x + k];
        double d = source == TABLE ? src[x + k]
                   : source == RATIO ? quotient(src[x + k], c, rc, fused)
                   : source == CONSTANT ? c
                   : clip((alpha + beta * (below - here)) / 2.0, d_lo, d_hi);
        double reward = quotient(d * (alpha - d), beta, rbeta, fused);
        next[k] = reward + d * below + (1.0 - d) * here;
        if (u)
            unext[k] = reward + d * u[x - 1 + k] + (1.0 - d) * u[x + k];
    }
    for (long k = 0; k < n; k++)
        w[x + k] = next[k];
    if (u)
        for (long k = 0; k < n; k++)
            u[x + k] = unext[k];
}

/* The cells last down to first of w and, unless u is NULL, of u: blocks of
 * BLOCK cells from the top down, then the at most BLOCK - 1 cells below the
 * last block one at a time, from the top down too.  A block reads the cell
 * below it before the block below writes it, so every cell reads the
 * previous period's values.  The blocks with and without u
 * are two loops, as gcc, testing u in one, passes each block through the
 * stack. */
static inline __attribute__((always_inline)) void
rows(double *restrict w, double *restrict u, const double *restrict src,
     long first, long last, double c, double rc, double alpha, double beta,
     double rbeta, double d_lo, double d_hi, const int source, const int fused)
{
    long x = last + 1 - BLOCK;
    if (u)
        for (; x >= first; x -= BLOCK)
            cells(w, u, src, x, BLOCK, c, rc, alpha, beta, rbeta, d_lo, d_hi, source,
                  fused);
    else
        for (; x >= first; x -= BLOCK)
            cells(w, NULL, src, x, BLOCK, c, rc, alpha, beta, rbeta, d_lo, d_hi, source,
                  fused);
    for (long k = BLOCK - 1; k >= 0; k--)
        if (x + k >= first)
            cells(w, u, src, x + k, 1, c, rc, alpha, beta, rbeta, d_lo, d_hi, source,
                  fused);
}

/* Whether a and b hold the same bits (== would equate -0.0 and 0.0) */
static int same_bits(double a, double b)
{
    uint64_t x, y;
    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    return x == y;
}

/* The optimal row's lower copy w and upper copy u on the cells a .. b, with
 * run[0] .. run[1] the cells where both hold the same bits (none when
 * run[0] > run[1]).  u is computed only above and below the cells y with y - 1
 * and y in the run, and copies the others from w.  The zone above goes first,
 * as its lowest cell reads u at the run's top before the copy replaces it.
 * The run becomes those copied cells, or when none was copied the top cell
 * with the same bits, widened outward within a .. b over cells with the same
 * bits. */
static void optimal_rows(double *w, double *u, long a, long b, int64_t *run,
                         double alpha, double beta, double d_lo, double d_hi)
{
    long from = run[0] + 1 > a ? run[0] + 1 : a, to = run[1] < b ? run[1] : b;
    rows(w, NULL, NULL, a, b, 0.0, 0.0, alpha, beta, 0.0, d_lo, d_hi, OPTIMAL, 0);
    if (from <= to) {
        rows(u, NULL, NULL, to + 1, b, 0.0, 0.0, alpha, beta, 0.0, d_lo, d_hi, OPTIMAL, 0);
        memcpy(u + from, w + from, (to - from + 1) * sizeof *u);
        rows(u, NULL, NULL, a, from - 1, 0.0, 0.0, alpha, beta, 0.0, d_lo, d_hi, OPTIMAL, 0);
    } else {
        rows(u, NULL, NULL, a, b, 0.0, 0.0, alpha, beta, 0.0, d_lo, d_hi, OPTIMAL, 0);
        for (to = b; to >= a && !same_bits(w[to], u[to]); to--)
            ;
        from = to < a ? a : to; /* the top cell with the same bits, if any */
    }
    while (from <= to && from > a && same_bits(w[from - 1], u[from - 1]))
        from--;
    while (from <= to && to < b && same_bits(w[to + 1], u[to + 1]))
        to++;
    run[0] = from;
    run[1] = to;
}

/* The last y in [first - 1, last] with ys[y] / t <= edge (first - 1 if none):
 * y / t is monotone in y, so step from the guess edge * t to the exact edge,
 * deciding each cell by the division the row itself evaluates. */
static long last_at_most(const double *ys, long first, long last, double t,
                         double edge)
{
    double guess = edge * t;
    long y = !(guess >= first) ? first - 1 : guess > last ? last : (long)guess;
    while (y < last && ys[y + 1] / t <= edge)
        y++;
    while (y >= first && !(ys[y] / t <= edge))
        y--;
    return y;
}

/* The rate clip(y / t, lo, hi) on w and, unless u is NULL, on u: lo where
 * ys[y] / t <= lo, hi where ys[y] / t >= hi (everywhere unless lo < hi) and
 * y / t in the band between, the segments running from high y to low */
static void clipped_rows(double *w, double *u, const double *ys, long first,
                         long last, double t, double lo, double hi, double alpha,
                         double beta, double rbeta, const int fused)
{
    if (!(lo < hi)) {
        rows(w, u, NULL, first, last, hi, 0.0, alpha, beta, 0.0, 0.0, 0.0, CONSTANT, 0);
        return;
    }
    long top = last_at_most(ys, first, last, t, hi);
    while (top >= first && ys[top] / t >= hi) /* y / t == hi saturates too */
        top--;
    long bottom = last_at_most(ys, first, top, t, lo);
    rows(w, u, NULL, top + 1, last, hi, 0.0, alpha, beta, 0.0, 0.0, 0.0, CONSTANT, 0);
    rows(w, u, ys, bottom + 1, top, t, 1.0 / t, alpha, beta, rbeta, 0.0, 0.0, RATIO, fused);
    rows(w, u, NULL, first, bottom, lo, 0.0, alpha, beta, 0.0, 0.0, 0.0, CONSTANT, 0);
}

/* The band [*first, *last] of a bound row at period t: the cone [*first,
 * *last] cut to floor(band[0] + band[1] * t) .. ceil(band[2] + band[3] * t),
 * with a band above the cone moved down to its top cell, and kept inside
 * span[0] .. span[1] + 1, the cells the previous period left readable (its
 * band and the edge bounds beside it).  span becomes the band.  Returns 0,
 * and sets span to -1 for the rest of the pass, when no cell is left. */
static int band_at(long t, const double *band, int64_t *span, long *first,
                   long *last)
{
    if (span[0] < 0)
        return 0;
    double low = floor(band[0] + band[1] * t), high = ceil(band[2] + band[3] * t);
    long from = low < *first ? *first : low > *last ? *last : (long)low;
    from = from > span[0] ? from : span[0];
    long to = high > *last ? *last : high < from ? from : (long)high;
    to = to < span[1] + 1 ? to : span[1] + 1;
    if (from > to) {
        span[0] = span[1] = -1;
        return 0;
    }
    span[0] = *first = from;
    span[1] = *last = to;
    return 1;
}

/* fluid(t, y) = t * r(min(y / t, cap)), with r extended below d_lo by the
 * line x * p_hi through (0, 0): no policy earns more in t periods from y units */
static double fluid(double t, double y, double cap, double d_lo, double p_hi,
                    double alpha, double beta)
{
    double x = y / t < cap ? y / t : cap;
    return t * (x <= d_lo ? x * p_hi : x * (alpha - x) / beta);
}

/* The bound an upper copy u writes into cell y just outside its band [a, b]
 * at period t (a lower copy writes 0, as every value is >= 0).  Below the
 * band: the optimal value at a (V is nondecreasing in y), a policy's y * p_hi
 * (no unit sells above p_hi).  Above it: fluid(t, y), for the optimal value
 * also u[b] + p_hi when smaller (a unit adds at most p_hi). */
static double edge_bound(const double *u, long y, long a, long b, int optimal,
                         double t, double cap, double d_lo, double p_hi,
                         double alpha, double beta)
{
    if (y < a)
        return SLACK * (optimal ? u[a] : y * p_hi);
    double bound = fluid(t, y, cap, d_lo, p_hi, alpha, beta);
    return SLACK * (optimal && u[b] + p_hi < bound ? u[b] + p_hi : bound);
}

/* Whether x lies in [FUSED_MIN, FUSED_MAX] (NaN does not) */
static int fusable(double x) { return x >= FUSED_MIN && x <= FUSED_MAX; }

/* backward with fused (see cells) a constant */
static inline __attribute__((always_inline)) void
backward_pass(double *w, double *u, long width, const double *ys, int optimal,
              double lo, double hi, const double *table, long stride,
              const double *band, int64_t *span, double alpha, double beta,
              double d_lo, double d_hi, long t_from, long t_to, long cone,
              long y_hi, int triangle, double *record, const int fused)
{
    double p_hi = (alpha - d_lo) / beta, cap = clip(alpha / 2.0, d_lo, d_hi);
    double rbeta = 1.0 / beta;
    for (long t = t_from + 1; t <= t_to; t++) {
        long first = cone + t > 1 ? cone + t : 1;
        long last = triangle && t < y_hi ? t : y_hi;
        long a = first, b = last;
        if (!u || band_at(t, band, span, &a, &b)) {
            if (optimal && u)
                optimal_rows(w, u, a, b, span + 2, alpha, beta, d_lo, d_hi);
            else if (optimal)
                rows(w, NULL, NULL, a, b, 0.0, 0.0, alpha, beta, 0.0, d_lo, d_hi, OPTIMAL, 0);
            else if (table)
                rows(w, NULL, table + t * stride, a, b, 0.0, 0.0, alpha, beta, 0.0, 0.0, 0.0,
                     TABLE, 0);
            else
                clipped_rows(w, u, ys, a, b, (double)t, lo, hi, alpha, beta, rbeta, fused);
            if (u && a > first) {
                w[a - 1] = 0.0;
                u[a - 1] = edge_bound(u, a - 1, a, b, optimal, t, cap, d_lo, p_hi,
                                      alpha, beta);
            }
            if (u && b < last) {
                w[b + 1] = 0.0;
                u[b + 1] = edge_bound(u, b + 1, a, b, optimal, t, cap, d_lo, p_hi,
                                      alpha, beta);
            }
            if (triangle && t < y_hi && b == last) {
                w[t + 1] = w[t];
                if (u)
                    u[t + 1] = u[t];
            }
        }
        if (record)
            for (long y = 0; y < width; y++)
                record[t * width + y] = w[y];
    }
}

KERNEL_LOOP
void backward(double *w, double *u, long width, const double *ys, int optimal,
              double lo, double hi, const double *table, long stride,
              const double *band, int64_t *span, double alpha, double beta,
              double d_lo, double d_hi, long t_from, long t_to, long cone,
              long y_hi, int triangle, double *record)
{
    if (KERNEL_FMA && fusable(alpha) && fusable(beta))
        backward_pass(w, u, width, ys, optimal, lo, hi, table, stride, band, span, alpha,
                      beta, d_lo, d_hi, t_from, t_to, cone, y_hi, triangle, record, 1);
    else
        backward_pass(w, u, width, ys, optimal, lo, hi, table, stride, band, span, alpha,
                      beta, d_lo, d_hi, t_from, t_to, cone, y_hi, triangle, record, 0);
}

/* -- the counter-based RNG --------------------------------------------------- */

#define GOLDEN 0x9E3779B97F4A7C15ULL

/* The splitmix64 finalizer of z, its top 53 bits scaled onto [0, 1) */
static inline double unit_mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4B9FEULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (double)(z >> 11) * (1.0 / 9007199254740992.0);
}

/* -- forward ------------------------------------------------------------------
 *
 * reps one-product replications in lockstep, replication r on the stream
 * keys[r], all under the rate law of one policy while y > 0: with width 0,
 * clip(y / t, lo, hi) (lo == hi is a constant rate); otherwise
 * the DP action actions[t][min((long)y, width - 1)] of a row-major table of
 * width columns (column 0 is 0, so 0 < y < 1 gets rate 0).  Sales are unit
 * sized (u < rate) when unit_sales is set, else rate + (2u - 1) * w; demand
 * beyond the inventory is lost.  y holds the initial inventories and ends
 * with the final ones; total and sum_xi accumulate the revenue and the noise.
 * With track set, harm accumulates the harmonic noise series and t_sharp[r]
 * (2 on entry) becomes the first period whose update leaves the band gam.
 * Inactive rows (y <= 0) go through the same arithmetic with zeros, as the
 * masked numpy arrays do.  With record set, period i of replication r is
 * written to trace[(k * T + i) * reps + r] for k = 0 .. 5: the price (inf
 * while shut off), the rate, the noise, the realized demand, the inventory
 * after the period and the revenue, as sim.SimTrace holds them.
 *
 * Each period makes its choices (the law, the sales, the tracker and the
 * record) once, outside the loop over replications, so that the loop has no
 * branch and vectorizes across them: the zeros of inactive rows are the masks
 * of keep, and a stopping time is a select.
 */

/* numpy's minimum and maximum: the second operand on a tie */
static double minimum(double a, double b) { return a < b ? a : b; }
static double maximum(double a, double b) { return a > b ? a : b; }

/* x where the mask m is all ones, +0.0 where it is 0: the select m ? x : 0.0
 * as an integer and, which GCC vectorizes.  Under -ftrapping-math it keeps
 * such a select, whose operand is floating-point work, as a branch (it may
 * also move the work into one arm), and no loop with a branch vectorizes. */
static inline double keep(double x, uint64_t m)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits &= m;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* The mask for keep of an inventory y: all ones where y > 0 */
static inline uint64_t stocked(double y) { return -(uint64_t)(y > 0); }

/* Period i of forward over every replication, with the period's choices as
 * the constants table (a DP table, else a (lo, hi) law), unit (unit sales),
 * tracked (the stopping-time tracker runs) and rec (the record is written) */
static inline __attribute__((always_inline)) void
forward_period(long reps, long T, long i, const uint64_t *restrict keys,
               double lo, double hi, const double *restrict row, long width,
               double alpha, double beta, double w, double *restrict y,
               double *restrict total, double *restrict sum_xi, double gam,
               double *restrict harm, int64_t *restrict t_sharp,
               double *restrict trace, const int table, const int unit,
               const int tracked, const int rec)
{
    long t = T - i, k = T * reps;
    uint64_t step = (uint64_t)(i + 1) * GOLDEN;
    double top = (double)(width - 1), now = (double)t, left = (double)(t - 1);
    double *out = rec ? trace + i * reps : trace;
    for (long r = 0; r < reps; r++) {
        double u = unit_mix(keys[r] + step), yr = y[r];
        uint64_t m = stocked(yr);
        /* y >= 0, so an inactive row reads column 0 */
        double d = keep(table ? row[(long)minimum(yr, top)] : clip(yr / now, lo, hi), m);
        double price = keep((alpha - d) / beta, m);
        double xi, realized;
        if (unit) {
            realized = keep(1.0, -(uint64_t)(u < d)); /* d is 0 without stock */
            xi = realized - d;
        } else {
            xi = keep((2.0 * u - 1.0) * w, m);
            realized = d + xi;
        }
        double revenue = price * minimum(realized, yr);
        total[r] += revenue;
        sum_xi[r] += xi;
        y[r] = maximum(0.0, yr - realized);
        if (tracked) {
            double h = harm[r] + xi / left;
            harm[r] = h;
            /* t_sharp[r] is still 2 exactly while r is undecided: an exit
             * before the last check (t = 2) sets it to t > 2 */
            t_sharp[r] = t_sharp[r] == 2 && fabs(h) > gam ? t : t_sharp[r];
        }
        if (rec) {
            out[r] = m ? price : INFINITY;
            out[k + r] = d;
            out[2 * k + r] = xi;
            out[3 * k + r] = realized;
            out[4 * k + r] = y[r];
            out[5 * k + r] = keep(revenue, m);
        }
    }
}

/* The case of forward's switch for the choices flags: bit 0 table, 1 unit,
 * 2 tracked, 3 rec */
#define FORWARD_PERIOD(flags)                                                  \
    case flags:                                                                \
        forward_period(reps, T, i, keys, lo, hi, row, width, alpha, beta, w,   \
                       y, total, sum_xi, gam, harm, t_sharp, trace,            \
                       (flags) & 1, (flags) >> 1 & 1, (flags) >> 2 & 1,        \
                       (flags) >> 3 & 1);                                      \
        break;

KERNEL_LOOP
void forward(long reps, long T, const uint64_t *restrict keys, double lo,
             double hi, const double *restrict actions, long width, double alpha,
             double beta, double w, int unit_sales, double *restrict y,
             double *restrict total, double *restrict sum_xi, int track,
             double gam, double *restrict harm, int64_t *restrict t_sharp,
             int record, double *restrict trace)
{
    for (long i = 0; i < T; i++) {
        const double *row = actions + (T - i) * width;
        int tracked = track && T - i >= 2;
        switch ((width != 0) | (unit_sales != 0) << 1 | tracked << 2 | (record != 0) << 3) {
            FORWARD_PERIOD(0) FORWARD_PERIOD(1) FORWARD_PERIOD(2) FORWARD_PERIOD(3)
            FORWARD_PERIOD(4) FORWARD_PERIOD(5) FORWARD_PERIOD(6) FORWARD_PERIOD(7)
            FORWARD_PERIOD(8) FORWARD_PERIOD(9) FORWARD_PERIOD(10) FORWARD_PERIOD(11)
            FORWARD_PERIOD(12) FORWARD_PERIOD(13) FORWARD_PERIOD(14) FORWARD_PERIOD(15)
        }
    }
}

/* -- noise_sum ----------------------------------------------------------------
 *
 * For each of the count >= 1 ascending horizons T_h >= 1, acc[h * reps + r] =
 * the sum of the uniforms at counters 0 .. T_h - 1 of stream keys[r], added one
 * at a time in counter order from 0.0 (oracles.noise_sum).  One pass walks the
 * counters up to the last horizon: its row of acc is the running sum, which
 * is copied into row h once T_h counters are in, so each row has the bits of
 * a pass that stops at its own horizon.  Periods run outer and replications
 * inner, so the loop over replications vectorizes.
 */

KERNEL_LOOP
void noise_sum(long reps, long count, const int64_t *restrict horizons,
               const uint64_t *restrict keys, double *restrict acc)
{
    double *sum = acc + (count - 1) * reps;
    long h = 0;
    memset(sum, 0, reps * sizeof *sum);
    for (long i = 0; i < horizons[count - 1]; i++) {
        uint64_t step = (uint64_t)(i + 1) * GOLDEN;
        for (long r = 0; r < reps; r++)
            sum[r] += unit_mix(keys[r] + step);
        for (; h < count - 1 && horizons[h] == i + 1; h++)
            memcpy(acc + h * reps, sum, reps * sizeof *sum);
    }
}

/* -- the two-product box QP ---------------------------------------------------
 *
 * fluid.box_qp2_batch at one element: the maximum of
 * q1*x1 + q2*x2 + (a11*x1^2 + a22*x2^2)/2 + a12*x1*x2 over 0 <= x_k <= ub_k,
 * taken over the clipped stationary points of the edges x1 = 0, x1 = ub1,
 * x2 = 0 and x2 = ub2, then the interior stationary point where the
 * quadratic is concave and the point lies in the box (else value -inf).
 * A later candidate replaces the best only when its value is strictly
 * larger.  Returns the maximum and stores its point in x1, x2.
 */

static double qp2_value(double a11, double a22, double a12, double q1,
                        double q2, double x1, double x2)
{
    return q1 * x1 + q2 * x2 + 0.5 * (a11 * x1 * x1 + a22 * x2 * x2) + a12 * x1 * x2;
}

/* A condition whose branch the CPU predicts well (see qp2_take) */
#if __GNUC__ >= 9
#define PREDICTABLE(c) __builtin_expect_with_probability(c, 0, 0.99)
#else
#define PREDICTABLE(c) (c)
#endif

/* the candidate (c1, c2) of value v replaces the best (x1, x2, best) when v > best.
 * The winning candidate rarely changes from one call to the next, so a branch
 * predicts well; the hint keeps the three selects a branch in a scalar loop,
 * where SSE4.1 would blend them after the comparison (about 5 % slower in
 * forward2 at the AVX2 level).  The vectorized loops if-convert them
 * regardless. */
static inline void qp2_take(double c1, double c2, double v, double *x1,
                            double *x2, double *best)
{
    int take = PREDICTABLE(v > *best);
    *x1 = take ? c1 : *x1;
    *x2 = take ? c2 : *x2;
    *best = take ? v : *best;
}

/* clip(x, 0.0, hi), its lower test kept a branch in a scalar loop, as in
 * qp2_take: backward2 at the AVX2 level blended it and ran about 10 % slower
 * than the baseline loop */
static inline double clip_box(double x, double hi)
{
    x = PREDICTABLE(x > 0.0) ? x : 0.0;
    return x < hi ? x : hi;
}

static inline double box_qp2(double a11, double a22, double a12, double q1,
                             double q2, double ub1, double ub2, double *x1,
                             double *x2)
{
#define VALUE(c1, c2) qp2_value(a11, a22, a12, q1, q2, c1, c2)
    double c1 = 0.0, c2 = clip_box(-(q2 + a12 * 0.0) / a22, ub2);
    double best = VALUE(c1, c2);
    *x1 = c1;
    *x2 = c2;
    c2 = clip_box(-(q2 + a12 * ub1) / a22, ub2);
    qp2_take(ub1, c2, VALUE(ub1, c2), x1, x2, &best);
    c1 = clip_box(-(q1 + a12 * 0.0) / a11, ub1);
    qp2_take(c1, 0.0, VALUE(c1, 0.0), x1, x2, &best);
    c1 = clip_box(-(q1 + a12 * ub2) / a11, ub1);
    qp2_take(c1, ub2, VALUE(c1, ub2), x1, x2, &best);
    double det = a11 * a22 - a12 * a12;
    double xi1 = (-a22 * q1 + a12 * q2) / det;
    double xi2 = (a12 * q1 - a11 * q2) / det;
    int ok = (det > 0) & (xi1 >= 0) & (xi1 <= ub1) & (xi2 >= 0) & (xi2 <= ub2);
    xi1 = ok ? xi1 : 0.0;
    xi2 = ok ? xi2 : 0.0;
    qp2_take(xi1, xi2, ok ? VALUE(xi1, xi2) : -INFINITY, x1, x2, &best);
#undef VALUE
    return best;
}

/* -- forward2 -----------------------------------------------------------------
 *
 * reps two-product replications in lockstep under the re-solving policy of
 * the model (g, H, box_hi), H row-major: replication r holds the inventory
 * pair y[2r], y[2r + 1] and draws product j's uniform of period i at counter
 * i*2 + j of the stream keys[r].  Each period re-solves the fluid problem on
 * the box [0, min(box_hi, y / t)], prices the rates at
 * g_j + 0.5 * (x_1 * H[j][0] + x_2 * H[j][1]) and sells a unit of product j
 * when u < x_j, censored at its inventory.  A product with y_j <= 0 has the
 * box ub_j = 0, so the re-solve gives it rate 0, no sale and noise 0, and its
 * revenue price * min(0, y_j) is a zero, which leaves total as it is.  The
 * sale is a bit mask (keep), so that the loop over replications has no
 * branch and vectorizes; g, H and box_hi are read once into locals, as the
 * outputs are restrict.
 */

KERNEL_LOOP
void forward2(long reps, long T, const uint64_t *restrict keys, const double *g_in,
              const double *H_in, const double *box_in, double *restrict y,
              double *restrict total, double *restrict sum_xi)
{
    double g[2] = {g_in[0], g_in[1]}, H[4] = {H_in[0], H_in[1], H_in[2], H_in[3]};
    double box_hi[2] = {box_in[0], box_in[1]};
    for (long i = 0; i < T; i++) {
        double t = (double)(T - i);
        uint64_t step[2] = {(uint64_t)(2 * i + 1) * GOLDEN, (uint64_t)(2 * i + 2) * GOLDEN};
        for (long r = 0; r < reps; r++) {
            double yr[2] = {y[2 * r], y[2 * r + 1]}, x[2], realized[2], xi[2], revenue[2];
            box_qp2(H[0], H[3], H[1], g[0], g[1], minimum(box_hi[0], yr[0] / t),
                    minimum(box_hi[1], yr[1] / t), &x[0], &x[1]);
            for (int j = 0; j < 2; j++) {
                double price = g[j] + 0.5 * (x[0] * H[2 * j] + x[1] * H[2 * j + 1]);
                double u = unit_mix(keys[r] + step[j]);
                realized[j] = keep(1.0, -(uint64_t)(u < x[j]));
                xi[j] = realized[j] - x[j];
                revenue[j] = price * minimum(realized[j], yr[j]);
            }
            total[r] += revenue[0] + revenue[1];
            sum_xi[r] += xi[0] + xi[1];
            for (int j = 0; j < 2; j++)
                y[2 * r + j] = maximum(0.0, yr[j] - realized[j]);
        }
    }
}

/* -- backward2 ----------------------------------------------------------------
 *
 * The two-product Bellman recursion on the (m1 x m2) row-major inventory
 * lattice V, updated in place one period at a time up to the last of the
 * count >= 1 ascending horizons: once horizons[h] periods are in,
 * out[h] = V[cells[h]], so one pass reads every horizon's start state with
 * the bits of a pass that stops there.  Cell (i, j) reads its value v and
 * the values b, c and d after a sale of product 1, of product 2 and of both
 * (0 off the lattice), and gains the one-step objective of a rate pair x,
 * q1 x1 + q2 x2 + (H[0][0] x1^2 + H[1][1] x2^2) / 2 + a12 x1 x2 with
 * curvature a12 = H[0][1] + (v - b - c + d) and linear terms g_1 + b - v and
 * g_2 + c - v, over the box 0 <= x_k <= ub_k.  The row is
 *
 *   V (resolving unset)  the optimal value: x is the box QP maximum, with
 *                        ub_k = box_hi_k where y_k >= 1, else 0;
 *   W (resolving set)    the value of the model's re-solving policy, whose
 *                        Monte Carlo twin is forward2: x is forward2's
 *                        re-solve of the fluid problem at y with t periods
 *                        left, box_qp2(H, g) on ub = min(box_hi, y / t),
 *                        and the cell takes the objective at that x
 *                        (qp2_value).  At t = 1 both rows take the same x
 *                        whenever box_hi <= 1, and W == V bit for bit.
 *
 * Rows go from high i to low, so row i - 1 still holds the last period when
 * row i reads it.  Within a row, cells go from high j to low: cell j reads
 * row[j - 1] before cell j - 1 writes it, so a vector of cells, loaded before
 * it is stored, still reads only the last period's values, and the loop over
 * j vectorizes in place.  A cell reads only cells of lower inventory, so a
 * point has the same bits on any lattice that holds it.  g, H and box_hi are
 * read once into locals, as in forward2.
 */

/* Row i of backward2 at ub1, with prev row i - 1 when the constant below is
 * set (else b = d = 0): the cells j = m2 - 1 .. 1, then j = 0 with ub2 = 0;
 * the W row when the constant resolving is set, with t periods left */
static inline __attribute__((always_inline)) void
backward2_row(double *restrict row, const double *restrict prev, long m2, double ub1,
              double t, const double *g, const double *H, const double *box_hi,
              const int below, const int resolving)
{
    for (long j = m2 - 1; j >= 1; j--) {
        double v = row[j], c = row[j - 1];
        double b = below ? prev[j] : 0.0, d = below ? prev[j - 1] : 0.0;
        double w = v - b - c + d, x1, x2;
        if (resolving) {
            box_qp2(H[0], H[3], H[1], g[0], g[1], ub1, minimum(box_hi[1], (double)j / t),
                    &x1, &x2);
            row[j] = v + qp2_value(H[0], H[3], H[1] + w, g[0] + b - v, g[1] + c - v, x1, x2);
        } else {
            row[j] = v + box_qp2(H[0], H[3], H[1] + w, g[0] + b - v, g[1] + c - v, ub1,
                                 box_hi[1], &x1, &x2);
        }
    }
    double v = row[0], b = below ? prev[0] : 0.0, c = 0.0, d = 0.0;
    double w = v - b - c + d, x1, x2;
    if (resolving) {
        box_qp2(H[0], H[3], H[1], g[0], g[1], ub1, 0.0, &x1, &x2);
        row[0] = v + qp2_value(H[0], H[3], H[1] + w, g[0] + b - v, g[1] + c - v, x1, x2);
    } else {
        row[0] = v + box_qp2(H[0], H[3], H[1] + w, g[0] + b - v, g[1] + c - v, ub1, 0.0,
                             &x1, &x2);
    }
}

/* One period of backward2's row, V or W: the values with t periods left, this
 * one included, from those with t - 1 */
static inline __attribute__((always_inline)) void
backward2_period(double *V, long m1, long m2, double t, const double *g, const double *H,
                 const double *box_hi, const int resolving)
{
    for (long i = m1 - 1; i >= 1; i--)
        backward2_row(V + i * m2, V + (i - 1) * m2, m2,
                      resolving ? minimum(box_hi[0], (double)i / t) : box_hi[0], t, g, H,
                      box_hi, 1, resolving);
    backward2_row(V, NULL, m2, 0.0, t, g, H, box_hi, 0, resolving);
}

KERNEL_LOOP
void backward2(double *V, long m1, long m2, long count, const int64_t *restrict horizons,
               const int64_t *restrict cells, double *restrict out, const double *g_in,
               const double *H_in, const double *box_in, int resolving)
{
    double g[2] = {g_in[0], g_in[1]}, H[4] = {H_in[0], H_in[1], H_in[2], H_in[3]};
    double box_hi[2] = {box_in[0], box_in[1]};
    long h = 0;
    for (long t = 1; t <= horizons[count - 1]; t++) {
        if (resolving)
            backward2_period(V, m1, m2, (double)t, g, H, box_hi, 1);
        else
            backward2_period(V, m1, m2, (double)t, g, H, box_hi, 0);
        for (; h < count && horizons[h] == t; h++)
            out[h] = V[cells[h]];
    }
}

/* -- box_qp -------------------------------------------------------------------
 *
 * The maximum x of g.x + x.H.x / 2 over lb <= x <= ub, for a row-major n x n
 * H that is negative definite, by a primal active-set method.  ub is first
 * raised to lb where it lies below (FP dust in the callers); a coordinate with
 * ub == lb is pinned there and never released.  The start is the Newton point
 * (the solve with every coordinate free) clipped to the box, with each other
 * coordinate within ACTIVE_TOL of a bound put on that bound (on both when the
 * box is that narrow; the upper one then gives its value).  Each iteration
 * solves the free block with the others on their bounds.  A step of at most
 * KKT_TOL in every coordinate is a working-set optimum: the bound with the
 * most negative dual below -DUAL_TOL is released (the first such on a tie),
 * and when there is none x, clipped to the box, is the answer.  A longer step
 * is cut short at the first bound it would cross (the ratio test), which
 * joins the working set.  Every release and every blocking bound is a
 * working-set change; more than 2^n + 10 of them (clamped to LONG_MAX) end
 * the search.
 *
 * The caller gives the scratch: work of n * (n + 4) doubles and set of n
 * int64 entries (the working set of each coordinate).  info[0] gets the
 * status (BOX_QP_OK, BOX_QP_SINGULAR when a free block has an exactly zero
 * pivot, BOX_QP_BUDGET when the changes overrun) and info[1] the number of
 * working-set changes.  With BOX_QP_OK, work[0 .. n - 1] holds the gradient
 * g + H x at the answer and work[n] the value g.x + x.(H x) / 2, each sum
 * taken in index order.
 */

#define ACTIVE_TOL 1e-10
#define DUAL_TOL 1e-10
#define KKT_TOL 1e-12
#define AT_LO 1
#define AT_UP 2
#define PINNED 4
#define BOX_QP_OK 0
#define BOX_QP_SINGULAR 1
#define BOX_QP_BUDGET 2

/* x_eq on the free coordinates (set[k] == 0): the solution of
 * H[F][F] x_F = -(g_F + H[F][B] x_eq[B]), by Gaussian elimination with
 * partial pivoting (the first largest pivot) on the m x m block A, with right
 * side b.  Returns 1 on an exactly zero pivot, else 0. */
static int solve_free(long n, const double *H, const double *g, const int64_t *set,
                      double *x_eq, double *A, double *b)
{
    long m = 0;
    for (long i = 0; i < n; i++) {
        if (set[i])
            continue;
        double acc = 0.0;
        long c = 0;
        for (long j = 0; j < n; j++) {
            if (set[j])
                acc += H[i * n + j] * x_eq[j];
            else
                A[m * n + c++] = H[i * n + j];
        }
        b[m++] = -(g[i] + acc);
    }
    for (long c = 0; c < m; c++) {
        long p = c;
        for (long r = c + 1; r < m; r++)
            if (fabs(A[r * n + c]) > fabs(A[p * n + c]))
                p = r;
        if (A[p * n + c] == 0.0)
            return 1;
        if (p != c) {
            for (long k = c; k < m; k++) {
                double a = A[c * n + k];
                A[c * n + k] = A[p * n + k];
                A[p * n + k] = a;
            }
            double a = b[c];
            b[c] = b[p];
            b[p] = a;
        }
        for (long r = c + 1; r < m; r++) {
            double f = A[r * n + c] / A[c * n + c];
            for (long k = c + 1; k < m; k++)
                A[r * n + k] -= f * A[c * n + k];
            b[r] -= f * b[c];
        }
    }
    for (long r = m - 1; r >= 0; r--) {
        double s = b[r];
        for (long k = r + 1; k < m; k++)
            s -= A[r * n + k] * b[k];
        b[r] = s / A[r * n + r];
    }
    for (long i = 0, r = 0; i < n; i++)
        if (!set[i])
            x_eq[i] = b[r++];
    return 0;
}

void box_qp(long n, const double *H, const double *g, const double *lb,
            const double *ub, double *x, double *work, int64_t *set, int64_t *info)
{
    double *hi = work, *x_eq = work + n, *step = work + 2 * n, *b = work + 3 * n;
    double *A = work + 4 * n;
    long budget = n < 63 ? (1L << n) + 10 : LONG_MAX, changes = 0;
    info[1] = 0;
    for (long k = 0; k < n; k++) {
        hi[k] = maximum(ub[k], lb[k]);
        set[k] = 0;
    }
    if (solve_free(n, H, g, set, x_eq, A, b)) {
        info[0] = BOX_QP_SINGULAR;
        return;
    }
    for (long k = 0; k < n; k++) {
        x[k] = clip(x_eq[k], lb[k], hi[k]);
        set[k] = hi[k] == lb[k] ? PINNED
                 : (x[k] <= lb[k] + ACTIVE_TOL ? AT_LO : 0) | (x[k] >= hi[k] - ACTIVE_TOL ? AT_UP : 0);
    }
    for (;;) {
        for (long k = 0; k < n; k++)
            x_eq[k] = set[k] == AT_LO ? lb[k] : set[k] & AT_UP ? hi[k] : x[k];
        if (solve_free(n, H, g, set, x_eq, A, b)) {
            info[0] = BOX_QP_SINGULAR;
            return;
        }
        double size = 0.0;
        for (long k = 0; k < n; k++) {
            step[k] = x_eq[k] - x[k];
            size = fabs(step[k]) > size ? fabs(step[k]) : size;
        }
        long move = -1;
        int side = 0;
        if (size <= KKT_TOL) {
            /* a working-set optimum: release the most negative dual, if any */
            double worst = -DUAL_TOL;
            for (long k = 0; k < n; k++) {
                if (!(set[k] & (AT_LO | AT_UP)))
                    continue;
                double acc = 0.0;
                for (long j = 0; j < n; j++)
                    acc += H[k * n + j] * x[j];
                double grad = g[k] + acc;
                if ((set[k] & AT_UP) && grad < worst) {
                    worst = grad;
                    move = k;
                    side = AT_UP;
                } else if ((set[k] & AT_LO) && -grad < worst) {
                    worst = -grad;
                    move = k;
                    side = AT_LO;
                }
            }
            if (move < 0) {
                for (long k = 0; k < n; k++)
                    x[k] = clip(x[k], lb[k], hi[k]);
                /* the gradient and the value at x, over hi and x_eq[0] */
                double gx = 0.0, xhx = 0.0;
                for (long k = 0; k < n; k++) {
                    double acc = 0.0;
                    for (long j = 0; j < n; j++)
                        acc += H[k * n + j] * x[j];
                    work[k] = g[k] + acc;
                    gx += g[k] * x[k];
                    xhx += x[k] * acc;
                }
                work[n] = gx + 0.5 * xhx;
                info[0] = BOX_QP_OK;
                return;
            }
            set[move] &= ~side;
        } else {
            /* the ratio test: stop at the first bound the step would cross */
            double alpha = 1.0;
            for (long k = 0; k < n; k++) {
                if (set[k])
                    continue;
                if (step[k] > KKT_TOL && x[k] + step[k] > hi[k]) {
                    double a = (hi[k] - x[k]) / step[k];
                    if (a < alpha) {
                        alpha = a;
                        move = k;
                        side = AT_UP;
                    }
                } else if (step[k] < -KKT_TOL && x[k] + step[k] < lb[k]) {
                    double a = (lb[k] - x[k]) / step[k];
                    if (a < alpha) {
                        alpha = a;
                        move = k;
                        side = AT_LO;
                    }
                }
            }
            for (long k = 0; k < n; k++)
                x[k] = x[k] + alpha * step[k];
            if (move < 0)
                continue;
            set[move] |= side;
            x[move] = side == AT_UP ? hi[move] : lb[move];
        }
        info[1] = ++changes;
        if (changes > budget) {
            info[0] = BOX_QP_BUDGET;
            return;
        }
    }
}
