/* Checks backward's quotient helper of _kernels.c bit for bit against a / b,
 * built with the helper's fused form enabled (-march of a clone with FMA) and
 * with the source's directory on the include path:
 *
 *   cc -O3 -ffp-contract=off -march=x86-64-v3 -I src/fluidpricing \
 *      -o quotients tests/quotients.c && ./quotients
 *
 * Prints one line per group of operands, "<group> <pairs> <mismatches>", and
 * exits 1 when a group that the fused form must get right has a mismatch. */

#include <stdio.h>

#include "_kernels.c"

static uint64_t state = 0x243F6A8885A308D3ULL;

/* The next uniform of [0, 1) on one stream of the package's counter RNG */
static double uniform(void)
{
    state += GOLDEN;
    return unit_mix(state);
}

/* A double of random significand and sign, its exponent uniform in [lo, hi] */
static double scaled(int lo, int hi)
{
    double x = ldexp(1.0 + uniform(), lo + (int)(uniform() * (hi - lo + 1)));
    return uniform() < 0.5 ? -x : x;
}

static long pairs, misses;

/* Counts a / b against the helper, with the reciprocal the kernel would use */
static void check(double a, double b)
{
    pairs++;
    misses += !same_bits(quotient(a, b, 1.0 / b, 1), a / b);
}

static int report(const char *group, int must_match)
{
    printf("%s %ld %ld\n", group, pairs, misses);
    int failed = must_match && misses > 0;
    pairs = misses = 0;
    return failed;
}

/* d * (alpha - d) for the rates d of a model (alpha, beta, d_lo, d_hi) over beta:
 * both ends, the unconstrained optimum, rates y / t and uniform rates between */
static void rewards(double alpha, double beta, double d_lo, double d_hi)
{
    double ends[] = {d_lo, d_hi, clip(alpha / 2.0, d_lo, d_hi)};
    for (int k = 0; k < 3; k++)
        check(ends[k] * (alpha - ends[k]), beta);
    for (int k = 0; k < 2000; k++) {
        double t = 1.0 + (long)(uniform() * 4096.0), y = (long)(uniform() * (t + 1.0));
        double d = clip(y / t, d_lo, d_hi);
        check(d * (alpha - d), beta);
        d = d_lo + uniform() * (d_hi - d_lo);
        check(d * (alpha - d), beta);
    }
}

int main(void)
{
    int failed = 0;
    /* the RATIO quotients y / t of every cell up to t = 2^12, the reciprocal
     * once per period as in clipped_rows */
    for (long t = 1; t <= 4096; t++) {
        double b = (double)t, rb = 1.0 / b;
        for (long y = 0; y <= t; y++) {
            double a = (double)y;
            pairs++;
            misses += !same_bits(quotient(a, b, rb, 1), a / b);
        }
    }
    failed |= report("ratio", 1);

    for (long k = 0; k < 10000000; k++)
        check(scaled(-32, 32), scaled(-32, 32));
    failed |= report("random", 1);

    /* models drawn as tests/test_policies.py's _bernoulli_models draws them:
     * linear_bernoulli(alpha, beta, 0, reach * alpha / beta), then fixed betas */
    for (int m = 0; m < 2000; m++) {
        double alpha = 0.1 + uniform() * 0.9, beta = 0.1 + uniform() * 1.9;
        double reach = 0.2 + uniform() * 0.8;
        rewards(alpha, beta, alpha - beta * (reach * alpha / beta), alpha);
    }
    double betas[] = {0.1, 1.0 / 3.0, 0.7, 3.0};
    for (int k = 0; k < 4; k++)
        for (int m = 0; m < 200; m++) {
            double alpha = 0.1 + uniform() * 0.9, reach = 0.2 + uniform() * 0.8;
            rewards(alpha, betas[k], alpha - betas[k] * (reach * alpha / betas[k]), alpha);
        }
    failed |= report("rewards", 1);

    /* +0.0, and the limits of the range backward's flag admits: divisors
     * FUSED_MIN and FUSED_MAX and numerators at 2^-365 and 2^257, beyond the
     * [2^-244, 2^191] a RATIO cell's numerator can take.  (-0.0 gives
     * +0.0, the residual being +0.0; no numerator of backward is -0.0.) */
    double limits[] = {FUSED_MIN, nextafter(FUSED_MIN, 1.0), 1.0 / 3.0,
                       nextafter(FUSED_MAX, 0.0), FUSED_MAX};
    for (int k = 0; k < 5; k++) {
        check(0.0, limits[k]);
        for (int n = 0; n < 200000; n++) {
            check(scaled(-365, -360), limits[k]);
            check(scaled(252, 256), limits[k]);
            check(scaled(-365, 257), scaled(-128, 127));
        }
    }
    failed |= !(fusable(FUSED_MIN) && fusable(FUSED_MAX) && !fusable(nextafter(FUSED_MIN, 0.0))
                && !fusable(nextafter(FUSED_MAX, INFINITY)) && !fusable(NAN));
    failed |= report("limits", 1);

    /* beyond the range: subnormal numerators over 0.7 miss in about one case in
     * eight, which shows both that the flag is needed and that check sees a miss */
    for (long k = 0; k < 100000; k++)
        check(ldexp(uniform(), -1022), 0.7);
    failed |= misses == 0;
    report("subnormal", 0);
    return failed;
}
