/* LBVH construction and the Borůvka round steps, compiled.
 *
 * Each entry reproduces a NumPy function of the reference engine, and
 * every output array equals the NumPy one byte for byte:
 *
 *   repro_karras         repro/bvh/build.py     karras_hierarchy
 *   repro_schedule       repro/bvh/refit.py     bottom_up_schedule
 *   repro_refit          repro/bvh/refit.py     refit_bounds (inner nodes)
 *   repro_reduce_labels  repro/core/labels.py   reduce_labels (inner nodes)
 *   repro_upper_bounds   repro/core/bounds.py   compute_upper_bounds
 *   repro_component_min  repro/core/outgoing.py the per-component minimum
 *   repro_merge          repro/core/merge.py    merge_components
 *
 * The Python wrappers (repro/bvh/compiled.py) validate every array's
 * dtype, shape and contiguity, fill the leaf rows the NumPy code fills,
 * and charge the same CostCounters; these functions do the loops.
 *
 * Floating point: squared terms add left to right from dimension 0, and
 * the library is built with -ffp-contract=off.  np.minimum and
 * np.maximum propagate a NaN first operand, then a NaN second operand,
 * and on a tie (+0.0 against -0.0) return the second operand; np_minimum
 * and np_maximum below copy that rule, so boxes keep NumPy's zero signs.
 *
 * Safety: every child, schedule entry, label, position and successor is
 * range-checked before it is used as an index, and a walk that could
 * loop on a malformed input is bounded, so bad input returns a status
 * code instead of reading or writing out of bounds.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Status codes, one numbering with traverse.c's 1, 3 and 4;
 * compiled.py maps them. */
enum {
    STP_OK = 0,
    STP_BAD_CHILD = 1,
    STP_NO_MEMORY = 5,
    STP_UNSORTED = 6,
    STP_NOT_A_TREE = 7,
    STP_BAD_SCHEDULE = 8,
    STP_BAD_LABEL = 9,
    STP_BAD_POSITION = 10,
    STP_LONG_CYCLE = 11,
};

#define INVALID_LABEL (-1)
#define INLINE static inline __attribute__((always_inline))

INLINE double np_minimum(double a, double b)
{
    return (a != a || a < b) ? a : b;
}

INLINE double np_maximum(double a, double b)
{
    return (a != a || a > b) ? a : b;
}

/* ------------------------------------------------------------ hierarchy */

typedef struct {
    const uint64_t *hi;  /* (n,) codes, or their high words */
    const uint64_t *lo;  /* (n,) low words of 128-bit codes, or NULL */
    int64_t n;
} codes_t;

INLINE int64_t bit_length(uint64_t x)
{
    return x ? 64 - __builtin_clzll(x) : 0;
}

/* Karras' delta with the index tie-break (repro.geometry.morton's
 * common_prefix_length and common_prefix_length_high); -1 outside. */
INLINE int64_t delta(const codes_t *c, int64_t i, int64_t j)
{
    if (j < 0 || j >= c->n)
        return -1;
    const uint64_t x = c->hi[i] ^ c->hi[j];
    const int64_t width = c->lo ? 128 : 64;
    if (x)
        return 64 - bit_length(x);
    if (c->lo) {
        const uint64_t y = c->lo[i] ^ c->lo[j];
        if (y)
            return 128 - bit_length(y);
    }
    return width + 64 - bit_length((uint64_t)i ^ (uint64_t)j);
}

/* Children and parents of the LBVH over n >= 2 sorted codes: internal
 * node t gets its range by exponential and binary search and its split
 * by binary search, exactly as the vectorized lanes of build.py. */
int repro_karras(const uint64_t *hi, const uint64_t *lo, int64_t n,
                 int64_t *left, int64_t *right, int64_t *parent)
{
    const codes_t c = {hi, lo, n};
    if (n < 2)
        return STP_UNSORTED;
    for (int64_t i = 0; i + 1 < n; i++) {
        if (hi[i] > hi[i + 1]
            || (lo && hi[i] == hi[i + 1] && lo[i] > lo[i + 1]))
            return STP_UNSORTED;
    }
    for (int64_t i = 0; i < 2 * n - 1; i++)
        parent[i] = -1;
    for (int64_t t = 0; t < n - 1; t++) {
        const int64_t dir =
            delta(&c, t, t + 1) > delta(&c, t, t - 1) ? 1 : -1;
        const int64_t dmin = delta(&c, t, t - dir);
        int64_t lmax = 2;
        while (delta(&c, t, t + lmax * dir) > dmin)
            lmax *= 2;
        int64_t len = 0;
        for (int64_t step = lmax / 2; step >= 1; step /= 2) {
            if (delta(&c, t, t + (len + step) * dir) > dmin)
                len += step;
        }
        const int64_t other = t + len * dir;
        const int64_t dnode = delta(&c, t, other);
        int64_t split = 0;
        for (int64_t step = (len + 1) / 2; len > 0; step = (step + 1) / 2) {
            if (delta(&c, t, t + (split + step) * dir) > dnode)
                split += step;
            if (step <= 1)
                break;
        }
        const int64_t gamma = t + split * dir + (dir < 0 ? -1 : 0);
        if (gamma < 0 || gamma + 1 >= n)
            return STP_UNSORTED;
        const int64_t first = t < other ? t : other;
        const int64_t last = t < other ? other : t;
        left[t] = first == gamma ? n - 1 + gamma : gamma;
        right[t] = last == gamma + 1 ? n + gamma : gamma + 1;
        parent[left[t]] = t;
        parent[right[t]] = t;
    }
    return STP_OK;
}

/* ------------------------------------------------------------- schedule */

/* Internal nodes grouped by height above the leaves, each group in
 * ascending id order (bottom_up_schedule): level_start[k] ..
 * level_start[k+1] of `flat` is group k, and *n_levels groups are
 * written.  flat has m-1 slots and level_start m.  A child out of
 * range, an internal node with two parents or a cycle is an error. */
int repro_schedule(const int64_t *left, const int64_t *right, int64_t m,
                   int64_t *flat, int64_t *level_start, int64_t *n_levels)
{
    const int64_t inner = m - 1, nodes = 2 * m - 1;
    int64_t *buf = malloc(4 * (size_t)inner * sizeof(int64_t));
    if (!buf)
        return STP_NO_MEMORY;
    int64_t *parent = buf, *pending = buf + inner;
    int64_t *level = buf + 2 * inner, *queue = buf + 3 * inner;
    int rc = STP_OK;

    for (int64_t t = 0; t < inner; t++) {
        parent[t] = -1;
        pending[t] = 0;
        level[t] = 0;
    }
    for (int64_t t = 0; t < inner && !rc; t++) {
        const int64_t kids[2] = {left[t], right[t]};
        for (int k = 0; k < 2; k++) {
            const int64_t child = kids[k];
            if (child < 1 || child >= nodes) {
                rc = STP_BAD_CHILD;
                break;
            }
            if (child < inner) {
                if (parent[child] != -1) {
                    rc = STP_NOT_A_TREE;
                    break;
                }
                parent[child] = t;
                pending[t]++;
            }
        }
    }
    /* Kahn's order: a node is ready once its inner children are. */
    int64_t head = 0, tail = 0, height = 0;
    for (int64_t t = 0; t < inner && !rc; t++) {
        if (pending[t] == 0)
            queue[tail++] = t;
    }
    while (!rc && head < tail) {
        const int64_t t = queue[head++], p = parent[t];
        if (level[t] + 1 > height)
            height = level[t] + 1;
        if (p < 0)
            continue;
        if (level[t] + 1 > level[p])
            level[p] = level[t] + 1;
        if (--pending[p] == 0)
            queue[tail++] = p;
    }
    if (!rc && tail != inner)
        rc = STP_NOT_A_TREE;
    if (!rc) {
        /* A counting sort by level keeps ascending ids in each group. */
        for (int64_t k = 0; k <= height; k++)
            level_start[k] = 0;
        for (int64_t t = 0; t < inner; t++)
            level_start[level[t] + 1]++;
        for (int64_t k = 0; k < height; k++)
            level_start[k + 1] += level_start[k];
        memcpy(pending, level_start, (size_t)height * sizeof(int64_t));
        for (int64_t t = 0; t < inner; t++)
            flat[pending[level[t]]++] = t;
        *n_levels = height;
    }
    free(buf);
    return rc;
}

/* The children of schedule entry `t`, range-checked. */
INLINE int scheduled_children(const int64_t *left, const int64_t *right,
                              int64_t m, int64_t t, int64_t *l, int64_t *r)
{
    if (t < 0 || t >= m - 1)
        return STP_BAD_SCHEDULE;
    *l = left[t];
    *r = right[t];
    if (*l < 1 || *l >= 2 * m - 1 || *r < 1 || *r >= 2 * m - 1)
        return STP_BAD_CHILD;
    return STP_OK;
}

/* Inner-node boxes: each scheduled node gets the union of its
 * children's boxes (lo, hi: (2m-1, dim), leaf rows already filled). */
int repro_refit(const int64_t *left, const int64_t *right, int64_t m,
                int64_t dim, const int64_t *order, int64_t n_order,
                double *lo, double *hi)
{
    for (int64_t i = 0; i < n_order; i++) {
        int64_t t = order[i], l, r;
        int rc = scheduled_children(left, right, m, t, &l, &r);
        if (rc)
            return rc;
        for (int64_t k = 0; k < dim; k++) {
            lo[t * dim + k] = np_minimum(lo[l * dim + k], lo[r * dim + k]);
            hi[t * dim + k] = np_maximum(hi[l * dim + k], hi[r * dim + k]);
        }
    }
    return STP_OK;
}

/* ----------------------------------------------------------- the rounds */

/* reduceLabels over the schedule: an inner node keeps its children's
 * common label, else INVALID_LABEL (leaf rows already filled). */
int repro_reduce_labels(const int64_t *left, const int64_t *right,
                        int64_t m, const int64_t *order, int64_t n_order,
                        int64_t *node_labels)
{
    for (int64_t i = 0; i < n_order; i++) {
        int64_t t = order[i], l, r;
        int rc = scheduled_children(left, right, m, t, &l, &r);
        if (rc)
            return rc;
        node_labels[t] = node_labels[l] == node_labels[r] ? node_labels[l]
                                                          : INVALID_LABEL;
    }
    return STP_OK;
}

/* computeUpperBounds: for each offset 1..window, every Z-curve pair
 * (i, i + off) in different components bounds both components; *pairs
 * counts the pairs.  NumPy lowers an offset's first labels before its
 * second labels, and one pass lowers both; the minima agree, because a
 * bound is -0.0 only when a core distance is, and squared distances
 * are +0.0 or more.  Inlined once per dimension below, so the 2D and 3D
 * distance loops unroll. */
INLINE int scan_pairs(const double *points, int64_t n, int64_t dim,
                      const int64_t *labels, const double *core_sq,
                      int64_t window, double *bounds, int64_t *pairs)
{
    int64_t total = 0;
    for (int64_t off = 1; off <= window && off < n; off++) {
        for (int64_t i = 0; i + off < n; i++) {
            const int64_t la = labels[i], lb = labels[i + off];
            if (la == lb)
                continue;
            if (la < 0 || la >= n || lb < 0 || lb >= n)
                return STP_BAD_LABEL;
            const double *a = points + i * dim, *b = points + (i + off) * dim;
            double d = 0.0;
            for (int64_t k = 0; k < dim; k++) {
                double g = a[k] - b[k];
                d += g * g;
            }
            if (core_sq) {
                d = np_maximum(d, core_sq[i]);
                d = np_maximum(d, core_sq[i + off]);
            }
            bounds[la] = np_minimum(bounds[la], d);
            bounds[lb] = np_minimum(bounds[lb], d);
            total++;
        }
    }
    *pairs = total;
    return STP_OK;
}

int repro_upper_bounds(const double *points, int64_t n, int64_t dim,
                       const int64_t *labels, const double *core_sq,
                       int64_t window, double *bounds, int64_t *pairs)
{
    switch (dim) {
    case 2:
        return scan_pairs(points, n, 2, labels, core_sq, window, bounds,
                          pairs);
    case 3:
        return scan_pairs(points, n, 3, labels, core_sq, window, bounds,
                          pairs);
    default:
        return scan_pairs(points, n, dim, labels, core_sq, window, bounds,
                          pairs);
    }
}

/* Whether candidate (d, key) precedes (bd, bkey) in lexsort's order:
 * by distance with NaN last, then by key. */
INLINE int precedes(double d, uint64_t key, double bd, uint64_t bkey)
{
    const int d_nan = d != d, bd_nan = bd != bd;
    if (d_nan != bd_nan)
        return bd_nan;
    if (!d_nan && d != bd)
        return d < bd;
    return key < bkey;
}

/* findComponentsOutgoingEdges' selection: each component's minimum
 * lane candidate under (distance, key), ties kept by the lower lane.
 * Writes one row per component with a candidate, in ascending label
 * order (the outputs have room for n rows), and counts[] = {lanes with
 * a candidate, rows, distinct labels}. */
int repro_component_min(int64_t n, const int64_t *labels,
                        const int64_t *position, const double *dist,
                        const uint64_t *key, int64_t *component,
                        int64_t *source, int64_t *target, double *weight,
                        int64_t *target_component, int64_t *counts)
{
    int64_t *slot = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (!slot)
        return STP_NO_MEMORY;
    int64_t found = 0, picked = 0, active = 0;
    int rc = STP_OK;
    for (int64_t c = 0; c < n; c++)
        slot[c] = -1;
    for (int64_t i = 0; i < n; i++) {
        const int64_t c = labels[i];
        if (c < 0 || c >= n || position[i] >= n) {
            rc = c < 0 || c >= n ? STP_BAD_LABEL : STP_BAD_POSITION;
            goto done;
        }
        if (slot[c] == -1) {
            slot[c] = -2;  /* active, no candidate yet */
            active++;
        }
        if (position[i] < 0)
            continue;
        found++;
        const int64_t b = slot[c];
        if (b < 0 || precedes(dist[i], key[i], dist[b], key[b]))
            slot[c] = i;
    }
    for (int64_t c = 0; c < n; c++) {
        const int64_t i = slot[c];
        if (i < 0)
            continue;
        component[picked] = c;
        source[picked] = i;
        target[picked] = position[i];
        weight[picked] = dist[i];
        target_component[picked] = labels[position[i]];
        picked++;
    }
    counts[0] = found;
    counts[1] = picked;
    counts[2] = active;
done:
    free(slot);
    return rc;
}

/* mergeComponents over labels in [0, n): successor array, mutual pairs
 * set to the smaller label, every chain resolved to its terminal, and
 * the n_points labels relabelled.  A walk longer than n steps has met a
 * cycle longer than 2. */
int repro_merge(int64_t n, const int64_t *labels, int64_t n_points,
                int64_t n_edges, const int64_t *component,
                const int64_t *target_component, int64_t *new_labels,
                int64_t *n_components)
{
    int64_t *succ = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    unsigned char *seen = calloc((size_t)(n > 0 ? n : 1), 1);
    int rc = STP_OK;
    if (!succ || !seen) {
        rc = STP_NO_MEMORY;
        goto done;
    }
    for (int64_t c = 0; c < n; c++)
        succ[c] = c;
    for (int64_t k = 0; k < n_edges; k++) {
        const int64_t c = component[k], t = target_component[k];
        if (c < 0 || c >= n || t < 0 || t >= n) {
            rc = STP_BAD_LABEL;
            goto done;
        }
        succ[c] = t;
    }
    /* Pairs are disjoint, so setting both members when the first is
     * met leaves every other pair's test as on the selected successors. */
    for (int64_t k = 0; k < n_edges; k++) {
        const int64_t c = component[k], s = succ[c];
        if (succ[s] == c) {
            const int64_t low = c < s ? c : s;
            succ[c] = low;
            succ[s] = low;
        }
    }
    /* Walk each chain to its fixed point, then point it there. */
    for (int64_t k = 0; k < n_edges; k++) {
        int64_t x = component[k], steps = 0;
        while (succ[x] != x) {
            x = succ[x];
            if (++steps > n) {
                rc = STP_LONG_CYCLE;
                goto done;
            }
        }
        for (int64_t y = component[k], next; y != x; y = next) {
            next = succ[y];
            succ[y] = x;
        }
    }
    int64_t count = 0;
    for (int64_t i = 0; i < n_points; i++) {
        const int64_t c = labels[i];
        if (c < 0 || c >= n) {
            rc = STP_BAD_LABEL;
            goto done;
        }
        const int64_t t = succ[c];
        new_labels[i] = t;
        count += !seen[t];
        seen[t] = 1;
    }
    *n_components = count;
done:
    free(succ);
    free(seen);
    return rc;
}
