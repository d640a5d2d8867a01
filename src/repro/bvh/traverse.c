/* Algorithm 2 of the paper, compiled: one stack traversal per query.
 *
 * The kernels run the single-pop loop of repro/bvh/reference.py for one
 * query lane at a time, step for step, so every answer and every work
 * counter equals the reference engine's:
 *
 *   - a popped node is re-tested against the lane's cutoff as of the pop;
 *   - both children are bounded, then kept only if the bound is within
 *     the cutoff (raised to the query's core distance under the
 *     mutual-reachability metric) and the child's component label differs
 *     from the query's (every leaf holds one point, and carries its
 *     label, so singleton labels keep a query from finding itself);
 *   - a kept left leaf is evaluated before a kept right leaf, then the
 *     kept inner children are pushed: far first and near on top;
 *   - each lane counts its steps, and a warp of 32 consecutive lanes is
 *     charged the steps of its busiest lane, which is what the reference
 *     charges by counting every iteration in which any lane is active.
 *
 * Two shortcuts change no value and no count: a pushed child's box
 * distance is kept beside it on the stack, so the pop re-test compares
 * the very value the reference recomputes, and a child the label rule
 * rejects is not bounded at all.  Both still count the box distance
 * evaluations the reference makes.
 *
 * Threads: both kernels hand their lanes out in blocks of 8 whole
 * warps (256 lanes) through an atomic counter, to the calling thread
 * and to `threads - 1` helpers made with pthread_create and joined
 * before the call returns, so no thread outlives a call.  A lane
 * writes only its own outputs, each thread has its own stack rows and
 * work sums, and a warp never spans two blocks, so every answer and
 * every counter (warp_steps included) is the same at any thread count.
 * Helpers block every signal, so signals still reach the interpreter's
 * threads.  A helper that cannot be created is no error: the threads
 * that run take its blocks.  On a malformed tree the lowest-indexed
 * failing block decides the status; a block stops at its first failing
 * lane, so that is the status of the first failing lane, as on one
 * thread.
 *
 * Floating point: squared terms are added left to right from dimension 0
 * (what np.sum does over a last axis shorter than 8), clamps use NumPy's
 * NaN-propagating maximum, and the library is built with
 * -ffp-contract=off, so no multiply-add is fused and every bit matches.
 *
 * Safety: every child index and stack push is checked, and a lane pops
 * at most one node per internal node, so a malformed tree returns an
 * error code instead of reading out of bounds or looping.
 * The caller (repro/bvh/compiled.py) validates every array's dtype,
 * shape and contiguity before passing its pointer.
 */

#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>

/* Status codes; compiled.py maps them to error messages. */
enum {
    TRV_OK = 0,
    TRV_BAD_CHILD = 1,
    TRV_STACK_OVERFLOW = 3,
    TRV_CYCLE = 4,
};

#define WARP_SIZE 32
#define BLOCK_LANES (8 * WARP_SIZE)
#define NO_KEY UINT64_MAX
#define INLINE static inline __attribute__((always_inline))

/* A BVH (see repro/bvh/bvh.py): internal nodes are 0..n-2 (root 0) and
 * the leaf of sorted position j is node n-1+j. */
typedef struct {
    int64_t n;                  /* points, one per leaf */
    int64_t dim;
    const double *points;       /* (n, dim), sorted order */
    const double *lo;           /* (2n-1, dim) node boxes */
    const double *hi;
    const int64_t *left;        /* (n-1,) children of internal nodes */
    const int64_t *right;
    int32_t *stack;             /* a thread's traversal stack: nodes */
    double *bound;              /* and their box distances, as pushed; */
    int64_t stack_cap;          /* thread i's rows start at i * stack_cap */
} tree_t;

/* Work counters, in the order of compiled.py's COUNTER_FIELDS. */
typedef struct {
    int64_t nodes_visited;
    int64_t box_distance_evals;
    int64_t stack_ops;
    int64_t leaf_visits;
    int64_t distance_evals;
    int64_t lane_steps;
    int64_t warp_steps;
} work_t;

typedef struct {
    const double *queries;        /* (B, dim) */
    const double *init_radius_sq; /* (B,) or NULL: unbounded */
    const int64_t *query_labels;  /* (B,) or NULL: no component constraint */
    const int64_t *node_labels;   /* (2n-1,) */
    const uint64_t *query_ids;    /* (B,) or NULL: ties keep the first found */
    const uint64_t *point_ids;    /* (n,) */
    const double *query_core_sq;  /* (B,) or NULL: Euclidean metric */
    const double *point_core_sq;  /* (n,) */
    int64_t *best_pos;            /* (B,) outputs */
    double *best_sq;
    uint64_t *best_key;
} nearest_t;

typedef struct {
    const double *queries;  /* (B, dim) */
    int64_t k;
    double *kbest;          /* (B, k) outputs, ascending */
    int64_t *kpos;
} knn_t;

INLINE double np_max(double a, double b) { return (a >= b || a != a) ? a : b; }
INLINE double np_min(double a, double b) { return (a <= b || a != a) ? a : b; }

INLINE double point_sq(const tree_t *t, const double *q, int64_t p)
{
    const double *x = t->points + p * t->dim;
    double acc = 0.0;
    for (int64_t k = 0; k < t->dim; k++) {
        double g = q[k] - x[k];
        acc += g * g;
    }
    return acc;
}

INLINE double box_sq(const tree_t *t, const double *q, int64_t node)
{
    const double *lo = t->lo + node * t->dim, *hi = t->hi + node * t->dim;
    double acc = 0.0;
    for (int64_t k = 0; k < t->dim; k++) {
        double g = np_max(lo[k] - q[k], 0.0);
        g = np_max(g, q[k] - hi[k]);
        acc += g * g;
    }
    return acc;
}

INLINE uint64_t pair_key(uint64_t a, uint64_t b)
{
    return a < b ? (a << 32) | b : (b << 32) | a;
}

/* The children of popped inner node `node`; never the root. */
INLINE int children(const tree_t *t, int64_t node, int64_t *l, int64_t *r)
{
    int64_t n_nodes = 2 * t->n - 1;
    *l = t->left[node];
    *r = t->right[node];
    if (*l < 1 || *l >= n_nodes || *r < 1 || *r >= n_nodes)
        return TRV_BAD_CHILD;
    return TRV_OK;
}

/* Put the root on an empty stack; like the reference, not a stack op. */
INLINE int seed_root(const tree_t *t, int64_t *sp, double bound)
{
    if (t->stack_cap < 1)
        return TRV_STACK_OVERFLOW;
    t->stack[0] = 0;
    t->bound[0] = bound;
    *sp = 1;
    return TRV_OK;
}

INLINE int push(const tree_t *t, int64_t *sp, int64_t node, double bound,
                work_t *w)
{
    if (*sp >= t->stack_cap)
        return TRV_STACK_OVERFLOW;
    t->stack[*sp] = (int32_t)node;
    t->bound[*sp] = bound;
    (*sp)++;
    w->stack_ops++;
    return TRV_OK;
}

/* Pop the top node.  A lane pops each inner node at most once, so more
 * pops than inner nodes mean the tree has a cycle. */
INLINE int pop(const tree_t *t, int64_t *sp, int64_t *steps, int64_t *node,
               double *bound, work_t *w)
{
    if (++*steps > t->n - 1)
        return TRV_CYCLE;
    (*sp)--;
    *node = t->stack[*sp];
    *bound = t->bound[*sp];
    w->nodes_visited++;
    w->stack_ops++;
    return TRV_OK;
}

/* Push the kept inner children: far first, near on top when both. */
INLINE int push_near_last(const tree_t *t, int64_t *sp, int push_l,
                          int push_r, int64_t l, int64_t r, double dl,
                          double dr, work_t *w)
{
    if (push_l && push_r) {
        int near_is_l = dl <= dr;
        int rc = push(t, sp, near_is_l ? r : l, near_is_l ? dr : dl, w);
        return rc ? rc : push(t, sp, near_is_l ? l : r,
                              near_is_l ? dl : dr, w);
    }
    if (push_l)
        return push(t, sp, l, dl, w);
    if (push_r)
        return push(t, sp, r, dr, w);
    return TRV_OK;
}

/* ------------------------------------------------------------- nearest */

typedef struct {
    double radius;
    double best;
    int64_t pos;
    uint64_t key;
} best_t;

/* Evaluate the leaf of sorted position p.  The node tests already
 * applied the label rule.  The cutoff test stays: under the m.r.d.
 * metric the point's core distance can lift d above the box bound the
 * node test compared. */
INLINE void nearest_leaf(const tree_t *t, const nearest_t *a, int64_t lane,
                         const double *q, int64_t p, best_t *b, work_t *w)
{
    w->leaf_visits++;
    w->distance_evals++;
    double d = point_sq(t, q, p);
    if (a->query_core_sq) {
        d = np_max(d, a->query_core_sq[lane]);
        d = np_max(d, a->point_core_sq[p]);
    }
    if (!(d <= b->radius))
        return;
    if (a->query_ids) {
        /* Minimize (d, key); an equal pair replaces the incumbent, as the
         * reference's scatter does. */
        uint64_t key = pair_key(a->query_ids[lane], a->point_ids[p]);
        if (!(d < b->best || (d == b->best && key <= b->key)))
            return;
        b->key = key;
    } else if (!(d < b->best)) {
        return;
    }
    b->best = d;
    b->pos = p;
    b->radius = np_min(b->radius, d);
}

INLINE int nearest_lane(const tree_t *t, const nearest_t *a, int64_t lane,
                        int64_t *steps, work_t *w)
{
    const double *q = a->queries + lane * t->dim;
    const int64_t leaf_base = t->n - 1;
    const int use_labels = a->query_labels != NULL;
    const int64_t qlab = use_labels ? a->query_labels[lane] : 0;
    const double qcore = a->query_core_sq ? a->query_core_sq[lane] : 0.0;
    best_t b = {a->init_radius_sq ? a->init_radius_sq[lane] : INFINITY,
                INFINITY, -1, NO_KEY};
    int64_t sp = 0;
    int rc = TRV_OK;

    /* A lane whose component spans the whole tree has nothing to find. */
    if (!(use_labels && a->node_labels[0] == qlab)) {
        if (leaf_base == 0)
            nearest_leaf(t, a, lane, q, 0, &b, w);
        else
            rc = seed_root(t, &sp, box_sq(t, q, 0));
    }
    while (!rc && sp > 0) {
        int64_t node, l, r;
        double bound;
        const double rad = b.radius;
        if ((rc = pop(t, &sp, steps, &node, &bound, w)))
            break;
        w->box_distance_evals++;
        if (!(bound <= rad))
            continue;
        if ((rc = children(t, node, &l, &r)))
            break;
        const int leaf_l = l >= leaf_base, leaf_r = r >= leaf_base;
        int ok_l = 1, ok_r = 1;
        if (use_labels) {
            ok_l = a->node_labels[l] != qlab;
            ok_r = a->node_labels[r] != qlab;
        }
        double dl = 0.0, dr = 0.0;
        w->box_distance_evals += 2;
        if (ok_l) {  /* mrd(u, v) >= core(u) bounds the subtree too */
            dl = box_sq(t, q, l);
            ok_l = (a->query_core_sq ? np_max(dl, qcore) : dl) <= rad;
        }
        if (ok_r) {
            dr = box_sq(t, q, r);
            ok_r = (a->query_core_sq ? np_max(dr, qcore) : dr) <= rad;
        }
        if (ok_l && leaf_l)
            nearest_leaf(t, a, lane, q, l - leaf_base, &b, w);
        if (ok_r && leaf_r)
            nearest_leaf(t, a, lane, q, r - leaf_base, &b, w);
        rc = push_near_last(t, &sp, ok_l && !leaf_l, ok_r && !leaf_r, l, r,
                            dl, dr, w);
    }
    a->best_pos[lane] = b.pos;
    a->best_sq[lane] = b.best;
    a->best_key[lane] = b.key;
    return rc;
}

/* ----------------------------------------------------------------- knn */

/* Evaluate the leaf of sorted position p (see nearest_leaf). */
INLINE void knn_leaf(const tree_t *t, const knn_t *a, int64_t lane,
                     const double *q, int64_t p, double *kb, int64_t *kp,
                     work_t *w)
{
    const int64_t k = a->k;
    w->leaf_visits++;
    w->distance_evals++;
    double d = point_sq(t, q, p);
    if (!(d < kb[k - 1]))
        return;
    /* Insert after every entry <= d: incumbents and earlier candidates
     * win ties, as in the reference's stable merge. */
    int64_t j = k - 1;
    for (; j > 0 && kb[j - 1] > d; j--) {
        kb[j] = kb[j - 1];
        kp[j] = kp[j - 1];
    }
    kb[j] = d;
    kp[j] = p;
}

INLINE int knn_lane(const tree_t *t, const knn_t *a, int64_t lane,
                    int64_t *steps, work_t *w)
{
    const double *q = a->queries + lane * t->dim;
    const int64_t leaf_base = t->n - 1, k = a->k;
    double *kb = a->kbest + lane * k;
    int64_t *kp = a->kpos + lane * k;
    int64_t sp = 0;

    for (int64_t j = 0; j < k; j++) {
        kb[j] = INFINITY;
        kp[j] = -1;
    }
    int rc = TRV_OK;
    if (leaf_base == 0)
        knn_leaf(t, a, lane, q, 0, kb, kp, w);
    else
        rc = seed_root(t, &sp, box_sq(t, q, 0));
    while (!rc && sp > 0) {
        int64_t node, l, r;
        double bound;
        const double rad = kb[k - 1];
        if ((rc = pop(t, &sp, steps, &node, &bound, w)))
            break;
        w->box_distance_evals++;
        if (!(bound <= rad))
            continue;
        if ((rc = children(t, node, &l, &r)))
            break;
        const double dl = box_sq(t, q, l), dr = box_sq(t, q, r);
        w->box_distance_evals += 2;
        int ok_l = dl <= rad, ok_r = dr <= rad;
        const int leaf_l = l >= leaf_base, leaf_r = r >= leaf_base;
        if (ok_l && leaf_l)
            knn_leaf(t, a, lane, q, l - leaf_base, kb, kp, w);
        if (ok_r && leaf_r)
            knn_leaf(t, a, lane, q, r - leaf_base, kb, kp, w);
        rc = push_near_last(t, &sp, ok_l && !leaf_l, ok_r && !leaf_r, l, r,
                            dl, dr, w);
    }
    return rc;
}

/* ------------------------------------------------------------- entries */

INLINE void add_work(work_t *out, const work_t *w)
{
    out->nodes_visited += w->nodes_visited;
    out->box_distance_evals += w->box_distance_evals;
    out->stack_ops += w->stack_ops;
    out->leaf_visits += w->leaf_visits;
    out->distance_evals += w->distance_evals;
    out->lane_steps += w->lane_steps;
    out->warp_steps += w->warp_steps;
}

/* Run LANE over lanes [lo, hi), lo a multiple of WARP_SIZE, charging lane
 * and warp steps, and add the work to *out.  Stops at the first failing
 * lane and returns its status.  Callers pass local copies of the tree and
 * the arguments, so no store through an output pointer can make the
 * compiler reload them. */
#define RUN_LANES(LANE, t, a, lo, hi, out)                                 \
    do {                                                                   \
        work_t w = {0};                                                    \
        int64_t warp_max = 0;                                              \
        int rc = TRV_OK;                                                   \
        for (int64_t i = (lo); i < (hi) && !rc; i++) {                     \
            int64_t steps = 0;                                             \
            rc = LANE(t, a, i, &steps, &w);                                \
            w.lane_steps += steps;                                         \
            if (steps > warp_max)                                          \
                warp_max = steps;                                          \
            if (i % WARP_SIZE == WARP_SIZE - 1 || i == (hi) - 1) {         \
                w.warp_steps += warp_max;                                  \
                warp_max = 0;                                              \
            }                                                              \
        }                                                                  \
        add_work(out, &w);                                                 \
        return rc;                                                         \
    } while (0)

typedef int (*block_fn)(const tree_t *tree, const void *args, int64_t lo,
                        int64_t hi, work_t *out);

static int nearest_block(const tree_t *tree, const void *args, int64_t lo,
                         int64_t hi, work_t *out)
{
    const tree_t t = *tree;
    const nearest_t a = *(const nearest_t *)args;
    RUN_LANES(nearest_lane, &t, &a, lo, hi, out);
}

static int knn_block(const tree_t *tree, const void *args, int64_t lo,
                     int64_t hi, work_t *out)
{
    const tree_t t = *tree;
    const knn_t a = *(const knn_t *)args;
    RUN_LANES(knn_lane, &t, &a, lo, hi, out);
}

/* What the threads of one call share. */
typedef struct {
    block_fn run;
    const void *args;
    int64_t n_queries;
    int64_t n_blocks;
    int64_t next;   /* the next block to hand out */
    int64_t stop;   /* the lowest failing block so far, else n_blocks */
} pool_t;

/* One thread of a call: its stack rows, work sums and first failure. */
typedef struct {
    pool_t *pool;
    tree_t tree;
    work_t work;
    int64_t failed; /* the block that failed, else n_blocks */
    int rc;
    pthread_t id;
} runner_t;

/* Take blocks until none is left.  Blocks go out in ascending order, so
 * once one is past a failing block, so is every later one. */
static void *run_blocks(void *arg)
{
    runner_t *me = arg;
    pool_t *p = me->pool;
    for (;;) {
        int64_t b = __atomic_fetch_add(&p->next, 1, __ATOMIC_RELAXED);
        if (b >= p->n_blocks || b > __atomic_load_n(&p->stop,
                                                    __ATOMIC_RELAXED))
            return NULL;
        int64_t lo = b * BLOCK_LANES;
        int64_t hi = p->n_queries - lo < BLOCK_LANES ? p->n_queries
                                                     : lo + BLOCK_LANES;
        int rc = p->run(&me->tree, p->args, lo, hi, &me->work);
        if (rc) {
            me->failed = b;
            me->rc = rc;
            int64_t seen = __atomic_load_n(&p->stop, __ATOMIC_RELAXED);
            while (b < seen && !__atomic_compare_exchange_n(
                       &p->stop, &seen, b, 0, __ATOMIC_RELAXED,
                       __ATOMIC_RELAXED))
                ;
            return NULL;
        }
    }
}

/* Run every lane on up to `threads` threads, the caller's included, and
 * add their work to `out`. */
static int run_threads(block_fn run, const tree_t *tree, const void *args,
                       int64_t n_queries, int64_t threads, work_t *out)
{
    pool_t pool = {run, args, n_queries,
                   (n_queries + BLOCK_LANES - 1) / BLOCK_LANES, 0, 0};
    pool.stop = pool.n_blocks;
    if (threads > pool.n_blocks)
        threads = pool.n_blocks;
    runner_t one, *team = NULL;
    if (threads > 1)
        team = calloc((size_t)threads, sizeof(runner_t));
    if (!team) {
        team = &one;
        threads = 1;
    }
    for (int64_t i = 0; i < threads; i++) {
        team[i] = (runner_t){.pool = &pool, .tree = *tree,
                            .failed = pool.n_blocks};
        team[i].tree.stack += i * tree->stack_cap;
        team[i].tree.bound += i * tree->stack_cap;
    }
    int64_t started = 1;
    if (threads > 1) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        while (started < threads && pthread_create(
                   &team[started].id, NULL, run_blocks, &team[started]) == 0)
            started++;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    run_blocks(&team[0]);
    for (int64_t i = 1; i < started; i++)
        pthread_join(team[i].id, NULL);

    int rc = TRV_OK;
    int64_t failed = pool.n_blocks;
    for (int64_t i = 0; i < started; i++) {
        add_work(out, &team[i].work);
        if (team[i].failed < failed) {
            failed = team[i].failed;
            rc = team[i].rc;
        }
    }
    if (team != &one)
        free(team);
    return rc;
}

/* The entries add their work to `out`, seven int64 slots in work_t's
 * order (compiled.py's COUNTER_FIELDS). */

int repro_nearest(const tree_t *tree, const nearest_t *args,
                  int64_t n_queries, int64_t threads, work_t *out)
{
    return run_threads(nearest_block, tree, args, n_queries, threads, out);
}

int repro_knn(const tree_t *tree, const knn_t *args, int64_t n_queries,
              int64_t threads, work_t *out)
{
    return run_threads(knn_block, tree, args, n_queries, threads, out);
}
