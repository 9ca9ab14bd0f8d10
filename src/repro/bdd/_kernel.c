/* Native BDD kernel: node arena, unique table and the operator
 * recursions of repro.bdd.BddManager.
 *
 * The node encoding is the one the pure-Python reference core uses
 * (repro/bdd/_pycore.py): FALSE = 0, TRUE = 1, internal nodes are ids
 * >= 2 indexing three parallel int32 arrays, no complement edges.  The
 * recursions below mirror the reference core step for step (same
 * terminal cases, same operand canonicalization, same low-before-high
 * expansion order), so both cores create the same nodes in the same
 * order and count the same cache hits and misses.
 *
 * Every recursion runs on an explicit stack: deep variable orders
 * cannot overflow the C stack.  Functions returning a node id return
 * -1 when an allocation fails; the arena, unique table and computed
 * tables stay consistent (a node is entered into the unique table
 * before anything can fail afterwards), so the caller may raise
 * MemoryError and keep using the manager.
 *
 * One kernel must not be used from two threads at once: the Python
 * binding releases the interpreter lock around every call.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BDD_FALSE 0
#define BDD_TRUE 1
#define BDD_TERMINAL_LEVEL (1 << 30)
#define BDD_MAX_NODES 0x7fffffff

enum { OP_AND = 0, OP_OR = 1, OP_XOR = 2 };

/* Counter slots (mirrored by repro.bdd._kernel.COUNTERS). */
enum {
    C_ITE_HITS, C_ITE_MISSES, C_NOT_HITS, C_NOT_MISSES,
    C_AND_HITS, C_AND_MISSES, C_OR_HITS, C_OR_MISSES,
    C_XOR_HITS, C_XOR_MISSES, C_COUNT
};

/* One hash-table entry: key (a, b, c) -> r; r == -1 marks a free slot.
 * The unique table keys on (level, low, high); the computed tables key
 * on operands (unused key slots are 0). */
typedef struct { int32_t a, b, c, r; } entry;

typedef struct {
    entry *slots;
    uint64_t mask;      /* capacity - 1 (capacity is a power of two) */
    int64_t count;
} table;

typedef struct { int32_t tag, a, b, c, top; } frame;

typedef struct bdd_kernel {
    int32_t *level, *low, *high;
    int64_t size, cap;
    table unique;
    table ite, not_, and_, or_, xor_;
    frame *frames;
    int64_t nframes, frames_cap;
    int32_t *results;
    int64_t nresults, results_cap;
    int64_t counters[C_COUNT];
} bdd_kernel;

static int64_t live_kernels = 0;

/* Shared slot of every table that has never held an entry: lookups
 * probe it and miss, the first insert replaces it.  Never written. */
static entry empty_slot = {0, 0, 0, -1};

/* Initial table and arena capacity once something is stored. */
#define SMALL_TABLE 16

/* ------------------------------------------------------------------ */
/* hash tables                                                         */
/* ------------------------------------------------------------------ */

static inline uint64_t hash3(int32_t a, int32_t b, int32_t c)
{
    uint64_t h = (uint64_t)(uint32_t)a * 0x9E3779B97F4A7C15ULL;
    h ^= (uint64_t)(uint32_t)b * 0xC2B2AE3D27D4EB4FULL;
    h ^= (uint64_t)(uint32_t)c * 0x165667B19E3779F9ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
}

static void table_empty(table *t)
{
    t->slots = &empty_slot;
    t->mask = 0;
    t->count = 0;
}

static void table_free(table *t)
{
    if (t->slots != &empty_slot)
        free(t->slots);
    table_empty(t);
}

static int table_init(table *t, uint64_t capacity)
{
    t->slots = (entry *)malloc(capacity * sizeof(entry));
    if (t->slots == NULL)
        return -1;
    memset(t->slots, 0xff, capacity * sizeof(entry));   /* r = -1 */
    t->mask = capacity - 1;
    t->count = 0;
    return 0;
}

static inline int32_t table_get(const table *t, int32_t a, int32_t b,
                                int32_t c)
{
    uint64_t i = hash3(a, b, c) & t->mask;
    for (;;) {
        const entry *e = &t->slots[i];
        if (e->r < 0)
            return -1;
        if (e->a == a && e->b == b && e->c == c)
            return e->r;
        i = (i + 1) & t->mask;
    }
}

/* Insert a key known to be absent (no duplicate check). */
static inline void table_put_new(table *t, int32_t a, int32_t b, int32_t c,
                                 int32_t r)
{
    uint64_t i = hash3(a, b, c) & t->mask;
    while (t->slots[i].r >= 0)
        i = (i + 1) & t->mask;
    t->slots[i].a = a;
    t->slots[i].b = b;
    t->slots[i].c = c;
    t->slots[i].r = r;
    t->count++;
}

/* Make room for one more entry (load factor kept at or below 3/4). */
static int table_reserve(table *t)
{
    if ((uint64_t)(t->count + 1) * 4 <= (t->mask + 1) * 3)
        return 0;
    table grown;
    uint64_t capacity = t->count ? (t->mask + 1) * 2 : SMALL_TABLE;
    if (table_init(&grown, capacity) < 0)
        return -1;
    for (uint64_t i = 0; i <= t->mask; i++) {
        const entry *e = &t->slots[i];
        if (e->r >= 0)
            table_put_new(&grown, e->a, e->b, e->c, e->r);
    }
    table_free(t);
    *t = grown;
    return 0;
}

/* Insert or overwrite; -1 when the table cannot grow. */
static inline int table_put(table *t, int32_t a, int32_t b, int32_t c,
                            int32_t r)
{
    uint64_t i = hash3(a, b, c) & t->mask;
    for (;;) {
        entry *e = &t->slots[i];
        if (e->r < 0)
            break;
        if (e->a == a && e->b == b && e->c == c) {
            e->r = r;
            return 0;
        }
        i = (i + 1) & t->mask;
    }
    if (table_reserve(t) < 0)
        return -1;
    table_put_new(t, a, b, c, r);
    return 0;
}

static void table_clear(table *t)
{
    if (t->count == 0)
        return;
    memset(t->slots, 0xff, (t->mask + 1) * sizeof(entry));
    t->count = 0;
}


/* ------------------------------------------------------------------ */
/* arena                                                               */
/* ------------------------------------------------------------------ */

static int arena_reserve(bdd_kernel *k, int64_t need)
{
    if (need <= k->cap)
        return 0;
    if (need > BDD_MAX_NODES)
        return -1;
    int64_t cap = k->cap * 2;
    if (cap < need)
        cap = need;
    if (cap > BDD_MAX_NODES)
        cap = BDD_MAX_NODES;
    int32_t *level = (int32_t *)realloc(k->level, cap * sizeof(int32_t));
    if (level == NULL)
        return -1;
    k->level = level;
    int32_t *low = (int32_t *)realloc(k->low, cap * sizeof(int32_t));
    if (low == NULL)
        return -1;
    k->low = low;
    int32_t *high = (int32_t *)realloc(k->high, cap * sizeof(int32_t));
    if (high == NULL)
        return -1;
    k->high = high;
    k->cap = cap;
    return 0;
}

/* Find-or-create the reduced node (level, low, high). */
static inline int32_t mk(bdd_kernel *k, int32_t level, int32_t low,
                         int32_t high)
{
    if (low == high)
        return low;
    int32_t node = table_get(&k->unique, level, low, high);
    if (node >= 0)
        return node;
    if (arena_reserve(k, k->size + 1) < 0 || table_reserve(&k->unique) < 0)
        return -1;
    node = (int32_t)k->size++;
    k->level[node] = level;
    k->low[node] = low;
    k->high[node] = high;
    table_put_new(&k->unique, level, low, high, node);
    return node;
}

/* Re-enter every arena row; a later duplicate row (unreachable junk)
 * takes the key over, as in the reference core's dict rebuild.  The
 * table must already have room for all rows. */
static void rebuild_unique(bdd_kernel *k)
{
    table *t = &k->unique;
    table_clear(t);
    for (int64_t n = 2; n < k->size; n++) {
        int32_t a = k->level[n], b = k->low[n], c = k->high[n];
        uint64_t i = hash3(a, b, c) & t->mask;
        while (t->slots[i].r >= 0
                && !(t->slots[i].a == a && t->slots[i].b == b
                     && t->slots[i].c == c))
            i = (i + 1) & t->mask;
        if (t->slots[i].r < 0) {
            t->slots[i].a = a;
            t->slots[i].b = b;
            t->slots[i].c = c;
            t->count++;
        }
        t->slots[i].r = (int32_t)n;
    }
}

/* ------------------------------------------------------------------ */
/* explicit stacks (shared by nested recursions; each call unwinds to  */
/* the depth it started at)                                            */
/* ------------------------------------------------------------------ */

static inline int push_frame(bdd_kernel *k, int32_t tag, int32_t a,
                             int32_t b, int32_t c, int32_t top)
{
    if (k->nframes == k->frames_cap) {
        int64_t cap = k->frames_cap ? k->frames_cap * 2 : 256;
        frame *grown = (frame *)realloc(k->frames, cap * sizeof(frame));
        if (grown == NULL)
            return -1;
        k->frames = grown;
        k->frames_cap = cap;
    }
    frame *f = &k->frames[k->nframes++];
    f->tag = tag;
    f->a = a;
    f->b = b;
    f->c = c;
    f->top = top;
    return 0;
}

static inline int push_result(bdd_kernel *k, int32_t r)
{
    if (k->nresults == k->results_cap) {
        int64_t cap = k->results_cap ? k->results_cap * 2 : 256;
        int32_t *grown = (int32_t *)realloc(k->results,
                                            cap * sizeof(int32_t));
        if (grown == NULL)
            return -1;
        k->results = grown;
        k->results_cap = cap;
    }
    k->results[k->nresults++] = r;
    return 0;
}

/* ------------------------------------------------------------------ */
/* operators                                                           */
/* ------------------------------------------------------------------ */

static int32_t not_rec(bdd_kernel *k, int32_t f)
{
    if (f <= BDD_TRUE)
        return f ^ 1;
    int32_t cached = table_get(&k->not_, f, 0, 0);
    if (cached >= 0) {
        k->counters[C_NOT_HITS]++;
        return cached;
    }
    int64_t fbase = k->nframes, rbase = k->nresults;
    if (push_frame(k, 0, f, 0, 0, 0) < 0)
        goto fail;
    while (k->nframes > fbase) {
        frame fr = k->frames[--k->nframes];
        int32_t node = fr.a;
        if (fr.tag == 0) {
            int32_t r;
            if (node <= BDD_TRUE) {
                r = node ^ 1;
            } else if ((r = table_get(&k->not_, node, 0, 0)) >= 0) {
                k->counters[C_NOT_HITS]++;
            } else {
                if (push_frame(k, 1, node, 0, 0, 0) < 0
                        || push_frame(k, 0, k->high[node], 0, 0, 0) < 0
                        || push_frame(k, 0, k->low[node], 0, 0, 0) < 0)
                    goto fail;
                continue;
            }
            if (push_result(k, r) < 0)
                goto fail;
        } else {
            int32_t r1 = k->results[--k->nresults];
            int32_t r0 = k->results[--k->nresults];
            int32_t r = mk(k, k->level[node], r0, r1);
            if (r < 0)
                goto fail;
            if (table_put(&k->not_, node, 0, 0, r) < 0
                    || table_put(&k->not_, r, 0, 0, node) < 0)
                goto fail;
            k->counters[C_NOT_MISSES]++;
            k->results[k->nresults++] = r;   /* a slot was just freed */
        }
    }
    {
        int32_t r = k->results[rbase];
        k->nresults = rbase;
        return r;
    }
fail:
    k->nframes = fbase;
    k->nresults = rbase;
    return -1;
}

/* Specialized binary apply for and/or/xor (operands kept sorted, so
 * the computed tables are commutatively canonical). */
static int32_t apply2(bdd_kernel *k, int op, int32_t f, int32_t g)
{
    table *cache = op == OP_AND ? &k->and_ : op == OP_OR ? &k->or_
                                                         : &k->xor_;
    int hit_slot = op == OP_AND ? C_AND_HITS : op == OP_OR ? C_OR_HITS
                                                           : C_XOR_HITS;
    int64_t fbase = k->nframes, rbase = k->nresults;
    if (push_frame(k, 0, f, g, 0, 0) < 0)
        goto fail;
    while (k->nframes > fbase) {
        frame fr = k->frames[--k->nframes];
        if (fr.tag == 0) {
            int32_t a = fr.a, b = fr.b, r;
            if (a > b) {
                int32_t t = a;
                a = b;
                b = t;
            }
            /* a <= b, so a terminal b implies a terminal a. */
            if (a == BDD_FALSE) {
                r = op == OP_AND ? BDD_FALSE : b;
            } else if (a == BDD_TRUE) {
                if (op == OP_AND)
                    r = b;
                else if (op == OP_OR)
                    r = BDD_TRUE;
                else if ((r = not_rec(k, b)) < 0)
                    goto fail;
            } else if (a == b) {
                r = op == OP_XOR ? BDD_FALSE : b;
            } else if ((r = table_get(cache, a, b, 0)) >= 0) {
                k->counters[hit_slot]++;
            } else {
                int32_t la = k->level[a], lb = k->level[b];
                int32_t top = la < lb ? la : lb;
                int32_t a0 = a, a1 = a, b0 = b, b1 = b;
                if (la == top) {
                    a0 = k->low[a];
                    a1 = k->high[a];
                }
                if (lb == top) {
                    b0 = k->low[b];
                    b1 = k->high[b];
                }
                if (push_frame(k, 1, a, b, 0, top) < 0
                        || push_frame(k, 0, a1, b1, 0, 0) < 0
                        || push_frame(k, 0, a0, b0, 0, 0) < 0)
                    goto fail;
                continue;
            }
            if (push_result(k, r) < 0)
                goto fail;
        } else {
            int32_t r1 = k->results[--k->nresults];
            int32_t r0 = k->results[--k->nresults];
            int32_t r = mk(k, fr.top, r0, r1);
            if (r < 0 || table_put(cache, fr.a, fr.b, 0, r) < 0)
                goto fail;
            k->counters[hit_slot + 1]++;
            k->results[k->nresults++] = r;
        }
    }
    {
        int32_t r = k->results[rbase];
        k->nresults = rbase;
        return r;
    }
fail:
    k->nframes = fbase;
    k->nresults = rbase;
    return -1;
}

/* If-then-else with the reference core's triple canonicalization:
 * conjunction- and disjunction-shaped triples go to and/or. */
static int32_t ite_rec(bdd_kernel *k, int32_t f, int32_t g, int32_t h)
{
    int64_t fbase = k->nframes, rbase = k->nresults;
    if (push_frame(k, 0, f, g, h, 0) < 0)
        goto fail;
    while (k->nframes > fbase) {
        frame fr = k->frames[--k->nframes];
        if (fr.tag == 0) {
            int32_t a = fr.a, b = fr.b, c = fr.c, r;
            if (a == BDD_TRUE) {
                r = b;
            } else if (a == BDD_FALSE) {
                r = c;
            } else if (b == c) {
                r = b;
            } else {
                if (b == a)
                    b = BDD_TRUE;
                if (c == a)
                    c = BDD_FALSE;
                if (b == BDD_TRUE) {
                    if (c == BDD_FALSE)
                        r = a;
                    else if ((r = apply2(k, OP_OR, a, c)) < 0)
                        goto fail;
                } else if (c == BDD_FALSE) {
                    if ((r = apply2(k, OP_AND, a, b)) < 0)
                        goto fail;
                } else if ((r = table_get(&k->ite, a, b, c)) >= 0) {
                    k->counters[C_ITE_HITS]++;
                } else {
                    int32_t la = k->level[a], lb = k->level[b];
                    int32_t lc = k->level[c];
                    int32_t top = la < lb ? la : lb;
                    if (lc < top)
                        top = lc;
                    int32_t a0 = a, a1 = a, b0 = b, b1 = b, c0 = c, c1 = c;
                    if (la == top) {
                        a0 = k->low[a];
                        a1 = k->high[a];
                    }
                    if (lb == top) {
                        b0 = k->low[b];
                        b1 = k->high[b];
                    }
                    if (lc == top) {
                        c0 = k->low[c];
                        c1 = k->high[c];
                    }
                    if (push_frame(k, 1, a, b, c, top) < 0
                            || push_frame(k, 0, a1, b1, c1, 0) < 0
                            || push_frame(k, 0, a0, b0, c0, 0) < 0)
                        goto fail;
                    continue;
                }
            }
            if (push_result(k, r) < 0)
                goto fail;
        } else {
            int32_t r1 = k->results[--k->nresults];
            int32_t r0 = k->results[--k->nresults];
            int32_t r = mk(k, fr.top, r0, r1);
            if (r < 0 || table_put(&k->ite, fr.a, fr.b, fr.c, r) < 0)
                goto fail;
            k->counters[C_ITE_MISSES]++;
            k->results[k->nresults++] = r;
        }
    }
    {
        int32_t r = k->results[rbase];
        k->nresults = rbase;
        return r;
    }
fail:
    k->nframes = fbase;
    k->nresults = rbase;
    return -1;
}

/* Entry points.  Node ids from the caller are range-checked (-2 when
 * one is not a node of this kernel); ids read from the arena are valid
 * by construction. */

#define VALID(k, n) ((uint32_t)(n) < (uint64_t)(k)->size)

int32_t bdd_not(bdd_kernel *k, int32_t f)
{
    return VALID(k, f) ? not_rec(k, f) : -2;
}

int32_t bdd_and(bdd_kernel *k, int32_t f, int32_t g)
{
    return VALID(k, f) && VALID(k, g) ? apply2(k, OP_AND, f, g) : -2;
}

int32_t bdd_or(bdd_kernel *k, int32_t f, int32_t g)
{
    return VALID(k, f) && VALID(k, g) ? apply2(k, OP_OR, f, g) : -2;
}

int32_t bdd_xor(bdd_kernel *k, int32_t f, int32_t g)
{
    return VALID(k, f) && VALID(k, g) ? apply2(k, OP_XOR, f, g) : -2;
}

int32_t bdd_ite(bdd_kernel *k, int32_t f, int32_t g, int32_t h)
{
    if (!VALID(k, f) || !VALID(k, g) || !VALID(k, h))
        return -2;
    return ite_rec(k, f, g, h);
}

int32_t bdd_mk(bdd_kernel *k, int32_t level, int32_t low, int32_t high)
{
    if (level < 0 || level >= BDD_TERMINAL_LEVEL || !VALID(k, low)
            || !VALID(k, high))
        return -2;
    return mk(k, level, low, high);
}

/* ------------------------------------------------------------------ */
/* lifetime, accessors, bulk transfer                                  */
/* ------------------------------------------------------------------ */

void bdd_free(bdd_kernel *k)
{
    if (k == NULL)
        return;
    free(k->level);
    free(k->low);
    free(k->high);
    table_free(&k->unique);
    table_free(&k->ite);
    table_free(&k->not_);
    table_free(&k->and_);
    table_free(&k->or_);
    table_free(&k->xor_);
    free(k->frames);
    free(k->results);
    free(k);
    __atomic_fetch_sub(&live_kernels, 1, __ATOMIC_RELAXED);
}

bdd_kernel *bdd_new(void)
{
    bdd_kernel *k = (bdd_kernel *)calloc(1, sizeof(bdd_kernel));
    if (k == NULL)
        return NULL;
    __atomic_fetch_add(&live_kernels, 1, __ATOMIC_RELAXED);
    /* Tables start as the shared empty slot and the arena holds just
     * the terminals: managers that never leave the terminals (compile-
     * time constant folding makes one per expression) stay tiny. */
    table_empty(&k->unique);
    table_empty(&k->ite);
    table_empty(&k->not_);
    table_empty(&k->and_);
    table_empty(&k->or_);
    table_empty(&k->xor_);
    if (arena_reserve(k, 2) < 0) {
        bdd_free(k);
        return NULL;
    }
    for (int n = 0; n < 2; n++) {
        k->level[n] = BDD_TERMINAL_LEVEL;
        k->low[n] = 0;
        k->high[n] = 0;
    }
    k->size = 2;
    return k;
}

int64_t bdd_live_kernels(void)
{
    return __atomic_load_n(&live_kernels, __ATOMIC_RELAXED);
}

int64_t bdd_size(const bdd_kernel *k)
{
    return k->size;
}

/* Per-node accessors (-1 for an id that is not a node). */
int32_t bdd_level(const bdd_kernel *k, int32_t n)
{
    return VALID(k, n) ? k->level[n] : -1;
}

int32_t bdd_low(const bdd_kernel *k, int32_t n)
{
    return VALID(k, n) ? k->low[n] : -1;
}

int32_t bdd_high(const bdd_kernel *k, int32_t n)
{
    return VALID(k, n) ? k->high[n] : -1;
}

/* Copy the whole arena (terminals included) into caller buffers of
 * bdd_size(k) entries each. */
void bdd_export(const bdd_kernel *k, int32_t *level, int32_t *low,
                int32_t *high)
{
    memcpy(level, k->level, k->size * sizeof(int32_t));
    memcpy(low, k->low, k->size * sizeof(int32_t));
    memcpy(high, k->high, k->size * sizeof(int32_t));
}

/* Drop every computed table (counters are cumulative and stay). */
void bdd_clear_caches(bdd_kernel *k)
{
    table_clear(&k->ite);
    table_clear(&k->not_);
    table_clear(&k->and_);
    table_clear(&k->or_);
    table_clear(&k->xor_);
}

static int resize_unique_for(bdd_kernel *k, int64_t n)
{
    uint64_t capacity = SMALL_TABLE;
    while ((uint64_t)n * 4 > capacity * 3)
        capacity *= 2;
    if (capacity == k->unique.mask + 1)
        return 0;
    table fresh;
    if (table_init(&fresh, capacity) < 0)
        return -1;
    table_free(&k->unique);
    k->unique = fresh;
    return 0;
}

/* Replace the arena with n rows (terminal rows 0/1 are ignored and
 * reset), rebuild the unique table and drop the computed tables.
 * Returns -2 (arena untouched) when a row is malformed: a child that
 * does not precede its parent, or a level outside [0, 2^30).  Returns
 * -1 when memory runs out; the kernel is then empty but usable. */
int bdd_load(bdd_kernel *k, const int32_t *level, const int32_t *low,
             const int32_t *high, int64_t n)
{
    if (n < 2 || n > BDD_MAX_NODES)
        return -2;
    for (int64_t i = 2; i < n; i++) {
        if (level[i] < 0 || level[i] >= BDD_TERMINAL_LEVEL
                || low[i] < 0 || low[i] >= i || high[i] < 0 || high[i] >= i)
            return -2;
    }
    bdd_clear_caches(k);
    if (arena_reserve(k, n) < 0 || resize_unique_for(k, n) < 0) {
        k->size = 2;
        table_clear(&k->unique);
        return -1;
    }
    memcpy(k->level + 2, level + 2, (n - 2) * sizeof(int32_t));
    memcpy(k->low + 2, low + 2, (n - 2) * sizeof(int32_t));
    memcpy(k->high + 2, high + 2, (n - 2) * sizeof(int32_t));
    k->size = n;
    rebuild_unique(k);
    return 0;
}

/* Append count rows (level, low, high) that bypass the unique table:
 * unreachable junk for fault injection.  -1 when memory runs out. */
int bdd_append_raw(bdd_kernel *k, int32_t level, int32_t low, int32_t high,
                   int64_t count)
{
    if (count < 0 || arena_reserve(k, k->size + count) < 0)
        return -1;
    for (int64_t i = 0; i < count; i++) {
        k->level[k->size] = level;
        k->low[k->size] = low;
        k->high[k->size] = high;
        k->size++;
    }
    return 0;
}

void bdd_get_counters(const bdd_kernel *k, int64_t *out)
{
    memcpy(out, k->counters, sizeof(k->counters));
}

void bdd_set_counters(bdd_kernel *k, const int64_t *in)
{
    memcpy(k->counters, in, sizeof(k->counters));
}
