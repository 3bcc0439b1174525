/* The inner loop of engine.run_until for the ranking and neighbor protocols,
 * the seeding and uniform draws that feed it, and the two-agent step that
 * verifier._pair_tables tabulates.
 *
 * A compiled trial seeds and draws here, with exactly the numbers numpy
 * gives, so its seed streams are numpy's.  A stream is numpy's PCG64 bit
 * generator in six words: the 128-bit LCG state and increment, each high
 * word first, then next32's has_uint32 flag and its buffered upper half,
 * uinteger (PCG64 XSL-RR 128/64, O'Neill 2014, as numpy implements it).
 * seed_pool and generate_state are numpy's SeedSequence (after O'Neill's
 * seed_seq): a pool of four 32-bit words hashed from the entropy's
 * little-endian 32-bit words, from which the PCG64 seed and increment are
 * generated.  poplab_seed gives the stream of np.random.default_rng(seed),
 * poplab_seed_trial that of default_rng(engine.mix_seed(seed, index)); the
 * seed arrives as the little-endian bytes of its words, as _compiled.entropy
 * gives them.  draw_below is numpy's random_bounded_uint64 with offset 0:
 * Lemire's rejection ("Fast Random Integer Generation in an Interval", 2019)
 * with its raw 32-bit and 64-bit branches, so a draw moves the stream as
 * rng.integers does.  poplab_draw_states draws agent by agent and field by
 * field, as Protocol.random_states consumes the stream on both of its paths
 * (one field and lo 0 are rng.integers(0, rng + 1, size=count)).  Under
 * _compiled.fits a field has at most 2^63 values, which both paths draw as
 * draw_below does, or exactly 2^64 (a label set at n = 64), for which
 * engine.random_below takes one raw 64-bit word, as draw_below does.
 * _compiled.check_stream checks the seeding and every branch of draw_below
 * against numpy before the first compiled trial of a process.
 *
 * poplab_advance applies the scheduled pairs of one block of pair indices to
 * the configuration in place and stops at the first step after which the
 * stop condition holds: in the convergence phase the safe predicate (RANKED
 * for ranking, neighbor_safe for neighbor), in the closure phase a change of
 * either endpoint's output.  It returns the number of pairs consumed and sets
 * *hit when it stopped on the condition.  Handed a stream, it draws each
 * pair index of the block as it reaches it; handed none, it reads the block
 * it is given.  In the run's last phase (LAST) it draws nothing after the
 * step it stops at, since nothing reads the stream after it; otherwise it
 * draws the rest of the block too, so that the next phase's stream starts
 * where rng.integers(0, size, size=len) leaves numpy's.  Both phases are one
 * always-inline body, with the protocol and the phase as compile-time
 * constants, instantiated once per protocol and phase (draw_below is always
 * inline too, so a pair draw is no call).  The Python modules ranking.step,
 * neighbor.step, oracles.classify_rank_config and oracles.neighbor_safe are
 * the reference; this file mirrors them line for line and engine.run_until
 * confirms its verdicts with the Python predicate.
 *
 * The convergence phase (converge) keeps a census of the token labels and one
 * of the agent labels: how many agents hold each label, and how many labels
 * are held.  Both are built at the start of each call, O(n) per block, and
 * follow the two agents each step touches.  The tokens of a step swap, so the
 * token census takes one net update per step, which only a collision bump
 * makes move.  For neighbor it also counts the agents whose resetE is live.
 * The O(n) predicate runs only when both censuses count n labels and, for
 * neighbor, no reset is live.  That gate is exact: RANKED, which
 * neighbor_safe checks first, holds only when both labelings are
 * permutations of 0..n-1, and neighbor_safe needs every resetE to be 0.
 *
 * The closure phase keeps no census.  There an agent is at home (idA == idT)
 * about one step in n, at random, so a branch on that mispredicts; its host
 * branches once, on "at home with work to do": at home, and white or stale
 * (cA != cT) or out of time (tT == 0).  That is exact: at home with cA == cT
 * and tT > 0, host keeps all five fields, since colorT is never WHITE (its
 * field starts at RED).  An empty asm keeps the test one branch; without it
 * gcc splits it into short-circuit jumps.  The convergence form, where white
 * and stale agents are common, and poplab_step_pairs keep the nested test.
 *
 * poplab_step_pairs applies the same step in place to each of count
 * (initiator, responder) row pairs, pair i being rows 2i and 2i+1, with no
 * schedule and no stop condition.
 *
 * A configuration is n rows of uint64 fields, one row per agent in the order
 * of the protocol's declared field table (ranking.FIELDS, RANK_FIELDS wide,
 * or neighbor.FIELDS, NEIGHBOR_FIELDS wide, which starts with the rank
 * fields), as the module's flatten gives them; label sets are bitmasks, so
 * n <= 64.  cfg holds n, the protocol, tmax, pmax, emax, m_known and the
 * largest pair index.
 */

#include <stdint.h>

enum { IDA, IDT, COLORA, COLORT, TIMERT, DEGREET, DSUM, RESETE, TIMERP, NEIGHBORS, COUNTED };
enum { RANK_FIELDS = 5, NEIGHBOR_FIELDS = 11 };
enum { WHITE = 0, RED = 1, BLUE = 2 };
enum { CFG_N, CFG_NEIGHBOR, CFG_TMAX, CFG_PMAX, CFG_EMAX, CFG_M_KNOWN, CFG_LAST_PAIR };
enum { CLOSURE = 1, LAST = 2 }; /* poplab_advance's phase flags */

typedef uint64_t u64;
typedef __uint128_t u128;

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* PCG64 as numpy keeps it: the LCG, then next32's buffered upper half. */
typedef struct {
    u128 state, inc;
    u64 has_uint32, uinteger;
} pcg64;

#define PCG_MULTIPLIER (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* A stream's six words: state and inc high word first, has_uint32, uinteger. */
static inline pcg64 pcg_load(const u64 *w)
{
    pcg64 r = {(u128)w[0] << 64 | w[1], (u128)w[2] << 64 | w[3], w[4], w[5]};
    return r;
}

static inline void pcg_store(const pcg64 *r, u64 *w)
{
    w[0] = (u64)(r->state >> 64);
    w[1] = (u64)r->state;
    w[2] = (u64)(r->inc >> 64);
    w[3] = (u64)r->inc;
    w[4] = r->has_uint32;
    w[5] = r->uinteger;
}

/* Step the LCG, then the XSL-RR output of the new state. */
static inline u64 next64(pcg64 *r)
{
    r->state = r->state * PCG_MULTIPLIER + r->inc;
    u64 x = (u64)(r->state >> 64) ^ (u64)r->state;
    unsigned rot = (unsigned)(r->state >> 122);
    return (x >> rot) | (x << (-rot & 63));
}

/* The low half of a fresh 64-bit output, its high half kept for the next call. */
static inline uint32_t next32(pcg64 *r)
{
    if (r->has_uint32) {
        r->has_uint32 = 0;
        return (uint32_t)r->uinteger;
    }
    u64 next = next64(r);
    r->has_uint32 = 1;
    r->uinteger = next >> 32;
    return (uint32_t)next;
}

/* numpy's SeedSequence constants. */
#define INIT_A 0x43b0d7e5U
#define MULT_A 0x931e8875U
#define INIT_B 0x8b51f9ddU
#define MULT_B 0x58f38dedU
#define MIX_MULT_L 0xca01f9ddU
#define MIX_MULT_R 0x4973f715U
enum { POOL = 4 };

/* SeedSequence's entropy: the seed's words, then up to two more, as the
 * tuple (seed, index) of engine.mix_seed appends the index's. */
typedef struct {
    const unsigned char *seed; /* seed_words little-endian 32-bit words */
    int64_t seed_words;
    uint32_t tail[2];
    int64_t tail_words;
} entropy;

static uint32_t entropy_word(const entropy *e, int64_t k)
{
    if (k >= e->seed_words)
        return e->tail[k - e->seed_words];
    const unsigned char *b = e->seed + 4 * k;
    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
}

/* The words numpy coerces a non-negative int below 2^64 to: one below 2^32, else two. */
static void set_tail(entropy *e, u64 value)
{
    e->tail[0] = (uint32_t)value;
    e->tail[1] = (uint32_t)(value >> 32);
    e->tail_words = value >> 32 ? 2 : 1;
}

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* SeedSequence.mix_entropy: the pool of the entropy's words. */
static void seed_pool(const entropy *e, uint32_t pool[POOL])
{
    int64_t len = e->seed_words + e->tail_words;
    uint32_t hash_const = INIT_A;
    for (int64_t i = 0; i < POOL; i++)
        pool[i] = hashmix(i < len ? entropy_word(e, i) : 0, &hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = POOL; src < len; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy_word(e, src), &hash_const));
}

/* SeedSequence.generate_state(count, np.uint64): 32-bit words cycling over
 * the pool, paired little end first. */
static void generate_state(const uint32_t pool[POOL], u64 *out, int count)
{
    uint32_t hash_const = INIT_B;
    for (int i = 0; i < 2 * count; i++) {
        uint32_t value = pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        value ^= value >> 16;
        if (i % 2)
            out[i / 2] |= (u64)value << 32;
        else
            out[i / 2] = value;
    }
}

/* The stream of PCG64(SeedSequence(entropy)): pcg64_set_seed on four
 * generated words (seed high, seed low, increment high, increment low), then
 * numpy's srandom: inc = 2 * increment + 1, one step from 0, add the seed,
 * one more step; the 32-bit buffer starts empty. */
static void pcg_seed(const entropy *e, u64 *out)
{
    uint32_t pool[POOL];
    u64 words[4];
    seed_pool(e, pool);
    generate_state(pool, words, 4);
    pcg64 r = {0, ((u128)words[2] << 64 | words[3]) << 1 | 1, 0, 0};
    r.state = r.state * PCG_MULTIPLIER + r.inc;
    r.state += (u128)words[0] << 64 | words[1];
    r.state = r.state * PCG_MULTIPLIER + r.inc;
    pcg_store(&r, out);
}

/* out = the stream of np.random.default_rng(seed), the seed in seed_words words. */
void poplab_seed(const unsigned char *seed, int64_t seed_words, u64 *out)
{
    entropy e = {seed, seed_words, {0, 0}, 0};
    pcg_seed(&e, out);
}

/* out = the stream of np.random.default_rng(engine.mix_seed(seed, index)):
 * one 64-bit word generated from the entropy (seed, index) seeds the stream. */
void poplab_seed_trial(const unsigned char *seed, int64_t seed_words, int64_t index, u64 *out)
{
    entropy e = {seed, seed_words, {0, 0}, 0};
    set_tail(&e, (u64)index);
    uint32_t pool[POOL];
    u64 mixed;
    seed_pool(&e, pool);
    generate_state(pool, &mixed, 1);
    entropy plain = {0, 0, {0, 0}, 0};
    set_tail(&plain, mixed);
    pcg_seed(&plain, out);
}

/* A uniform draw from 0..rng, as numpy's random_bounded_uint64 with offset 0
 * and Lemire's rejection (use_masked false) gives it. */
ALWAYS_INLINE u64 draw_below(pcg64 *r, u64 rng)
{
    if (rng == 0)
        return 0;
    if (rng < UINT32_MAX) {
        uint32_t excl = (uint32_t)rng + 1;
        uint64_t m = (uint64_t)next32(r) * excl;
        uint32_t leftover = (uint32_t)m;
        if (leftover < excl) {
            uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
            while (leftover < threshold) {
                m = (uint64_t)next32(r) * excl;
                leftover = (uint32_t)m;
            }
        }
        return m >> 32;
    }
    if (rng == UINT32_MAX)
        return next32(r);
    if (rng < UINT64_MAX) {
        u64 excl = rng + 1;
        u128 m = (u128)next64(r) * excl;
        u64 leftover = (u64)m;
        if (leftover < excl) {
            u64 threshold = (UINT64_MAX - rng) % excl;
            while (leftover < threshold) {
                m = (u128)next64(r) * excl;
                leftover = (u64)m;
            }
        }
        return (u64)(m >> 64);
    }
    return next64(r);
}

/* count rows of fields values, row-major: field f of a row is lo[f] plus a
 * uniform draw from 0..rng[f]. */
void poplab_draw_states(u64 *stream, const u64 *lo, const u64 *rng, int64_t fields,
                        int64_t count, u64 *out)
{
    pcg64 r = pcg_load(stream);
    for (int64_t i = 0; i < count; i++)
        for (int64_t f = 0; f < fields; f++)
            *out++ = lo[f] + draw_below(&r, rng[f]);
    pcg_store(&r, stream);
}

/* The agent side of a ranking step: agent a now hosts the token (idT, cT, tT). */
ALWAYS_INLINE void host(u64 *restrict a, u64 idT, u64 cT, u64 tT, u64 n, u64 tmax, int closure)
{
    u64 idA = a[IDA], cA = a[COLORA];
    /* In the closure phase: at home with work to do, as one branch (see the header). */
    u64 act = closure ? (idA == idT) & ((cA != cT) | (tT == 0)) : idA == idT;
    if (closure)
        __asm__("" : "+r"(act));
    if (act) {
        if (cA == WHITE)
            cA = cT;
        if (cA != cT) {
            /* Stale color: some other agent owns this label.  Move on, white. */
            if (++idA == n)
                idA = 0;
            cA = WHITE;
        } else if (tT == 0) {
            /* Periodic recoloring: agent and auditor token flip together. */
            tT = tmax;
            cA = cT = cA == RED ? BLUE : RED;
        }
    }
    a[IDA] = idA;
    a[IDT] = idT;
    a[COLORA] = cA;
    a[COLORT] = cT;
    a[TIMERT] = tT;
}

/* ranking.step on the rank parts of a0 (initiator) and a1 (responder). */
ALWAYS_INLINE void rank_step(u64 *restrict a0, u64 *restrict a1, u64 n, u64 tmax, int closure)
{
    u64 idT0 = a1[IDT], cT0 = a1[COLORT], tT0 = a1[TIMERT];
    u64 idT1 = a0[IDT], cT1 = a0[COLORT], tT1 = a0[TIMERT];
    if (idT0 == idT1 && ++idT1 == n)
        idT1 = 0;
    if (tT0 > 0)
        tT0--;
    if (tT1 > 0)
        tT1--;
    host(a0, idT0, cT0, tT0, n, tmax, closure);
    host(a1, idT1, cT1, tT1, n, tmax, closure);
}

/* The set bits of x, by SWAR: baseline x86-64 has no popcnt, so
 * __builtin_popcountll would be a call into libgcc. */
ALWAYS_INLINE u64 popcount(u64 x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    return ((x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL) * 0x0101010101010101ULL >> 56;
}

/* The neighbor body of one agent after its rank part has stepped: deg is the
 * payload of the token it now hosts, nb its neighbor set after the signal. */
ALWAYS_INLINE void audit(u64 *restrict a, u64 partner_idA, u64 deg, u64 nb, u64 shared,
                         const int64_t *cfg)
{
    u64 cap = 2 * (u64)cfg[CFG_M_KNOWN] + 1;
    u64 p = a[TIMERP] > 0 ? a[TIMERP] - 1 : 0;
    u64 dsum = a[DSUM], counted = a[COUNTED];
    if (p == 0) {
        dsum = 0;
        counted = 0;
        p = (u64)cfg[CFG_PMAX];
    }
    nb |= (u64)1 << partner_idA;
    if (a[IDA] == a[IDT])
        deg = popcount(nb);
    if (!((counted >> a[IDT]) & 1)) {
        dsum += deg;
        if (dsum > cap)
            dsum = cap;
        counted |= (u64)1 << a[IDT];
    }
    a[DEGREET] = deg;
    a[DSUM] = dsum;
    a[RESETE] = dsum == cap ? (u64)cfg[CFG_EMAX] : shared;
    a[TIMERP] = p;
    a[NEIGHBORS] = nb;
    a[COUNTED] = counted;
}

/* neighbor.step: the ranking step, then both agents' neighbor bodies. */
ALWAYS_INLINE void neighbor_step(u64 *restrict a0, u64 *restrict a1, const int64_t *cfg,
                                 int closure)
{
    /* The degree payload travels with the physical token. */
    u64 deg0 = a1[DEGREET], deg1 = a0[DEGREET];
    u64 shared = a0[RESETE] >= a1[RESETE] ? a0[RESETE] : a1[RESETE];
    u64 nb0 = a0[NEIGHBORS], nb1 = a1[NEIGHBORS];
    shared = shared > 0 ? shared - 1 : 0;
    if (shared > 0)
        nb0 = nb1 = 0;
    rank_step(a0, a1, (u64)cfg[CFG_N], (u64)cfg[CFG_TMAX], closure);
    audit(a0, a1[IDA], deg0, nb0, shared, cfg);
    audit(a1, a0[IDA], deg1, nb1, shared, cfg);
}

/* classify_rank_config(...) is RANKED: token labels distinct, agent labels
 * distinct, and every agent white or colored like the token of its label. */
static int ranked(const u64 *s, int64_t n, int64_t stride)
{
    u64 tokens = 0, labels = 0;
    u64 token_color[64];
    for (int64_t v = 0; v < n; v++) {
        const u64 *a = s + v * stride;
        u64 bit = (u64)1 << a[IDT];
        if (tokens & bit)
            return 0;
        tokens |= bit;
        token_color[a[IDT]] = a[COLORT];
    }
    for (int64_t v = 0; v < n; v++) {
        const u64 *a = s + v * stride;
        u64 bit = (u64)1 << a[IDA];
        if (labels & bit)
            return 0;
        labels |= bit;
        if (a[COLORA] != WHITE && a[COLORA] != token_color[a[IDA]])
            return 0;
    }
    return 1;
}

/* oracles.neighbor_safe over the CSR adjacency (adj_start[v]..adj_start[v+1]). */
static int neighbor_safe(const u64 *s, const int64_t *cfg, const int64_t *adj_start,
                         const int64_t *adj)
{
    int64_t n = cfg[CFG_N];
    if (!ranked(s, n, NEIGHBOR_FIELDS))
        return 0;
    u64 label_degree[64];
    int64_t token_host[64];
    for (int64_t v = 0; v < n; v++) {
        const u64 *a = s + v * NEIGHBOR_FIELDS;
        label_degree[a[IDA]] = (u64)(adj_start[v + 1] - adj_start[v]);
        token_host[a[IDT]] = v;
    }
    for (int64_t v = 0; v < n; v++) {
        const u64 *a = s + v * NEIGHBOR_FIELDS;
        if (a[RESETE] != 0)
            return 0;
        u64 mask = 0;
        for (int64_t i = adj_start[v]; i < adj_start[v + 1]; i++)
            mask |= (u64)1 << s[adj[i] * NEIGHBOR_FIELDS + IDA];
        if (a[NEIGHBORS] != mask)
            return 0;
    }
    for (int64_t x = 0; x < n; x++)
        if (s[token_host[x] * NEIGHBOR_FIELDS + DEGREET] > label_degree[x])
            return 0;
    for (int64_t v = 0; v < n; v++) {
        const u64 *a = s + v * NEIGHBOR_FIELDS;
        u64 bound = 0;
        for (u64 c = a[COUNTED]; c; c &= c - 1)
            bound += label_degree[__builtin_ctzll(c)];
        if (a[DSUM] > bound)
            return 0;
    }
    return 1;
}

/* How many agents hold each label of one field, and how many labels are held. */
typedef struct {
    int64_t count[64];
    int64_t distinct;
} census;

static void census_fill(census *c, const u64 *s, int64_t n, int64_t stride, int field)
{
    for (int64_t x = 0; x < 64; x++)
        c->count[x] = 0;
    c->distinct = 0;
    for (int64_t v = 0; v < n; v++)
        if (c->count[s[v * stride + field]]++ == 0)
            c->distinct++;
}

/* One agent's label of the field went from `from` to `to`. */
static inline void census_move(census *c, u64 from, u64 to)
{
    if (from == to)
        return;
    if (--c->count[from] == 0)
        c->distinct--;
    if (c->count[to]++ == 0)
        c->distinct++;
}

/* One step of pair (a0, a1), the protocol and the phase fixed at compile
 * time; n and tmax come from cfg, read once by the caller. */
ALWAYS_INLINE void step(u64 *restrict a0, u64 *restrict a1, const int64_t *cfg, u64 n, u64 tmax,
                        int neighbor, int closure)
{
    if (neighbor)
        neighbor_step(a0, a1, cfg, closure);
    else
        rank_step(a0, a1, n, tmax, closure);
}

/* Pair index i of the block: drawn into it from the stream, or read from it. */
ALWAYS_INLINE int64_t pair_index(int64_t *block, int64_t i, pcg64 *rng, int draws,
                                 const int64_t *cfg)
{
    if (draws)
        block[i] = (int64_t)draw_below(rng, (u64)cfg[CFG_LAST_PAIR]);
    return block[i];
}

/* The convergence phase: step until the safe predicate holds.  RANKED (and so
 * neighbor_safe) needs the token labels and the agent labels each to be all
 * n labels, and neighbor_safe needs no live reset, so the O(n) predicate runs
 * only when both censuses count n and, for neighbor, live is 0. */
ALWAYS_INLINE int64_t converge(const int64_t *cfg, const int64_t *pairs,
                               const int64_t *adj_start, const int64_t *adj, u64 *states,
                               pcg64 *rng, int draws, int64_t *block, int64_t len, int64_t *hit,
                               int neighbor)
{
    int64_t n = cfg[CFG_N];
    u64 tmax = (u64)cfg[CFG_TMAX];
    int64_t stride = neighbor ? NEIGHBOR_FIELDS : RANK_FIELDS;
    census tokens, labels;
    census_fill(&tokens, states, n, stride, IDT);
    census_fill(&labels, states, n, stride, IDA);
    int64_t live = 0; /* agents whose resetE is not 0 */
    if (neighbor)
        for (int64_t v = 0; v < n; v++)
            live += states[v * stride + RESETE] != 0;
    *hit = 1;
    for (int64_t i = 0; i < len; i++) {
        int64_t e = pair_index(block, i, rng, draws, cfg);
        u64 *restrict a0 = states + pairs[2 * e] * stride;
        u64 *restrict a1 = states + pairs[2 * e + 1] * stride;
        u64 t0 = a0[IDT], l0 = a0[IDA], l1 = a1[IDA];
        int64_t live_before = neighbor ? (a0[RESETE] != 0) + (a1[RESETE] != 0) : 0;
        step(a0, a1, cfg, (u64)n, tmax, neighbor, 0);
        /* The tokens swap: a0 now hosts a1's, a1 a0's or its collision bump. */
        census_move(&tokens, t0, a1[IDT]);
        census_move(&labels, l0, a0[IDA]);
        census_move(&labels, l1, a1[IDA]);
        if (neighbor)
            live += (a0[RESETE] != 0) + (a1[RESETE] != 0) - live_before;
        if (tokens.distinct != n || labels.distinct != n || live != 0)
            continue;
        if (neighbor ? neighbor_safe(states, cfg, adj_start, adj) : ranked(states, n, RANK_FIELDS))
            return i + 1;
    }
    *hit = 0;
    return len;
}

/* The closure phase: step until an endpoint's output changes. */
ALWAYS_INLINE int64_t closure(const int64_t *cfg, const int64_t *pairs, u64 *states, pcg64 *rng,
                              int draws, int64_t *block, int64_t len, int64_t *hit, int neighbor)
{
    u64 n = (u64)cfg[CFG_N], tmax = (u64)cfg[CFG_TMAX];
    int64_t stride = neighbor ? NEIGHBOR_FIELDS : RANK_FIELDS;
    *hit = 1;
    for (int64_t i = 0; i < len; i++) {
        int64_t e = pair_index(block, i, rng, draws, cfg);
        u64 *restrict a0 = states + pairs[2 * e] * stride;
        u64 *restrict a1 = states + pairs[2 * e + 1] * stride;
        u64 o0 = a0[IDA], o1 = a1[IDA];
        u64 nb0 = neighbor ? a0[NEIGHBORS] : 0, nb1 = neighbor ? a1[NEIGHBORS] : 0;
        step(a0, a1, cfg, n, tmax, neighbor, 1);
        if (a0[IDA] != o0 || a1[IDA] != o1)
            return i + 1;
        if (neighbor && (a0[NEIGHBORS] != nb0 || a1[NEIGHBORS] != nb1))
            return i + 1;
    }
    *hit = 0;
    return len;
}

/* One block of len pairs, its indices drawn from stream or, when stream is
 * null, read from block; phase holds CLOSURE and LAST. */
int64_t poplab_advance(const int64_t *cfg, const int64_t *pairs, const int64_t *adj_start,
                       const int64_t *adj, u64 *states, u64 *stream, int64_t *block, int64_t len,
                       int64_t phase, int64_t *hit)
{
    int draws = stream != 0;
    pcg64 r = {0, 0, 0, 0};
    if (draws)
        r = pcg_load(stream);
    int64_t done;
    if (cfg[CFG_NEIGHBOR])
        done = phase & CLOSURE
                   ? closure(cfg, pairs, states, &r, draws, block, len, hit, 1)
                   : converge(cfg, pairs, adj_start, adj, states, &r, draws, block, len, hit, 1);
    else
        done = phase & CLOSURE
                   ? closure(cfg, pairs, states, &r, draws, block, len, hit, 0)
                   : converge(cfg, pairs, adj_start, adj, states, &r, draws, block, len, hit, 0);
    if (draws) {
        if (!(phase & LAST))
            for (int64_t i = done; i < len; i++)
                block[i] = (int64_t)draw_below(&r, (u64)cfg[CFG_LAST_PAIR]);
        pcg_store(&r, stream);
    }
    return done;
}

void poplab_step_pairs(const int64_t *cfg, u64 *rows, int64_t count)
{
    int neighbor = cfg[CFG_NEIGHBOR] != 0;
    int64_t stride = neighbor ? NEIGHBOR_FIELDS : RANK_FIELDS;
    u64 n = (u64)cfg[CFG_N], tmax = (u64)cfg[CFG_TMAX];
    for (int64_t i = 0; i < count; i++) {
        u64 *a0 = rows + 2 * i * stride;
        step(a0, a0 + stride, cfg, n, tmax, neighbor, 0);
    }
}
