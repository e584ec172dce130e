/*
 * Native FOP kernel: runs FOP's whole insertion-point search over one
 * localRegion (paper Fig. 3(e), the triple loop over candidate bottom rows,
 * insertion intervals and cells) in a single call: it enumerates the
 * insertion points of every candidate bottom row, scores each one (SACS
 * shifting, displacement-curve construction, curve minimization and site
 * snapping) and reduces them to the winning point.
 *
 * The kernel is a transcription of the pure-Python reference
 * (repro.mgl.insertion.enumerate_insertion_points,
 * repro.core.sacs.shift_cells_sacs, repro.mgl.fop.build_curves,
 * repro.mgl.curves.minimize_curves / minimize_curves_fwd_bwd, the FOP
 * snapping step and the reduction of repro.mgl.fop.reduce_points) and must
 * agree with it bit for bit.  Every floating-point operation below is the
 * same IEEE-754 double operation, on the same operands, in the same order as
 * in the reference:
 *
 *   - cells are ordered by (x, local index), the key of
 *     repro.geometry.region.LocalRegion.sorted_by_x (the SACS pre-sort);
 *   - threshold dictionaries are replayed with explicit first-insertion
 *     order lists, because curve construction (and therefore the constant
 *     fold and the snapping sums) iterates them in insertion order; the
 *     winner's lists are returned in that order, as the reference's dicts
 *     hold them (boundary cells in spanned-row order, then each neighbour
 *     at its first assignment);
 *   - Python's max(a, b) / min(a, b) keep the first argument on ties, which
 *     py_max / py_min reproduce (this only matters for signed zeros);
 *   - the breakpoint sort is stable, like Python's sorted();
 *   - sums are the reference's left folds from 0.0; the snapping sum follows
 *     CPython's float sum(), which is compensated (Neumaier) from 3.12 on,
 *     selected by fop_search.neumaier_sum.
 *
 * Build with -O2 -ffp-contract=off and without -ffast-math: contraction into
 * fused multiply-adds or reassociation would change results.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#define EPS 1e-9

/* fop_search_region return codes. */
#define OK 0
#define NO_MEMORY -1
#define BAD_REGION -2 /* the arrays do not describe a consistent localRegion */

/* The call's arguments, as packed by repro.kernels.native (the field order
   matters: the ctypes mirror there lists the same fields). */
typedef struct {
    /* localCells */
    int n_cells;
    const double *x;        /* snapshot x */
    const double *width;
    const double *gp_x;     /* global-placement x */
    const int *cell_row_start; /* n_cells + 1 offsets into cell_rows */
    const int *cell_rows;   /* row of each subcell, in cell.rows order */
    /* rows (dense index = row - row_base) */
    int row_base;
    int n_rows;
    const int *row_start;   /* n_rows + 1 offsets into row_cells */
    const int *row_cells;   /* per-row x-sorted local indices */
    const double *row_seg_lo; /* segment bounds (0.0 for a row without one) */
    const double *row_seg_hi;
    /* target and configuration */
    double target_gp_x;
    double target_gp_y;
    double target_width;
    double vertical_cost_factor;
    int height;
    int fwd_bwd;
    int neumaier_sum;
    /* candidate bottom rows (absolute), in the order FOP enumerates them */
    int n_bottoms;
    const int *bottoms;
    /* per-point outputs, in enumeration order; each column holds capacity
       entries: feasible, n_left, n_right, n_breakpoints, n_merged */
    int capacity;
    int *point_ints;
    double *point_scores;   /* best site, cost columns (nan, inf where infeasible) */
    /* search outputs */
    int n_points;
    int n_feasible;
    int winner;             /* index of the winning point, -1 when none */
    int winner_bottom;
    int *winner_split;      /* height split indices, bottom row first */
    /* the winner's shift outcome (repro.mgl.shifting.ShiftOutcome): its
       left cells at winner_cells[0 .. n_left) and right cells at
       winner_cells[n_cells .. n_cells + n_right), each in first-assignment
       order, with their thresholds at the same offsets of winner_values */
    int *winner_cells;      /* 2 * n_cells entries */
    double *winner_values;  /* 2 * n_cells entries */
    int winner_n_left;
    int winner_n_right;
    double winner_xt_lo;
    double winner_xt_hi;
} fop_search;

/* The region as the scoring loop reads it: the call's arrays plus the ones
   derived from them once per call (derive_region). */
typedef struct {
    int n_cells;
    const double *x;
    const double *gp_x;
    const int *cell_row_start;
    int n_rows;
    const int *row_start;
    const int *row_cells;
    const double *row_seg_lo;
    const double *row_seg_hi;
    double target_gp_x;
    double target_gp_y;
    double target_width;
    double vertical_cost_factor;
    int height;
    int fwd_bwd;
    /* derived */
    int *order_asc;  /* cells sorted by (x, index): the right-move order */
    int *cell_rows;  /* dense row of each subcell */
    double *right;   /* x + width */
    double *seg_lo;  /* tightest segment lower bound over the cell's rows */
    double *seg_hi;  /* tightest segment upper bound over the cell's rows */
    int *order_desc; /* left-move processing order (rank -> cell) */
    int *rank_desc;  /* cell -> rank in order_desc */
    int *rank_asc;   /* cell -> rank in order_asc */
    int *cell_pos;   /* position of each subcell in its row */
} fop_region;

static inline double py_max(double a, double b) { return b > a ? b : a; }
static inline double py_min(double a, double b) { return b < a ? b : a; }

typedef struct {
    int *stamp;    /* point epoch at which the cell received a threshold */
    double *value; /* threshold value (valid when stamp == epoch) */
    int *order;    /* cells in first-assignment order */
    int count;
} thresholds;

static inline int has(const thresholds *t, int idx, int epoch)
{
    return t->stamp[idx] == epoch;
}

static inline void insert(thresholds *t, int idx, double v, int epoch)
{
    t->stamp[idx] = epoch;
    t->order[t->count++] = idx;
    t->value[idx] = v;
}

/* Split index of dense row r for the current point, or -1 when r is not spanned. */
static inline int split_of(const fop_region *R, const int *split, int bd, int r)
{
    int j = r - bd;
    return (j >= 0 && j < R->height) ? split[j] : -1;
}

/* SACS left-move phase (repro.core.sacs.shift_cells_sacs). */
static void shift_left(const fop_region *R, const int *split, int bd, thresholds *t, int epoch)
{
    int lo_rank = R->n_cells, hi_rank = -1;
    t->count = 0;
    for (int j = 0; j < R->height; j++) {
        int r = bd + j, k = split[j];
        if (k > 0) {
            int idx = R->row_cells[R->row_start[r] + k - 1];
            if (has(t, idx, epoch))
                t->value[idx] = py_max(t->value[idx], R->right[idx]);
            else
                insert(t, idx, R->right[idx], epoch);
            int rk = R->rank_desc[idx];
            if (rk < lo_rank) lo_rank = rk;
            if (rk > hi_rank) hi_rank = rk;
        }
    }
    /* A threshold only ever flows to a strictly later rank, so the sweep
       can start at the first seed and stop after the last assigned rank:
       the skipped ranks carry no threshold in the reference sweep either. */
    for (int rank = lo_rank; rank <= hi_rank; rank++) {
        int idx = R->order_desc[rank];
        if (!has(t, idx, epoch)) continue;
        double b = t->value[idx];
        double x_i = R->x[idx];
        for (int s = R->cell_row_start[idx]; s < R->cell_row_start[idx + 1]; s++) {
            int r = R->cell_rows[s], pos = R->cell_pos[s];
            if (pos == 0) continue;
            int limit = split_of(R, split, bd, r);
            if (limit >= 0 && pos >= limit) continue; /* right side never pushes left */
            int nb = R->row_cells[R->row_start[r] + pos - 1];
            double candidate = b - (x_i - R->right[nb]);
            if (!has(t, nb, epoch)) {
                insert(t, nb, candidate, epoch);
                if (R->rank_desc[nb] > hi_rank) hi_rank = R->rank_desc[nb];
            } else if (candidate > t->value[nb] + EPS) {
                t->value[nb] = candidate;
            }
        }
    }
}

/* SACS right-move phase. */
static void shift_right(const fop_region *R, const int *split, int bd, thresholds *t, int epoch)
{
    int lo_rank = R->n_cells, hi_rank = -1;
    t->count = 0;
    for (int j = 0; j < R->height; j++) {
        int r = bd + j, k = split[j];
        if (k < R->row_start[r + 1] - R->row_start[r]) {
            int idx = R->row_cells[R->row_start[r] + k];
            if (has(t, idx, epoch))
                t->value[idx] = py_min(t->value[idx], R->x[idx]);
            else
                insert(t, idx, R->x[idx], epoch);
            int rk = R->rank_asc[idx];
            if (rk < lo_rank) lo_rank = rk;
            if (rk > hi_rank) hi_rank = rk;
        }
    }
    for (int rank = lo_rank; rank <= hi_rank; rank++) {
        int idx = R->order_asc[rank];
        if (!has(t, idx, epoch)) continue;
        double v = t->value[idx];
        double right_i = R->right[idx];
        for (int s = R->cell_row_start[idx]; s < R->cell_row_start[idx + 1]; s++) {
            int r = R->cell_rows[s], pos = R->cell_pos[s];
            if (pos == R->row_start[r + 1] - R->row_start[r] - 1) continue;
            int limit = split_of(R, split, bd, r);
            if (limit >= 0 && pos < limit) continue;
            int nb = R->row_cells[R->row_start[r] + pos + 1];
            double candidate = v + (R->x[nb] - right_i);
            if (!has(t, nb, epoch)) {
                insert(t, nb, candidate, epoch);
                if (R->rank_asc[nb] > hi_rank) hi_rank = R->rank_asc[nb];
            } else if (candidate < t->value[nb] - EPS) {
                t->value[nb] = candidate;
            }
        }
    }
}

/* repro.mgl.shifting._finalize_outcome: feasibility and the x_t interval. */
static int finalize(const fop_region *R, const int *split, int bd, const thresholds *left,
                    const thresholds *right, int epoch, double *lo_out, double *hi_out)
{
    for (int i = 0; i < left->count; i++)
        if (has(right, left->order[i], epoch)) return 0;
    for (int j = 0; j < R->height; j++) {
        const int *cells = R->row_cells + R->row_start[bd + j];
        int row_len = R->row_start[bd + j + 1] - R->row_start[bd + j];
        for (int p = split[j]; p < row_len; p++)
            if (has(left, cells[p], epoch)) return 0;
        for (int p = 0; p < split[j]; p++)
            if (has(right, cells[p], epoch)) return 0;
    }
    double lo = R->row_seg_lo[bd];
    double hi = R->row_seg_hi[bd];
    for (int j = 1; j < R->height; j++) {
        lo = py_max(lo, R->row_seg_lo[bd + j]);
        hi = py_min(hi, R->row_seg_hi[bd + j]);
    }
    hi = hi - R->target_width;
    for (int i = 0; i < left->count; i++) {
        int idx = left->order[i];
        lo = py_max(lo, left->value[idx] - (R->x[idx] - R->seg_lo[idx]));
    }
    for (int i = 0; i < right->count; i++) {
        int idx = right->order[i];
        hi = py_min(hi, right->value[idx] + (R->seg_hi[idx] - R->right[idx]) - R->target_width);
    }
    *lo_out = lo;
    *hi_out = hi;
    return hi >= lo - EPS && ceil(lo - EPS) <= floor(hi + EPS);
}

typedef struct {
    int n;                 /* number of pieces */
    double constant;
    double *px, *pl, *pr;  /* pieces in construction order */
    int *sorted, *tmp;     /* stable sort permutation + merge buffer */
    double *mx, *ml, *mr;  /* merged breakpoints */
    double *sr, *sl, *val; /* slopesR, slopesL, values */
} curves;

static inline void piece(curves *c, double x, double ls, double rs)
{
    c->px[c->n] = x;
    c->pl[c->n] = ls;
    c->pr[c->n] = rs;
    c->n++;
}

/* repro.mgl.fop.build_curves */
static void build_curves(const fop_region *R, int bottom, const thresholds *left,
                         const thresholds *right, curves *c)
{
    c->n = 0;
    c->constant = fabs((double)bottom - R->target_gp_y) * R->vertical_cost_factor;
    piece(c, R->target_gp_x, -1.0, 1.0);
    for (int i = 0; i < left->count; i++) {
        int idx = left->order[i];
        double threshold = left->value[idx];
        double delta = R->x[idx] - R->gp_x[idx];
        if (delta >= 0) {
            piece(c, threshold - delta, -1.0, 1.0);
            piece(c, threshold, 0.0, -1.0);
            c->constant += -delta;
        } else {
            piece(c, threshold, -1.0, 0.0);
            c->constant += 0.0;
        }
    }
    for (int i = 0; i < right->count; i++) {
        int idx = right->order[i];
        double hinge = right->value[idx] - R->target_width;
        double delta = R->x[idx] - R->gp_x[idx];
        if (delta <= 0) {
            piece(c, hinge - delta, -1.0, 1.0);
            piece(c, hinge, 1.0, 0.0);
            c->constant += delta;
        } else {
            piece(c, hinge, 0.0, 1.0);
            c->constant += 0.0;
        }
    }
}

/* Stable bottom-up merge sort of piece indices by x (Python's sorted()). */
static void stable_sort(const double *key, int *a, int *tmp, int n)
{
    for (int width = 1; width < n; width *= 2) {
        for (int lo = 0; lo < n; lo += 2 * width) {
            int mid = lo + width < n ? lo + width : n;
            int hi = lo + 2 * width < n ? lo + 2 * width : n;
            int i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* take from the right run only when strictly smaller */
                if (key[a[j]] < key[a[i]]) tmp[k++] = a[j++];
                else tmp[k++] = a[i++];
            }
            while (i < mid) tmp[k++] = a[i++];
            while (j < hi) tmp[k++] = a[j++];
        }
        memcpy(a, tmp, (size_t)n * sizeof(int));
    }
}

/* repro.mgl.curves._value_at */
static double value_at(double q, const curves *c, int m)
{
    if (q <= c->mx[0]) return c->val[0] + c->sl[0] * (q - c->mx[0]);
    if (q >= c->mx[m - 1]) return c->val[m - 1] + c->sr[m - 1] * (q - c->mx[m - 1]);
    for (int i = 0; i < m - 1; i++) {
        if (c->mx[i] <= q && q <= c->mx[i + 1]) {
            double slope = c->sr[i] + c->sl[i + 1];
            return c->val[i] + slope * (q - c->mx[i]);
        }
    }
    return c->val[m - 1];
}

/* repro.mgl.curves._pick_best, one candidate at a time. */
static inline void pick(double x, double v, double pref, int *first, double *bx, double *bv)
{
    if (*first) {
        *first = 0;
        *bx = x;
        *bv = v;
    } else if (v < *bv - EPS) {
        *bx = x;
        *bv = v;
    } else if (fabs(v - *bv) <= EPS && fabs(x - pref) < fabs(*bx - pref)) {
        *bx = x;
        *bv = v;
    }
}

/* Sort, merge and minimize the summed curve over [lo, hi]
   (minimize_curves, or minimize_curves_fwd_bwd when R->fwd_bwd).
   Stores the continuous optimum in *best_x; returns the merged count. */
static int minimize(const fop_region *R, curves *c, double lo, double hi, double *best_x)
{
    int n = c->n, m = 0;
    hi = py_max(hi, lo);
    for (int i = 0; i < n; i++) c->sorted[i] = i;
    stable_sort(c->px, c->sorted, c->tmp, n);

    if (!R->fwd_bwd) {
        /* sort bp -> merge bp -> sum slopesR -> sum slopesL -> calculate value */
        for (int s = 0; s < n; s++) {
            int p = c->sorted[s];
            if (m > 0 && fabs(c->px[p] - c->mx[m - 1]) <= EPS) {
                c->ml[m - 1] = c->ml[m - 1] + c->pl[p];
                c->mr[m - 1] = c->mr[m - 1] + c->pr[p];
            } else {
                c->mx[m] = c->px[p];
                c->ml[m] = c->pl[p];
                c->mr[m] = c->pr[p];
                m++;
            }
        }
        double acc = 0.0;
        for (int i = 0; i < m; i++) {
            acc += c->mr[i];
            c->sr[i] = acc;
        }
        acc = 0.0;
        for (int i = m - 1; i >= 0; i--) {
            acc += c->ml[i];
            c->sl[i] = acc;
        }
        double v0 = 0.0;
        for (int j = 1; j < m; j++) v0 += c->ml[j] * (c->mx[0] - c->mx[j]);
        c->val[0] = v0;
        for (int i = 0; i < m - 1; i++) {
            double slope = c->sr[i] + c->sl[i + 1];
            c->val[i + 1] = c->val[i] + slope * (c->mx[i + 1] - c->mx[i]);
        }
    } else {
        /* fwdtraverse: fwdmerge + sum slopesR + calculate vR */
        double acc_r = 0.0;
        for (int s = 0; s < n; s++) {
            int p = c->sorted[s];
            if (m > 0 && fabs(c->px[p] - c->mx[m - 1]) <= EPS) {
                c->ml[m - 1] += c->pl[p];
                c->mr[m - 1] += c->pr[p];
                acc_r += c->pr[p];
                c->sr[m - 1] = acc_r;
            } else {
                c->mx[m] = c->px[p];
                c->ml[m] = c->pl[p];
                c->mr[m] = c->pr[p];
                acc_r += c->pr[p];
                c->sr[m] = acc_r;
                m++;
            }
        }
        double acc_w = 0.0;
        for (int i = 0; i < m; i++) {
            acc_w += c->mr[i] * c->mx[i];
            c->val[i] = c->sr[i] * c->mx[i] - acc_w; /* vR */
        }
        /* bwdtraverse: bwdmerge + sum slopesL + calculate vL and v */
        double acc_l = 0.0, acc_wl = 0.0;
        for (int i = m - 1; i >= 0; i--) {
            acc_l += c->ml[i];
            acc_wl += c->ml[i] * c->mx[i];
            c->sl[i] = acc_l;
            c->val[i] = c->val[i] + (acc_l * c->mx[i] - acc_wl);
        }
    }

    double pref = R->target_gp_x;
    int first = 1;
    double bx = 0.0, bv = 0.0;
    for (int i = 0; i < m; i++)
        if (lo - EPS <= c->mx[i] && c->mx[i] <= hi + EPS)
            pick(py_min(py_max(c->mx[i], lo), hi), c->val[i], pref, &first, &bx, &bv);
    pick(lo, value_at(lo, c, m), pref, &first, &bx, &bv);
    pick(hi, value_at(hi, c, m), pref, &first, &bx, &bv);
    if (lo <= pref && pref <= hi) pick(pref, value_at(pref, c, m), pref, &first, &bx, &bv);
    *best_x = bx;
    return m;
}

/* repro.mgl.curves.evaluate_piecewise: constant + sum(piece values) over the
   pieces in construction order, summed the way CPython's sum() does. */
static double evaluate(const curves *c, double q, int neumaier)
{
    double total = 0.0, comp = 0.0;
    for (int i = 0; i < c->n; i++) {
        double d = q - c->px[i];
        double v = (q < c->px[i]) ? c->pl[i] * d : c->pr[i] * d;
        if (!neumaier || i == 0) {
            total += v; /* the first item enters through int 0 + float */
        } else {
            double t = total + v;
            if (fabs(total) >= fabs(v)) comp += (total - t) + v;
            else comp += (v - t) + total;
            total = t;
        }
    }
    if (neumaier && comp != 0.0 && isfinite(comp)) total += comp;
    return c->constant + total;
}

/* Score one insertion point (bottom row `bottom`, dense bd, split indices
   `split`): repro.mgl.fop.evaluate_point_list's stages for that point.
   Writes the point's work counters to ints[k * cap] (k = column) and its
   site and cost to scores[0] / scores[cap] (nan and inf when it does not
   score); returns 1 when it scored. */
static int score_point(const fop_region *R, int bottom, int bd, const int *split, int epoch,
                       thresholds *left, thresholds *right, curves *c, int neumaier,
                       int *ints, double *scores, int cap)
{
    shift_left(R, split, bd, left, epoch);
    shift_right(R, split, bd, right, epoch);
    ints[cap] = left->count;
    ints[2 * cap] = right->count;
    ints[3 * cap] = 0;
    ints[4 * cap] = 0;
    scores[0] = NAN;
    scores[cap] = INFINITY;

    double xt_lo, xt_hi;
    if (!finalize(R, split, bd, left, right, epoch, &xt_lo, &xt_hi)) return 0;
    build_curves(R, bottom, left, right, c);
    double best_x;
    ints[4 * cap] = minimize(R, c, xt_lo, xt_hi, &best_x);
    ints[3 * cap] = c->n;

    /* repro.mgl.fop._site_candidates + _pick_site (sites are Python ints
       there; "+ 0.0" maps a floored -0.0 to the 0.0 of float(0)) */
    double site_lo = ceil(xt_lo - EPS);
    double site_hi = floor(xt_hi + EPS);
    if (site_lo > site_hi) return 0;
    double a = py_min(py_max(floor(best_x), site_lo), site_hi) + 0.0;
    double b = py_min(py_max(ceil(best_x), site_lo), site_hi) + 0.0;
    double sites[2] = {a < b ? a : b, a < b ? b : a};
    int n_sites = a == b ? 1 : 2;
    double bv = INFINITY;
    int scored = 0;
    for (int s = 0; s < n_sites; s++) {
        double v = evaluate(c, sites[s], neumaier);
        if (v < bv - EPS) {
            scored = 1;
            scores[0] = sites[s];
            scores[cap] = bv = v;
        }
    }
    return scored;
}

typedef struct {
    double key;
    int idx;
} keyed;

/* Python's sort key (key, idx); the indices make it total. */
static int by_key(const void *pa, const void *pb)
{
    const keyed *a = pa, *b = pb;
    if (a->key < b->key) return -1;
    if (a->key > b->key) return 1;
    return (a->idx > b->idx) - (a->idx < b->idx);
}

/* Fill the derived arrays of R (and the per-row width prefixes; `keys` is
   n_cells scratch entries); returns BAD_REGION when the arrays do not
   describe a consistent region. */
static int derive_region(const fop_search *S, fop_region *R, double *prefix, keyed *keys)
{
    int n = R->n_cells, n_sub = R->cell_row_start[n];
    for (int i = 0; i < n; i++) {
        R->right[i] = R->x[i] + S->width[i];
        keys[i].key = R->x[i];
        keys[i].idx = i;
    }
    /* The SACS pre-sort (the Ahead Sorter): processing ranks by (x, index). */
    qsort(keys, (size_t)n, sizeof(keyed), by_key);
    for (int rank = 0; rank < n; rank++) {
        int idx = keys[rank].idx;
        R->order_asc[rank] = idx;
        R->rank_asc[idx] = rank;
        R->order_desc[n - 1 - rank] = idx;
        R->rank_desc[idx] = n - 1 - rank;
    }
    for (int s = 0; s < n_sub; s++) {
        R->cell_rows[s] = S->cell_rows[s] - S->row_base;
        if (R->cell_rows[s] < 0 || R->cell_rows[s] >= R->n_rows) return BAD_REGION;
        R->cell_pos[s] = -1;
    }
    /* cell_pos: where each subcell sits in its row; every subcell must be
       listed in exactly its row, and every row entry must be a subcell. */
    for (int r = 0; r < R->n_rows; r++) {
        double *pf = prefix + R->row_start[r] + r;
        pf[0] = 0.0;
        for (int p = 0; p < R->row_start[r + 1] - R->row_start[r]; p++) {
            int idx = R->row_cells[R->row_start[r] + p], s;
            if (idx < 0 || idx >= n) return BAD_REGION;
            for (s = R->cell_row_start[idx]; s < R->cell_row_start[idx + 1]; s++)
                if (R->cell_rows[s] == r && R->cell_pos[s] < 0) break;
            if (s == R->cell_row_start[idx + 1]) return BAD_REGION;
            R->cell_pos[s] = p;
            pf[p + 1] = pf[p] + S->width[idx]; /* _row_prefix_widths */
        }
    }
    if (R->row_start[R->n_rows] != n_sub) return BAD_REGION;
    /* Tightest segment bounds over the cell's rows, folded as
       repro.mgl.shifting._segment_bounds_for_cell folds them. */
    for (int i = 0; i < n; i++) {
        int s = R->cell_row_start[i], end = R->cell_row_start[i + 1];
        double lo = 0.0, hi = 0.0;
        if (s < end) {
            lo = R->row_seg_lo[R->cell_rows[s]];
            hi = R->row_seg_hi[R->cell_rows[s]];
        }
        for (s++; s < end; s++) {
            lo = py_max(lo, R->row_seg_lo[R->cell_rows[s]]);
            hi = py_min(hi, R->row_seg_hi[R->cell_rows[s]]);
        }
        R->seg_lo[i] = lo;
        R->seg_hi[i] = hi;
    }
    for (int b = 0; b < S->n_bottoms; b++) {
        int bd = S->bottoms[b] - S->row_base;
        if (bd < 0 || bd + R->height > R->n_rows) return BAD_REGION;
    }
    return OK;
}

/* repro.mgl.insertion._combination_feasible: can every spanned row host its
   left cells, the target and its right cells when fully packed? */
static int fits(const fop_region *R, const double *prefix, int bd, const int *split)
{
    for (int j = 0; j < R->height; j++) {
        int r = bd + j;
        const double *pf = prefix + R->row_start[r] + r;
        double left = pf[split[j]];
        double right = pf[R->row_start[r + 1] - R->row_start[r]] - left;
        double length = py_max(0.0, R->row_seg_hi[r] - R->row_seg_lo[r]);
        if (left + R->target_width + right > length + 1e-9) return 0;
    }
    return 1;
}

/* The winner's shift outcome: shift its split once more (the scoring
   loop keeps no per-point thresholds) and copy the threshold lists out in
   first-assignment order. */
static void emit_winner(fop_search *S, const fop_region *R, thresholds *left,
                        thresholds *right, int epoch)
{
    int bd = S->winner_bottom - S->row_base;
    shift_left(R, S->winner_split, bd, left, epoch);
    shift_right(R, S->winner_split, bd, right, epoch);
    finalize(R, S->winner_split, bd, left, right, epoch, &S->winner_xt_lo, &S->winner_xt_hi);
    S->winner_n_left = left->count;
    S->winner_n_right = right->count;
    for (int i = 0; i < left->count; i++) {
        S->winner_cells[i] = left->order[i];
        S->winner_values[i] = left->value[left->order[i]];
    }
    for (int i = 0; i < right->count; i++) {
        S->winner_cells[R->n_cells + i] = right->order[i];
        S->winner_values[R->n_cells + i] = right->value[right->order[i]];
    }
}

/* The whole search: enumerate every candidate bottom row's insertion points
   in sweep order, score each, keep the winner as repro.mgl.fop.reduce_points
   does, and emit the winner's shift outcome.  Returns OK, NO_MEMORY or
   BAD_REGION. */
int fop_search_region(fop_search *S)
{
    fop_region R = {S->n_cells, S->x, S->gp_x, S->cell_row_start,
                    S->n_rows, S->row_start, S->row_cells, S->row_seg_lo, S->row_seg_hi,
                    S->target_gp_x, S->target_gp_y, S->target_width, S->vertical_cost_factor,
                    S->height, S->fwd_bwd,
                    NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL};
    S->n_points = S->n_feasible = 0;
    S->winner = -1;
    S->winner_n_left = S->winner_n_right = 0;
    S->winner_xt_lo = S->winner_xt_hi = NAN;
    if (S->n_cells < 0 || S->n_rows < 0 || S->height < 1 || S->cell_row_start[0] != 0
        || S->row_start[0] != 0)
        return BAD_REGION;
    size_t nc = (size_t)(S->n_cells > 0 ? S->n_cells : 1);
    size_t n_sub = (size_t)S->cell_row_start[S->n_cells];
    size_t n_prefix = (size_t)S->row_start[S->n_rows] + (size_t)S->n_rows;
    size_t cap = 1 + 2 * nc; /* pieces of a feasible point: target + 2 per cell */
    int *ints = calloc(8 * nc + 2 * cap + 2 * n_sub + (size_t)S->height, sizeof(int));
    double *dbls = malloc((5 * nc + 9 * cap + n_prefix) * sizeof(double));
    keyed *keys = malloc(nc * sizeof(keyed));
    if (ints == NULL || dbls == NULL || keys == NULL) {
        free(ints);
        free(dbls);
        free(keys);
        return NO_MEMORY;
    }
    thresholds left = {ints, dbls, ints + nc, 0};
    thresholds right = {ints + 2 * nc, dbls + nc, ints + 3 * nc, 0};
    double *d = dbls + 2 * nc;
    curves c = {0, 0.0,
                d, d + cap, d + 2 * cap,
                ints + 4 * nc, ints + 4 * nc + cap,
                d + 3 * cap, d + 4 * cap, d + 5 * cap,
                d + 6 * cap, d + 7 * cap, d + 8 * cap};
    int *derived = ints + 4 * nc + 2 * cap;
    R.order_asc = derived;
    R.order_desc = derived + nc;
    R.rank_desc = derived + 2 * nc;
    R.rank_asc = derived + 3 * nc;
    R.cell_pos = derived + 4 * nc;
    R.cell_rows = R.cell_pos + n_sub;
    int *split = R.cell_rows + n_sub;
    R.right = dbls + 2 * nc + 9 * cap;
    R.seg_lo = R.right + nc;
    R.seg_hi = R.seg_lo + nc;
    double *prefix = R.seg_hi + nc;

    int rc = derive_region(S, &R, prefix, keys);
    /* The sweep order: Python's sort key (x + width / 2.0, idx). */
    for (int i = 0; rc == OK && i < S->n_cells; i++) {
        keys[i].key = S->x[i] + S->width[i] / 2.0;
        keys[i].idx = i;
    }
    if (rc == OK) qsort(keys, (size_t)S->n_cells, sizeof(keyed), by_key);

    int cap_pts = S->capacity;
    double best_cost = INFINITY, best_x = 0.0;
    for (int b = 0; rc == OK && b < S->n_bottoms; b++) {
        int bottom = S->bottoms[b], bd = bottom - S->row_base;
        memset(split, 0, (size_t)R.height * sizeof(int));
        /* The sweep: the all-right combination, then one combination per
           cell overlapping the spanned rows, in x-centre order, each
           moving that cell to the target's left in every row it covers. */
        for (int e = -1; e < S->n_cells; e++) {
            if (e >= 0) {
                int idx = keys[e].idx, touched = 0;
                for (int s = R.cell_row_start[idx]; s < R.cell_row_start[idx + 1]; s++) {
                    int j = R.cell_rows[s] - bd;
                    if (j >= 0 && j < R.height) {
                        split[j]++;
                        touched = 1;
                    }
                }
                if (!touched) continue;
            }
            if (!fits(&R, prefix, bd, split)) continue;
            int p = S->n_points;
            if (p >= cap_pts) {
                rc = BAD_REGION;
                break;
            }
            S->n_points++;
            int *out = S->point_ints + p;
            double *score = S->point_scores + p;
            out[0] = score_point(&R, bottom, bd, split, p + 1, &left, &right, &c,
                                 S->neumaier_sum, out, score, cap_pts);
            if (!out[0]) continue;
            /* reduce_points: a strictly lower cost wins; an equal cost
               wins when its site is strictly closer to the target's x. */
            S->n_feasible++;
            double x = score[0], cost = score[cap_pts];
            int better = cost < best_cost - EPS;
            int tie = fabs(cost - best_cost) <= EPS && S->winner >= 0
                      && fabs(x - R.target_gp_x) < fabs(best_x - R.target_gp_x);
            if (better || tie) {
                best_cost = cost;
                best_x = x;
                S->winner = p;
                S->winner_bottom = bottom;
                memcpy(S->winner_split, split, (size_t)R.height * sizeof(int));
            }
        }
    }
    if (rc == OK && S->winner >= 0) emit_winner(S, &R, &left, &right, S->n_points + 1);
    free(ints);
    free(dbls);
    free(keys);
    return rc;
}
