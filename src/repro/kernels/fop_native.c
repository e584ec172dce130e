/*
 * Fused native FOP kernel: scores every insertion point of one localRegion
 * (SACS shifting, displacement-curve construction, curve minimization and
 * site snapping) in a single call.
 *
 * The kernel is a transcription of the pure-Python reference
 * (repro.core.sacs.shift_cells_sacs, repro.mgl.fop.build_curves,
 * repro.mgl.curves.minimize_curves / minimize_curves_fwd_bwd and the FOP
 * snapping step) and must agree with it bit for bit.  Every floating-point
 * operation below is the same IEEE-754 double operation, on the same
 * operands, in the same order as in the reference:
 *
 *   - threshold dictionaries are replayed with explicit first-insertion
 *     order lists, because curve construction (and therefore the constant
 *     fold and the snapping sums) iterates them in insertion order;
 *   - Python's max(a, b) / min(a, b) keep the first argument on ties, which
 *     py_max / py_min reproduce (this only matters for signed zeros);
 *   - the breakpoint sort is stable, like Python's sorted();
 *   - sums are the reference's left folds from 0.0; the snapping sum follows
 *     CPython's float sum(), which is compensated (Neumaier) from 3.12 on,
 *     selected by fop_region.neumaier_sum.
 *
 * Build with -O2 -ffp-contract=off and without -ffast-math: contraction into
 * fused multiply-adds or reassociation would change results.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#define EPS 1e-9

/* Point status codes written to fop_region.status. */
#define ST_INFEASIBLE 0 /* the shift outcome is infeasible */
#define ST_NO_SITE 1    /* feasible shift, but no site fits the interval */
#define ST_OK 2         /* scored: best_x / cost are valid */

typedef struct {
    /* localCells */
    int n_cells;
    const double *x;       /* snapshot x */
    const double *right;   /* snapshot right edge (x + width) */
    const double *gp_x;    /* global-placement x */
    const double *seg_lo;  /* tightest segment lower bound over the cell's rows */
    const double *seg_hi;  /* tightest segment upper bound over the cell's rows */
    const int *order_desc; /* left-move processing order (rank -> cell) */
    const int *order_asc;  /* right-move processing order (rank -> cell) */
    const int *rank_desc;  /* cell -> rank in order_desc */
    const int *rank_asc;   /* cell -> rank in order_asc */
    const int *cell_row_start; /* n_cells + 1 offsets into cell_rows / cell_pos */
    const int *cell_rows;  /* dense row of each subcell, in cell.rows order */
    const int *cell_pos;   /* position of that subcell in its row */
    /* rows (dense index = row - lowest region row) */
    int n_rows;
    const int *row_start;  /* n_rows + 1 offsets into row_cells */
    const int *row_cells;  /* per-row x-sorted local indices */
    const double *row_seg_lo;
    const double *row_seg_hi;
    /* target and configuration */
    double target_gp_x;
    double target_gp_y;
    double target_width;
    double vertical_cost_factor;
    int height;
    int fwd_bwd;
    int neumaier_sum;
    /* insertion points */
    int n_points;
    const int *bottom;       /* absolute bottom row of each point */
    const int *bottom_dense; /* dense index of that row */
    const int *split;        /* n_points * height split indices, bottom row first */
    /* outputs, one entry per point */
    int *status;
    double *best_x;
    double *cost;
    int *n_left;
    int *n_right;
    int *n_breakpoints;
    int *n_merged;
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

/* Score every insertion point of the region.  Returns 0, or -1 when the
   scratch memory cannot be allocated. */
int fop_score_region(fop_region *R)
{
    size_t nc = (size_t)(R->n_cells > 0 ? R->n_cells : 1);
    size_t cap = 1 + 2 * nc; /* pieces of a feasible point: target + 2 per cell */
    int *ints = calloc(4 * nc + 2 * cap, sizeof(int));
    double *dbls = malloc((2 * nc + 9 * cap) * sizeof(double));
    if (ints == NULL || dbls == NULL) {
        free(ints);
        free(dbls);
        return -1;
    }
    thresholds left = {ints, dbls, ints + nc, 0};
    thresholds right = {ints + 2 * nc, dbls + nc, ints + 3 * nc, 0};
    double *d = dbls + 2 * nc;
    curves c = {0, 0.0,
                d, d + cap, d + 2 * cap,
                ints + 4 * nc, ints + 4 * nc + cap,
                d + 3 * cap, d + 4 * cap, d + 5 * cap,
                d + 6 * cap, d + 7 * cap, d + 8 * cap};

    for (int p = 0; p < R->n_points; p++) {
        int epoch = p + 1;
        const int *split = R->split + (size_t)p * R->height;
        int bd = R->bottom_dense[p];
        shift_left(R, split, bd, &left, epoch);
        shift_right(R, split, bd, &right, epoch);
        R->n_left[p] = left.count;
        R->n_right[p] = right.count;
        R->n_breakpoints[p] = 0;
        R->n_merged[p] = 0;
        R->best_x[p] = 0.0;
        R->cost[p] = INFINITY;

        double xt_lo, xt_hi;
        if (!finalize(R, split, bd, &left, &right, epoch, &xt_lo, &xt_hi)) {
            R->status[p] = ST_INFEASIBLE;
            continue;
        }
        build_curves(R, R->bottom[p], &left, &right, &c);
        double best_x;
        R->n_merged[p] = minimize(R, &c, xt_lo, xt_hi, &best_x);
        R->n_breakpoints[p] = c.n;

        /* repro.mgl.fop._site_candidates + _pick_site (sites are Python
           ints there; "+ 0.0" maps a floored -0.0 to the 0.0 of float(0)) */
        double site_lo = ceil(xt_lo - EPS);
        double site_hi = floor(xt_hi + EPS);
        R->status[p] = ST_NO_SITE;
        if (site_lo > site_hi) continue;
        double a = py_min(py_max(floor(best_x), site_lo), site_hi) + 0.0;
        double b = py_min(py_max(ceil(best_x), site_lo), site_hi) + 0.0;
        double sites[2] = {a < b ? a : b, a < b ? b : a};
        int n_sites = a == b ? 1 : 2;
        double bv = INFINITY;
        for (int s = 0; s < n_sites; s++) {
            double v = evaluate(&c, sites[s], R->neumaier_sum);
            if (v < bv - EPS) {
                R->status[p] = ST_OK;
                R->best_x[p] = sites[s];
                R->cost[p] = bv = v;
            }
        }
    }
    free(ints);
    free(dbls);
    return 0;
}
