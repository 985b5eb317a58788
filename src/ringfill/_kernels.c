/* The compiled kernels of ringfill.
 *
 *   filling_rows             the rows of every annulus of a ledger and of its cone
 *   top_id, canonical_rows   the id range of an int32 array, and the canonical rotation
 *   edge_slots, edge_ends    the edge table of a triangle array
 *   disk_marks               validate_disk's witness marks, from the edge table
 *   graph_csr                the 1-skeleton's CSR
 *   bfs_tree                 a plain BFS and its tree: the witness path, vertex 0's tree
 *   boundary_tree,
 *   boundary_rows            the boundary distance matrix, each search confined
 *   judge_pairs              the first least ratio of BFS to cycle distance, and the first pair
 *                            whose lower bound exceeds its BFS distance, from one pass
 *   grow_state_size,
 *   grow_fillings            the oracle's resumable backtracking enumeration
 *   disk_verdicts            validate_disk's verdict on each complex of a stack, from adjacency bitsets
 *   strip_annuli             every annulus of a ledger checked as a cyclic strip and its cone as a fan,
 *                            each with its largest rung drift or the defect that stops it
 *   isometric_rows           the oracle's isometry test on a stack of complexes
 *   rows_text                build-file rows written as JSON text
 *   parse_rows               build-file rows read back from JSON bytes, whole rows at a time
 *
 * ringfill._kernels compiles this file on first use and calls its functions
 * through ctypes, which releases the GIL for each call, so threads run in
 * parallel.  Nothing here keeps state between calls or allocates: every
 * array and every scratch array is passed in by the caller, as a bytearray
 * cast by memoryview or a numpy array.  The caller checks every array, by
 * the one rule of ringfill._kernels.takes: C-contiguous, int32 unless stated,
 * of the shape given and writable where written; and every index within the
 * sizes given.  disk_verdicts and strip_annuli alone take vertex ids of any
 * value, disk_marks any non-negative ones, and parse_rows bytes of any
 * content, cut off anywhere, since rejecting them is their job.
 *
 * Triangles are rows of three int32 ids, each row rotated so its smallest id
 * comes first.  Slot s = 3f + j of a triangle array is the edge from corner
 * j of triangle f to corner j + 1.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The slot after s in its triangle: s's corner j + 1. */
static inline size_t next_slot(size_t s)
{
    return s % 3 == 2 ? s - 2 : s + 1;
}

static inline int32_t slot_lo(const int32_t *tri, size_t s)
{
    int32_t a = tri[s], b = tri[next_slot(s)];
    return a < b ? a : b;
}

static inline int32_t slot_hi(const int32_t *tri, size_t s)
{
    int32_t a = tri[s], b = tri[next_slot(s)];
    return a < b ? b : a;
}

/* filling_rows: the rows of every annulus of a ledger, in order, into out.
 * cycles holds count rows (first id, length, shrink flag), cycle r of
 * cycles[3 r + 1] >= 1 vertices from id cycles[3 r], and annulus r joins
 * cycle r, U of m vertices, to cycle r + 1, W of M, in the order of
 * annuli.annulus_triangles.  An equal-length annulus (shrink 0) gives
 * (U_i, U_i+1, W_i) and (U_i+1, W_i, W_i+1) for each i, 2m rows.  A shrink
 * runs the staircase k(i) = floor(M i / m): outer edge i gives (U_i, U_i+1,
 * W_k(i+1)), followed by (U_i, W_k(i), W_k(i+1)) where k(i+1) > k(i),
 * m + min(M, m) rows in all.  A cycle of M = 1 vertex is an apex, and the
 * annulus onto it the cone's fan (apex, U_i, U_i+1), m rows, whatever its
 * shrink flag.  Indices are taken mod the cycle length, and the caller
 * checks that every id fits int32 and sizes out. */
void filling_rows(const int32_t *cycles, int32_t count, int32_t *out)
{
    for (const int32_t *u = cycles, *w = cycles + 3; w < cycles + 3 * (size_t)count; u = w, w += 3) {
        int32_t m = u[1], M = w[1];
        for (int32_t i = 0; i < m; i++) {
            int32_t u0 = u[0] + i, u1 = u[0] + (i + 1) % m;
            if (M == 1) {
                out[0] = w[0], out[1] = u0, out[2] = u1;
                out += 3;
            } else if (!u[2]) {
                int32_t v0 = w[0] + i % M, v1 = w[0] + (i + 1) % M;
                out[0] = u0, out[1] = u1, out[2] = v0;
                out[3] = u1, out[4] = v0, out[5] = v1;
                out += 6;
            } else {
                int64_t k0 = (int64_t)M * i / m, k1 = (int64_t)M * (i + 1) / m;
                int32_t w0 = w[0] + (int32_t)(k0 % M), w1 = w[0] + (int32_t)(k1 % M);
                out[0] = u0, out[1] = u1, out[2] = w1;
                out += 3;
                if (k1 > k0) {
                    out[0] = u0, out[1] = w0, out[2] = w1;
                    out += 3;
                }
            }
        }
    }
}

/* The largest of the size ids, 0 if there are none, or -1 if one is negative. */
int32_t top_id(const int32_t *ids, int64_t size)
{
    int32_t top = 0;
    for (int64_t i = 0; i < size; i++) {
        if (ids[i] < 0)
            return -1;
        if (ids[i] > top)
            top = ids[i];
    }
    return top;
}

/* Rotates each of the rows of three ids in tri so that its first smallest
 * id comes first, as numpy's argmin picks it, and returns top_id of the
 * rows.  It stops at the first row with a negative id and returns -1, the
 * rows before that one rotated: a rotation keeps the oriented triangle. */
int32_t canonical_rows(int32_t *tri, int64_t rows)
{
    int32_t top = 0;
    for (int64_t f = 0; f < rows; f++) {
        int32_t *t = tri + 3 * f, a = t[0], b = t[1], c = t[2];
        if (a < 0 || b < 0 || c < 0)
            return -1;
        if (b < a && b <= c) {
            t[0] = b, t[1] = c, t[2] = a;
        } else if (c < a && c < b) {
            t[0] = c, t[1] = a, t[2] = b;
        }
        int32_t hi = a > b ? a : b;
        hi = hi > c ? hi : c;
        if (hi > top)
            top = hi;
    }
    return top;
}

/* Edge ids of the size slots of tri, ranked by (lo, hi): slot_edge[s] gets
 * the rank of slot s's edge among the distinct edges.  Returns their number.
 *
 * An LSD radix sort orders the slots, stably, by hi and then by lo, in
 * digits of width bits: count has 1 << width entries and perm has size.
 * The caller picks a width whose count array is no longer than the slots,
 * so a larger id costs a few more passes, never an id-sized array.  The
 * first pass reads the slots in order, so the passes alternate between perm
 * and slot_edge, starting where the last one lands in perm. */
int32_t edge_slots(const int32_t *tri, int32_t size, int32_t width, int32_t *count, int32_t *perm,
                   int32_t *slot_edge)
{
    int32_t top = 0;
    for (int32_t s = 0; s < size; s++)
        if (tri[s] > top)
            top = tri[s];
    int bits = 1;
    while (bits < 31 && (top >> bits))
        bits++;
    int digits = (bits + width - 1) / width;
    uint32_t mask = (1u << width) - 1;
    int passes = 2 * digits;
    int32_t *from = NULL, *to = passes % 2 ? perm : slot_edge;
    for (int p = 0; p < passes; p++) {
        int by_hi = p < digits, shift = (p % digits) * width;
        for (uint32_t d = 0; d <= mask; d++)
            count[d] = 0;
        for (int32_t i = 0; i < size; i++) {
            size_t s = from ? (size_t)from[i] : (size_t)i;
            count[((uint32_t)(by_hi ? slot_hi(tri, s) : slot_lo(tri, s)) >> shift) & mask]++;
        }
        int32_t sum = 0;
        for (uint32_t d = 0; d <= mask; d++) {
            int32_t c = count[d];
            count[d] = sum;
            sum += c;
        }
        for (int32_t i = 0; i < size; i++) {
            int32_t s = from ? from[i] : i;
            uint32_t d = ((uint32_t)(by_hi ? slot_hi(tri, s) : slot_lo(tri, s)) >> shift) & mask;
            to[count[d]++] = s;
        }
        from = to;
        to = to == perm ? slot_edge : perm;
    }
    int32_t id = -1, lo = -1, hi = -1;
    for (int32_t i = 0; i < size; i++) {
        int32_t s = perm[i], a = slot_lo(tri, s), b = slot_hi(tri, s);
        if (a != lo || b != hi) {
            id++;
            lo = a;
            hi = b;
        }
        slot_edge[s] = id;
    }
    return id + 1;
}

/* The (E, 2) edges (lo, hi) of edge_slots's edge ids, unless edges is NULL,
 * and their incidence, unless incidence is NULL; incidence starts at zero. */
void edge_ends(const int32_t *tri, int32_t size, const int32_t *slot_edge, int32_t *edges,
               int32_t *incidence)
{
    for (int32_t s = 0; s < size; s++) {
        int32_t e = slot_edge[s];
        if (edges) {
            edges[2 * (size_t)e] = slot_lo(tri, s);
            edges[2 * (size_t)e + 1] = slot_hi(tri, s);
        }
        if (incidence)
            incidence[e]++;
    }
}

/* Union-find over label, -1 for a node no join has touched.  The larger
 * root is hooked under the smaller, so a root is the smallest node of its
 * tree, and every node's parent is at most the node itself. */
static int32_t find(int32_t *label, int32_t v)
{
    while (label[v] != v) {
        label[v] = label[label[v]];
        v = label[v];
    }
    return v;
}

static void join(int32_t *label, int32_t a, int32_t b)
{
    if (label[a] < 0)
        label[a] = a;
    if (label[b] < 0)
        label[b] = b;
    a = find(label, a);
    b = find(label, b);
    if (a < b)
        label[b] = a;
    else if (b < a)
        label[a] = b;
}

/* Points every touched node at the smallest node of its component: parents
 * come first, so one ascending pass does it.  Untouched nodes stay -1. */
static void finish(int32_t *label, int32_t nodes)
{
    for (int32_t v = 0; v < nodes; v++)
        if (label[v] >= 0)
            label[v] = label[label[v]];
}

static void clear(int32_t *label, int32_t nodes)
{
    for (int32_t v = 0; v < nodes; v++)
        label[v] = -1;
}

/* Corner j of triangle t, whose slots have the edge ids e, joins the edges
 * directed away from it along slot j and along slot j - 1: node 2e + d of
 * the corner graph is edge e directed away from its end d (see disk_marks). */
static void link_join(int32_t *label, const int32_t *t, const int32_t *e)
{
    for (int j = 0; j < 3; j++) {
        int k = (j + 1) % 3, p = (j + 2) % 3;
        join(label, 2 * e[j] + (t[j] > t[k]), (2 * e[p] + (t[p] > t[j])) ^ 1);
    }
}

/* Triangle t joins its three corners, in the union-find over the vertices. */
static void corner_join(int32_t *label, const int32_t *t)
{
    join(label, t[0], t[1]);
    join(label, t[1], t[2]);
}

/* The kinds of an edge for a disk bounded by the cycle 0..n-1: an interior
 * edge (in 2 triangles), a cycle edge or any other edge in 1 triangle, or
 * an edge in more than 2. */
enum { EDGE_INTERIOR, EDGE_CYCLE, EDGE_STRAY, EDGE_OVERFULL };

/* The kind of edge (lo, hi), lo < hi, of incidence k >= 1; for a cycle
 * edge (i, i + 1 mod n), *at gets i. */
static int edge_kind(int32_t lo, int32_t hi, int32_t k, int32_t n, int32_t *at)
{
    if (k > 2)
        return EDGE_OVERFULL;
    if (k == 2)
        return EDGE_INTERIOR;
    if (hi < n && hi == lo + 1) {
        *at = lo;
        return EDGE_CYCLE;
    }
    if (hi < n && lo == 0 && hi == n - 1) {
        *at = n - 1;
        return EDGE_CYCLE;
    }
    return EDGE_STRAY;
}

/* The two smallest of the three edge ids e of a triangle, lo < hi. */
static void two_smallest(const int32_t *e, int32_t *lo, int32_t *hi)
{
    int32_t a = e[0], b = e[1], c = e[2];
    *lo = a < b ? a : b;
    *hi = a < b ? b : a;
    if (c < *lo) {
        *hi = *lo;
        *lo = c;
    } else if (c < *hi) {
        *hi = c;
    }
}

/* The marks disk_marks gives triangles and vertices.  A good triangle is
 * TRI_OK or TRI_REPEATED. */
enum { TRI_OK, TRI_DEGENERATE, TRI_STRAY, TRI_REPEATED };
enum { VERTEX_OK, VERTEX_UNCOVERED, VERTEX_MULTI_PATH, VERTEX_MULTI_CYCLE, VERTEX_SPLIT_PATH, VERTEX_SPLIT_CYCLE };
#define LINKS 3     /* vertex_mark bits while counting: its link's components, up to 2, */
#define ON_EDGE 4   /* whether it lies on an incidence-1 edge, */
#define MULTI 8     /* and whether it lies in two good triangles on one vertex set */

static inline int good(uint8_t mark)
{
    return mark == TRI_OK || mark == TRI_REPEATED;
}

/* validate_disk's witnesses for the nf canonical triangles tri with the
 * edge table from edge_slots and edge_ends (the slot edge ids and the ne
 * edges), on nv vertices and the boundary cycle 0..n-1, with 0 <= n <= nv:
 * one mark per triangle, edge, vertex and cycle edge.  Returns the number
 * of connected components of the good triangles' vertices.
 *
 *   tri_mark[f]     TRI_DEGENERATE, TRI_STRAY (a good-looking row with an id
 *                   outside 0..nv-1), TRI_REPEATED (a good triangle whose row
 *                   an earlier good one has), or TRI_OK
 *   edge_mark[e]    edge_kind of edge e
 *   cycle_mark[i]   1 iff cycle edge (i, i + 1 mod n) lies in one triangle
 *   vertex_mark[v]  VERTEX_UNCOVERED (in no good triangle), VERTEX_MULTI_*
 *                   (in two good triangles on one vertex set: a multigraph
 *                   link), VERTEX_SPLIT_* (else a disconnected link), each
 *                   _PATH for a vertex on an incidence-1 edge, or VERTEX_OK
 *
 * Only good triangles enter the repeat, link and connectivity checks.  Two
 * triangles on one vertex set share their two smallest edge ids lo < hi.
 * The good triangles are counting-sorted by lo, stably, so each run of
 * equal lo keeps its rows in order, and within a run seen[hi] holds 4 times
 * the run's start plus a bit for each orientation seen on that vertex set
 * (an entry below 4 times the start is left from an earlier run).  scratch
 * holds max(2 ne, ne + 1 + nf, nv) entries: each edge's incidence, counted
 * from slot and read once by the edge marks, then the corner-graph labels,
 * then the sort's counts (then seen) and order, then the vertex labels.
 * Vertex ids are compared with nv before they index anything; the edge ids
 * of slot lie in 0..ne-1, and 4 nf + 3 fits int32. */
int32_t disk_marks(int32_t n, int32_t nv, const int32_t *tri, int32_t nf, const int32_t *slot,
                   const int32_t *edges, int32_t ne, int32_t *scratch, uint8_t *tri_mark, uint8_t *edge_mark,
                   uint8_t *vertex_mark, uint8_t *cycle_mark)
{
    int32_t *incidence = scratch;
    memset(incidence, 0, sizeof(int32_t) * (size_t)ne);
    for (size_t s = 0; s < 3 * (size_t)nf; s++)
        incidence[slot[s]]++;
    memset(cycle_mark, 0, (size_t)n);
    memset(vertex_mark, 0, (size_t)nv);
    for (int32_t e = 0, at = 0; e < ne; e++) {
        edge_mark[e] = (uint8_t)edge_kind(edges[2 * e], edges[2 * e + 1], incidence[e], n, &at);
        if (edge_mark[e] == EDGE_CYCLE)
            cycle_mark[at] = 1;
        for (int d = 0; d < 2 && incidence[e] == 1; d++)
            if (edges[2 * e + d] < nv)
                vertex_mark[edges[2 * e + d]] |= ON_EDGE;
    }
    for (size_t f = 0; f < (size_t)nf; f++) {
        int32_t a = tri[3 * f], b = tri[3 * f + 1], c = tri[3 * f + 2];
        if (a == b || b == c || a == c)
            tri_mark[f] = TRI_DEGENERATE;
        else if (a < 0 || b < 0 || c < 0 || a >= nv || b >= nv || c >= nv)
            tri_mark[f] = TRI_STRAY;
        else
            tri_mark[f] = TRI_OK;
    }

    int32_t *label = scratch, nodes = 2 * ne;
    clear(label, nodes);
    for (size_t f = 0; f < (size_t)nf; f++)
        if (good(tri_mark[f]))
            link_join(label, tri + 3 * f, slot + 3 * f);
    finish(label, nodes);
    for (int32_t v = 0; v < nodes; v++)
        if (label[v] == v && edges[v] < nv && (vertex_mark[edges[v]] & LINKS) < 2)
            vertex_mark[edges[v]]++;

    int32_t *count = scratch, *order = count + ne + 1, kept = 0, lo, hi;
    memset(count, 0, sizeof(int32_t) * ((size_t)ne + 1));
    for (int32_t f = 0; f < nf; f++)
        if (good(tri_mark[f])) {
            two_smallest(slot + 3 * (size_t)f, &lo, &hi);
            count[lo + 1]++;
            kept++;
        }
    for (int32_t e = 0; e < ne; e++)
        count[e + 1] += count[e];
    for (int32_t f = 0; f < nf; f++)
        if (good(tri_mark[f])) {
            two_smallest(slot + 3 * (size_t)f, &lo, &hi);
            order[count[lo]++] = f;
        }
    int32_t *seen = count;
    for (int32_t e = 0; e < ne; e++)
        seen[e] = -1;
    for (int32_t k = 0, start = 0, run = -1; k < kept; k++) {
        const int32_t *t = tri + 3 * (size_t)order[k];
        int turn = 1 << (t[1] < t[2]);
        two_smallest(slot + 3 * (size_t)order[k], &lo, &hi);
        if (lo != run) {
            run = lo;
            start = k;
        }
        if (seen[hi] < 4 * start) {
            seen[hi] = 4 * start + turn;
            continue;
        }
        if (seen[hi] & turn)
            tri_mark[order[k]] = TRI_REPEATED;
        seen[hi] |= turn;
        for (int d = 0; d < 3; d++)
            vertex_mark[t[d]] |= MULTI;
    }

    for (int32_t v = 0; v < nv; v++) {
        uint8_t mark = vertex_mark[v], cycle = !(mark & ON_EDGE);
        if (!(mark & LINKS))
            vertex_mark[v] = VERTEX_UNCOVERED;
        else if (mark & MULTI)
            vertex_mark[v] = VERTEX_MULTI_PATH + cycle;
        else if ((mark & LINKS) > 1)
            vertex_mark[v] = VERTEX_SPLIT_PATH + cycle;
        else
            vertex_mark[v] = VERTEX_OK;
    }

    int32_t components = 0;
    label = scratch;
    clear(label, nv);
    for (size_t f = 0; f < (size_t)nf; f++)
        if (good(tri_mark[f]))
            corner_join(label, tri + 3 * f);
    finish(label, nv);
    for (int32_t v = 0; v < nv; v++)
        components += label[v] == v;
    return components;
}

/* The symmetric CSR (indptr of nv + 1, indices of 2 * ne) of ne edges
 * (lo, hi) sorted by (lo, hi), each neighbour list ascending: first the
 * lower neighbours, from a stable pass by hi, then the upper ones, in the
 * order of the lo runs.  indptr serves as each vertex's cursor and is
 * shifted back to the list starts at the end. */
void graph_csr(const int32_t *edges, int32_t ne, int32_t nv, int32_t *indptr, int32_t *indices)
{
    for (int32_t v = 0; v <= nv; v++)
        indptr[v] = 0;
    for (size_t e = 0; e < 2 * (size_t)ne; e++)
        indptr[edges[e]]++;
    int32_t sum = 0;
    for (int32_t v = 0; v <= nv; v++) {
        int32_t c = indptr[v];
        indptr[v] = sum;
        sum += c;
    }
    for (size_t e = 0; e < (size_t)ne; e++)
        indices[indptr[edges[2 * e + 1]]++] = edges[2 * e];
    for (size_t e = 0; e < (size_t)ne; e++)
        indices[indptr[edges[2 * e]]++] = edges[2 * e + 1];
    for (int32_t v = nv; v > 0; v--)
        indptr[v] = indptr[v - 1];
    indptr[0] = 0;
}

#define EXCLUDED INT32_MIN /* in dist: a vertex no search enters */
#define ON_PATH (INT32_MIN + 1) /* in dist, while E grows: a vertex of the tree path pi_x */
#define UNBOUNDED INT32_MAX /* no bound on d + layer: a plain search */

/* The one BFS loop.  queue[0..tail) holds the sources, each at distance 0
 * in dist (and its parent set in pred, if pred is not NULL).  Every other
 * vertex v holds -1 - layer(v) in dist, where layer(v) is a lower bound on
 * its distance to every target (0 in a plain search), or EXCLUDED.  A FIFO
 * search that visits each vertex's neighbours in CSR order enqueues w,
 * reached at distance d, only if d + layer(w) <= bound: that is
 * d - 1 - bound <= dist[w] < 0, one load per edge, which EXCLUDED never
 * meets.  A vertex's distance is final once it is enqueued, so if lo < hi
 * the search returns after the first level whose expansion leaves every
 * target, the vertices lo..hi-1, reached: a cursor over the targets is
 * moved once a level, so no vertex pays for the check.  Returns the number
 * of vertices enqueued, in order in queue. */
static int32_t search(const int32_t *indptr, const int32_t *indices, int32_t tail, int32_t bound, int32_t lo,
                      int32_t hi, int32_t *dist, int32_t *queue, int32_t *pred)
{
    int targets = lo < hi;
    for (int32_t head = 0; head < tail;) {
        for (int32_t end = tail; head < end; head++) {
            int32_t u = queue[head], d = dist[u] + 1, floor = d - 1 - bound;
            for (int32_t e = indptr[u]; e < indptr[u + 1]; e++) {
                int32_t w = indices[e];
                if (dist[w] < 0 && dist[w] >= floor) {
                    dist[w] = d;
                    queue[tail++] = w;
                    if (pred)
                        pred[w] = u;
                }
            }
        }
        while (lo < hi && dist[lo] >= 0)
            lo++;
        if (targets && lo == hi)
            return tail;
    }
    return tail;
}

/* A plain search from s over the nv vertices, all of dist reset first:
 * pred gets each reached vertex's parent in the BFS tree of s (-1 at s).
 * Returns the number of vertices reached. */
int32_t bfs_tree(int32_t nv, const int32_t *indptr, const int32_t *indices, int32_t s, int32_t *dist,
                 int32_t *queue, int32_t *pred)
{
    for (int32_t v = 0; v < nv; v++)
        dist[v] = -1;
    dist[s] = 0;
    queue[0] = s;
    pred[s] = -1;
    return search(indptr, indices, 1, UNBOUNDED, 0, 0, dist, queue, pred);
}

/* What boundary_rows needs, over a graph of nv vertices whose first n are
 * the boundary cycle.  One search from all n boundary vertices writes each
 * vertex's layer, its distance to the boundary, and a plain search from
 * vertex 0 writes row 0 and column 0 of out (n x n) and each vertex's
 * parent in its BFS tree (-1 at 0).  Returns 1 if the search from 0 leaves
 * a vertex unreached, the graph then disconnected (the search from the
 * boundary reaches no more); else 2 if some cycle edge (i, i + 1 mod n) is
 * missing, 0 if none is.  dist and queue are scratch arrays of nv entries. */
int boundary_tree(int32_t nv, const int32_t *indptr, const int32_t *indices, int32_t n,
                  int32_t *layer, int32_t *parent, int64_t *out, int32_t *dist, int32_t *queue)
{
    for (int32_t v = 0; v < nv; v++)
        layer[v] = -1;
    for (int32_t i = 0; i < n; i++) {
        layer[i] = 0;
        queue[i] = i;
    }
    search(indptr, indices, n, UNBOUNDED, 0, 0, layer, queue, NULL);
    if (bfs_tree(nv, indptr, indices, 0, dist, queue, parent) < nv)
        return 1;
    for (int32_t y = 0; y < n; y++)
        out[y] = out[(size_t)y * n] = dist[y];
    for (int32_t i = 0; i < n; i++) {
        int32_t j = (i + 1) % n, e = indptr[i];
        while (e < indptr[i + 1] && indices[e] != j)
            e++;
        if (e == indptr[i + 1])
            return 2;
    }
    return 0;
}

/* Sets every vertex of the tree path pi_x from x up to vertex 0 to
 * ON_PATH in dist; 0 if one of them was excluded, else 1. */
static int mark_path(const int32_t *parent, int32_t x, int32_t *dist)
{
    int clear = 1;
    for (int32_t v = x; v >= 0; v = parent[v]) {
        clear &= dist[v] != EXCLUDED;
        dist[v] = ON_PATH;
    }
    return clear;
}

/* Excludes every vertex reached from the top excluded vertices of stack
 * through vertices off the path marked ON_PATH, so that every neighbour
 * of an excluded vertex is excluded or on the path.  Returns 0 as soon as
 * it would exclude a target, a boundary vertex y with x < y < n, else 1. */
static int flood(const int32_t *indptr, const int32_t *indices, int32_t n, int32_t x, int32_t *dist,
                 int32_t *stack, int32_t top)
{
    while (top > 0) {
        int32_t u = stack[--top];
        for (int32_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int32_t w = indices[e];
            if (dist[w] > ON_PATH) {
                if (x < w && w < n)
                    return 0;
                dist[w] = EXCLUDED;
                stack[top++] = w;
            }
        }
    }
    return 1;
}

/* Every vertex unreached and not excluded: -1 - layer in dist. */
static void unreached(int32_t nv, const int32_t *layer, int32_t *dist)
{
    for (int32_t v = 0; v < nv; v++)
        dist[v] = -1 - layer[v];
}

/* Grows the excluded set E in dist for source x, the span's first if x is
 * first: from the boundary vertices 1..x-1 off pi_x then, else from
 * pi_{x-1} \ pi_x.  Returns 1, with E grown and every other vertex at
 * -1 - layer, if E holds neither a vertex of pi_x nor a target; else 0,
 * dist then in no defined state. */
static int grow(const int32_t *indptr, const int32_t *indices, int32_t n, const int32_t *layer,
                const int32_t *parent, int32_t x, int32_t first, int32_t *dist, int32_t *stack)
{
    int32_t top = 0;
    if (!mark_path(parent, x, dist))
        return 0;
    if (x == first) {
        for (int32_t v = 1; v < x; v++)
            if (dist[v] != ON_PATH) {
                dist[v] = EXCLUDED;
                stack[top++] = v;
            }
    } else
        for (int32_t v = x - 1; dist[v] != ON_PATH; v = parent[v]) {
            if (x < v && v < n)
                return 0;
            dist[v] = EXCLUDED;
            stack[top++] = v;
        }
    if (!flood(indptr, indices, n, x, dist, stack, top))
        return 0;
    for (int32_t v = x; v >= 0; v = parent[v])
        dist[v] = -1 - layer[v];
    return 1;
}

/* Rows lo..hi-1 of the boundary distances out (n x n), after boundary_tree
 * returned found, 0 or 2, with layer and parent: the search from each
 * x >= 1 writes out[x][y] and out[y][x] for the targets y > x only, and
 * skips two kinds of vertices, each exactly.
 *
 * Side.  With pi_x the tree path from 0 to x, a geodesic, the excluded set
 * E grows by flooding (see flood) from pi_{x-1} \ pi_x, and at the span's
 * first x from the boundary vertices 1..x-1 off pi_x, so every neighbour
 * of E lies in E or on pi_x.  If E holds neither a vertex of pi_x nor a
 * target, a shortest path from x to a target that enters E leaves it onto
 * pi_x again, and the part between can follow pi_x at no cost.
 *
 * Depth.  With every cycle edge (found 0), d(x, y) <= cyc(x, y) <=
 * min(n/2, n-1-x), and d(w, y) >= layer(w), so no vertex w with
 * d(x, w) + layer(w) beyond that bound is on a shortest path to a target.
 * With a cycle edge missing (found 2) there is no such bound, and no
 * vertex is skipped for its depth.
 *
 * Each search returns once it has reached its last target (see search).
 *
 * Both are graph facts, checked, not planarity: if pi_x meets E, E would
 * take a target, or a target is left unreached, the rest of the span runs
 * without E.  dist and queue are scratch arrays of nv entries.  Returns 1
 * if a search without E leaves a target unreached, which the checks of
 * boundary_tree rule out, else 0. */
int boundary_rows(int32_t nv, const int32_t *indptr, const int32_t *indices, int32_t n,
                  const int32_t *layer, const int32_t *parent, int32_t lo, int32_t hi,
                  int64_t *out, int32_t *dist, int32_t *queue, int found)
{
    int side = 1;
    int32_t first = lo > 1 ? lo : 1;
    unreached(nv, layer, dist);
    for (int32_t x = first; x < hi && x < n - 1; x++) {
        int32_t bound = found ? UNBOUNDED : n / 2 < n - 1 - x ? n / 2 : n - 1 - x, tail;
        if (side && !(side = grow(indptr, indices, n, layer, parent, x, first, dist, queue)))
            unreached(nv, layer, dist);
        for (;;) {
            dist[x] = 0;
            queue[0] = x;
            tail = search(indptr, indices, 1, bound, x + 1, n, dist, queue, NULL);
            int32_t y = x + 1;
            while (y < n && dist[y] >= 0)
                y++;
            if (y == n)
                break;
            if (!side)
                return 1;
            side = 0;
            unreached(nv, layer, dist);
        }
        for (int32_t y = x + 1; y < n; y++)
            out[(size_t)x * n + y] = out[(size_t)y * n + x] = dist[y];
        for (int32_t k = 0; k < tail; k++)
            dist[queue[k]] = -1 - layer[queue[k]];
    }
    return 0;
}

/* judge_pairs: the boundary BFS matrix judged in one pass.  dist holds the
 * n x n distances (each below 2^31), which the BFS writes symmetric, so the
 * pairs x <= y, read in row-major order, meet each pair before its mirror
 * and give the answers of all n^2 entries, the diagonal's included.  If
 * some distance exceeds its pair's cycle distance, out[0], out[1] get the
 * first such pair and the result is 1.  Otherwise the result is 0 and
 * out[0], out[1] get the pair, x != y, of least ratio dist[x][y] /
 * d_cyc(x, y), the first among equal ratios, compared exactly by
 * cross-multiplying in int64; and out[2], out[3] the first pair whose cycle
 * distance s has table[s] > dist[x][y], table holding n / 2 + 1 bounds, or
 * -1, -1 if none has or table is NULL. */
int judge_pairs(const int64_t *dist, int32_t n, const int64_t *table, int32_t *out)
{
    int64_t best_d = 1, best_c = 0; /* no pair yet: an infinite ratio */
    out[2] = out[3] = -1;
    for (int32_t x = 0; x < n; x++)
        for (int32_t y = x; y < n; y++) {
            int32_t gap = y - x, c = gap < n - gap ? gap : n - gap;
            int64_t d = dist[(size_t)x * n + y];
            if (d > c) {
                out[0] = x, out[1] = y;
                return 1;
            }
            if (c > 0 && d * best_c < best_d * c) {
                best_d = d, best_c = c;
                out[0] = x, out[1] = y;
            }
            if (table && out[2] < 0 && table[c] > d)
                out[2] = x, out[3] = y;
        }
    return 0;
}

/* The oracle's enumeration of the triangulated disks that fill the labeled
 * cycle 0..n-1 with exactly `interior` interior vertices, ids n.. handed out
 * in search order.  Each step takes the first open region (a polygon, its
 * vertices in order) and attaches the triangle on its first edge (r0, r1),
 * branching first over a fresh interior vertex, then over the region's
 * vertices j = 2..last as apex.  A chord that duplicates an existing edge
 * would pinch the disk and is rejected.  The triangle leaves the region
 * r0, fresh, r1, ... for a fresh apex; for apex j the polygons region[1..j]
 * (when j > 2) and region[j..last] + r0 (when j < last), the first one on
 * top.  Every complex comes out once, along one branch with one labeling.
 *
 * The DFS state lives in the caller's int32 arrays, so a search runs over
 * many calls: `state` (grow_state_size entries, zeroed before the first
 * call) and `tri` (F + 1 rows, the triangles of the current path), where
 * F = n - 2 + 2 * interior is the triangle count of every filling.  The
 * state holds a header, then per step of the path its record and a copy of
 * the region it took, then the stack of open regions (vertices, then
 * lengths, with the first open region on top) and the nv x nv edge flags.
 * A step adds at most one vertex to the stack and one region, so the stack
 * holds at most n + F + 1 vertices after F + 1 steps. */
enum { GROW_START, GROW_ENTER, GROW_NEXT, GROW_DONE };
enum { HEAD_MODE, HEAD_DEPTH, HEAD_USED, HEAD_TOP, HEAD_REGIONS, GROW_HEAD };
enum { STEP_LEN, STEP_TOP, STEP_REGIONS, STEP_USED, STEP_CHOICE, GROW_STEP };
#define GROW_FRESH 1 /* a step's choice: 0 for none yet, 1 for a fresh apex, j >= 2 for region[j] */

int32_t grow_state_size(int32_t n, int32_t interior)
{
    int32_t nf = n - 2 + 2 * interior, nv = n + interior, width = n + nf + 1;
    return GROW_HEAD + (nf + 1) * (GROW_STEP + width) + width + nf + 2 + nv * nv;
}

/* Writes the triangle (a, b, c) of distinct ids rotated so its smallest id comes first. */
static void put_triangle(int32_t *row, int32_t a, int32_t b, int32_t c)
{
    if (a < b && a < c) {
        row[0] = a, row[1] = b, row[2] = c;
    } else if (b < c) {
        row[0] = b, row[1] = c, row[2] = a;
    } else {
        row[0] = c, row[1] = a, row[2] = b;
    }
}

static inline int32_t *edge_flag(int32_t *edge, int32_t nv, int32_t a, int32_t b)
{
    return a < b ? edge + (size_t)a * nv + b : edge + (size_t)b * nv + a;
}

/* Writes the next fillings in DFS order, up to cap of them, as rows of F
 * triangles into out (cap x F x 3).  Returns how many it wrote: fewer than
 * cap once the search has ended, after which it returns 0.  A leaf with
 * `interior` interior vertices but T != F triangles, or a path that reaches
 * F + 1 triangles with regions still open, is a bug: it returns -1 - T, the
 * leaf's triangles in tri[0..T). */
int32_t grow_fillings(int32_t n, int32_t interior, int32_t *state, int32_t *tri, int32_t *out, int32_t cap)
{
    int32_t nf = n - 2 + 2 * interior, nv = n + interior, width = n + nf + 1;
    int32_t *steps = state + GROW_HEAD, *held = steps + (size_t)(nf + 1) * GROW_STEP;
    int32_t *verts = held + (size_t)(nf + 1) * width, *lens = verts + width, *edge = lens + nf + 2;
    int32_t mode = state[HEAD_MODE], d = state[HEAD_DEPTH], used = state[HEAD_USED];
    int32_t top = state[HEAD_TOP], regions = state[HEAD_REGIONS], written = 0;
    if (mode == GROW_START) {
        memset(edge, 0, sizeof(int32_t) * (size_t)nv * nv);
        for (int32_t i = 0; i < n; i++) {
            verts[i] = i;
            *edge_flag(edge, nv, i, (i + 1) % n) = 1;
        }
        lens[0] = top = n;
        regions = 1;
        mode = GROW_ENTER;
    }
    while (mode != GROW_DONE) {
        if (mode == GROW_ENTER) {
            if (!regions) { /* a leaf: the path's d triangles close the disk */
                if (used == interior) {
                    if (d != nf) {
                        written = -1 - d;
                        break;
                    }
                    memcpy(out + (size_t)written * 3 * nf, tri, sizeof(int32_t) * 3 * (size_t)nf);
                    written++;
                }
                mode = GROW_NEXT;
                d--;
                if (written == cap)
                    break;
                continue;
            }
            if (d > nf) {
                written = -1 - d;
                break;
            }
            int32_t *rec = steps + (size_t)d * GROW_STEP, len = lens[--regions];
            top -= len;
            memcpy(held + (size_t)d * width, verts + top, sizeof(int32_t) * (size_t)len);
            rec[STEP_LEN] = len;
            rec[STEP_TOP] = top;
            rec[STEP_REGIONS] = regions;
            rec[STEP_USED] = used;
            rec[STEP_CHOICE] = 0;
            mode = GROW_NEXT;
        }
        /* GROW_NEXT: undo step d's choice and take its next one, or give the
         * region back and return to step d - 1 when none is left. */
        if (d < 0) {
            mode = GROW_DONE;
            break;
        }
        int32_t *rec = steps + (size_t)d * GROW_STEP, *region = held + (size_t)d * width;
        int32_t len = rec[STEP_LEN], last = len - 1, r0 = region[0], r1 = region[1];
        int32_t choice = rec[STEP_CHOICE], apex;
        used = rec[STEP_USED];
        top = rec[STEP_TOP];
        regions = rec[STEP_REGIONS];
        if (choice == GROW_FRESH) {
            *edge_flag(edge, nv, r0, n + used) = 0;
            *edge_flag(edge, nv, r1, n + used) = 0;
        } else if (choice) {
            apex = region[choice];
            if (choice > 2)
                *edge_flag(edge, nv, r1, apex) = 0;
            if (choice < last)
                *edge_flag(edge, nv, r0, apex) = 0;
        }
        if (!choice && used < interior) {
            choice = GROW_FRESH;
            apex = n + used++;
            *edge_flag(edge, nv, r0, apex) = 1;
            *edge_flag(edge, nv, r1, apex) = 1;
            verts[top] = r0;
            verts[top + 1] = apex;
            memcpy(verts + top + 2, region + 1, sizeof(int32_t) * (size_t)(len - 1));
            lens[regions++] = len + 1;
            top += len + 1;
        } else {
            for (choice = choice < 2 ? 2 : choice + 1; choice <= last; choice++) {
                apex = region[choice];
                if (choice > 2 && *edge_flag(edge, nv, r1, apex))
                    continue;
                if (choice < last && *edge_flag(edge, nv, r0, apex))
                    continue;
                break;
            }
            if (choice > last) {
                memcpy(verts + top, region, sizeof(int32_t) * (size_t)len);
                lens[regions++] = len;
                top += len;
                d--;
                continue;
            }
            if (choice < last) { /* region[choice..last] + r0, cut off by the chord (apex, r0) */
                *edge_flag(edge, nv, r0, apex) = 1;
                memcpy(verts + top, region + choice, sizeof(int32_t) * (size_t)(len - choice));
                verts[top + len - choice] = r0;
                lens[regions++] = len - choice + 1;
                top += len - choice + 1;
            }
            if (choice > 2) { /* region[1..choice], cut off by (r1, apex), on top */
                *edge_flag(edge, nv, r1, apex) = 1;
                memcpy(verts + top, region + 1, sizeof(int32_t) * (size_t)choice);
                lens[regions++] = choice;
                top += choice;
            }
        }
        rec[STEP_CHOICE] = choice;
        put_triangle(tri + 3 * (size_t)d, r0, r1, apex);
        d++;
        mode = GROW_ENTER;
    }
    state[HEAD_MODE] = mode;
    state[HEAD_DEPTH] = d;
    state[HEAD_USED] = used;
    state[HEAD_TOP] = top;
    state[HEAD_REGIONS] = regions;
    return written;
}

/* Records edge (u, w) of a triangle with third vertex x in the adjacency
 * bitsets once and twice and in the apex table, whose entries 2 (u nv + w)
 * and the next hold the apexes of the first and the second triangle on
 * (u, w), mirrored at (w, u).  Returns 1 for an edge seen first, 0 for one
 * seen before, and sets *bad for a third triangle on the edge or a second
 * one with the same apex (one vertex set twice), without a branch. */
static inline int32_t add_edge(int32_t nv, uint32_t u, uint32_t w, uint8_t x, uint64_t *once, uint64_t *twice,
                               uint8_t *apex, int *bad)
{
    uint64_t seen = once[u] >> w & 1;
    uint8_t *at = apex + 2 * ((size_t)u * nv + w), *mirror = apex + 2 * ((size_t)w * nv + u);
    *bad |= (int)(twice[u] >> w & 1) | (int)(seen & (at[0] == x));
    twice[u] |= seen << w;
    twice[w] |= seen << u;
    once[u] |= (uint64_t)1 << w;
    once[w] |= (uint64_t)1 << u;
    at[seen] = mirror[seen] = x;
    return 1 - (int32_t)seen;
}

/* disk_verdicts: ok[b] is 1 iff complex b of count, rows of nf triangles in
 * tri, is a triangulated disk on the vertices 0..nv-1 whose boundary is
 * exactly the cycle 0..n-1, iff validate_disk reports no failure for it.
 * The ids of tri may take any value.  Each complex takes one pass over its
 * 3F slots into adjacency bitsets, so nv <= 64: scratch (uint64) holds
 * once[nv] (v's neighbours), twice[nv] (the neighbours w whose edge vw lies
 * in two triangles) and an apex table of 2 nv^2 bytes (see add_edge), whose
 * entries count only where once and twice say they were written, so it is
 * never cleared.  An id outside 0..nv-1 or a degenerate row fails the
 * complex before any use as an index, and add_edge fails a third triangle
 * on an edge and a vertex set that comes twice, in either orientation.
 * Then these must all hold:
 *
 *   every vertex has a neighbour (validate_disk: no uncovered vertex);
 *   once & ~twice, the edges in one triangle, is at each vertex exactly its
 *   cycle edges, i +- 1 mod n for i < n and none for i >= n (the boundary
 *   is C_n);
 *   V - E + F = 1, E counted as the edges first seen;
 *   a walk along each vertex v's link of 5 or more vertices, from an open
 *   end (a neighbour w with vw in one triangle) or from any neighbour if
 *   there is none, each step to the apex of edge v-cur that it did not come
 *   from, visits all of once[v] (no split or multigraph link);
 *   a flood over once from vertex 0 reaches all nv vertices (one component).
 *
 * Why the walk decides the link: with every edge in at most two triangles
 * and no vertex set twice, the link of v is a simple graph on once[v] in
 * which w has degree 1 or 2 as vw lies in one triangle or two, so it is a
 * disjoint union of paths and cycles.  A walk from an end covers its path
 * and one from a vertex of a cycle goes round it, so the walk covers the
 * link iff the link is connected: disk_marks' split and multi marks.  A
 * path has at least 2 vertices and a cycle at least 3, and the cycle check
 * leaves each link 2 open ends or none, so at most one path: a split link
 * has at least 5 vertices, and a smaller one needs no walk.  The other
 * checks are its triangle, edge, cycle-edge and component marks.  No
 * complex of F triangles covers more than 3F vertices, so an nv outside
 * n..min(64, 3F), or n < 3 (no boundary cycle), fails every complex
 * without indexing anything. */
void disk_verdicts(int32_t n, int32_t nv, const int32_t *tri, int32_t count, int32_t nf, uint64_t *scratch,
                   uint8_t *ok)
{
    memset(ok, 0, (size_t)count);
    if (n < 3 || nv < n || nv > 64 || nv > 3 * (int64_t)nf)
        return;
    uint64_t *once = scratch, *twice = scratch + nv, all = ~(uint64_t)0 >> (64 - nv);
    uint8_t *apex = (uint8_t *)(twice + nv);
    for (size_t b = 0; b < (size_t)count; b++) {
        const int32_t *t = tri + b * 3 * (size_t)nf;
        memset(once, 0, sizeof(uint64_t) * 2 * (size_t)nv);
        int32_t ne = 0, f;
        int bad = 0;
        for (f = 0; f < nf; f++, t += 3) {
            uint32_t x = (uint32_t)t[0], y = (uint32_t)t[1], z = (uint32_t)t[2];
            if (x >= (uint32_t)nv || y >= (uint32_t)nv || z >= (uint32_t)nv || x == y || y == z || x == z)
                break;
            ne += add_edge(nv, x, y, (uint8_t)z, once, twice, apex, &bad);
            ne += add_edge(nv, y, z, (uint8_t)x, once, twice, apex, &bad);
            ne += add_edge(nv, z, x, (uint8_t)y, once, twice, apex, &bad);
        }
        if (f < nf || bad || nv - ne + nf != 1)
            continue;
        int32_t v;
        for (v = 0; v < nv; v++) {
            uint64_t cycle = v < n ? (uint64_t)1 << (v + 1 < n ? v + 1 : 0) | (uint64_t)1 << (v ? v - 1 : n - 1) : 0;
            if (!once[v] || (once[v] & ~twice[v]) != cycle)
                break;
            uint64_t seen = 0, rest = once[v];
            for (int k = 0; k < 4; k++)
                rest &= rest - 1; /* 0 for a link of at most 4 vertices */
            if (!rest)
                continue;
            int32_t from = -1, at = __builtin_ctzll(cycle ? cycle : once[v]);
            while (!(seen >> at & 1)) {
                seen |= (uint64_t)1 << at;
                const uint8_t *next = apex + 2 * ((size_t)v * nv + at);
                int32_t step = next[0] != from ? next[0] : twice[v] >> at & 1 ? next[1] : at;
                from = at;
                at = step;
            }
            if (seen != once[v])
                break;
        }
        if (v < nv)
            continue;
        uint64_t reach = 1, todo = 1;
        while (todo) {
            uint64_t fresh = once[__builtin_ctzll(todo)] & ~reach;
            todo = (todo & (todo - 1)) | fresh;
            reach |= fresh;
        }
        ok[b] = reach == all;
    }
}

/* The cycle of id v, of the cycles of ids start[r] .. start[r + 1] - 1,
 * r < cycles, start ascending, or cycles if v lies on none.  The cycle of
 * the row before is tried first, so rows in ledger order take no search. */
static int32_t cycle_of(int32_t v, const int32_t *start, int32_t cycles, int32_t last)
{
    if (last < cycles && start[last] <= v && v < start[last + 1])
        return last;
    if (v < start[0] || v >= start[cycles])
        return cycles;
    int32_t lo = 0, hi = cycles;
    while (hi - lo > 1) {
        int32_t mid = lo + (hi - lo) / 2;
        if (start[mid] <= v)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/* row_cycles: strip_annuli's counting pass over the k rows of tri, for the
 * cycles of cycle_of.  count, of cycles + 1 entries, gets the number of
 * rows whose first id lies on each cycle, and in count[cycles] on none.
 * Returns 1 if the rows come grouped, those of each cycle after those of
 * every cycle before it and the rows on none last, else 0.  Given an
 * index of k entries, a stable counting sort also writes there the rows
 * of cycle 0, then those of cycle 1, and so on, the rows on none last. */
static int32_t row_cycles(const int32_t *tri, int32_t k, const int32_t *start, int32_t cycles, int32_t *count,
                          int32_t *index)
{
    int32_t grouped = 1, last = 0;
    memset(count, 0, sizeof(int32_t) * ((size_t)cycles + 1));
    for (int32_t f = 0; f < k; f++) {
        int32_t r = cycle_of(tri[3 * (size_t)f], start, cycles, last);
        grouped &= r >= last;
        count[r]++, last = r;
    }
    if (!index)
        return grouped;
    for (int32_t r = 0, top = 0; r <= cycles; r++) {  /* count[r] becomes the place of cycle r's first row */
        int32_t rows = count[r];
        count[r] = top, top += rows;
    }
    for (int32_t f = 0; f < k; f++)
        index[count[last = cycle_of(tri[3 * (size_t)f], start, cycles, last)]++] = f;
    for (int32_t r = cycles; r > 0; r--)  /* now the place after cycle r's last row: back to counts */
        count[r] -= count[r - 1];
    return grouped;
}

/* The edge of a cycle of len vertices between its vertices p and q, the
 * edge from vertex e to e + 1 mod len being e, or -1 if they are not
 * adjacent on it; 0 <= p, q < len. */
static int32_t cycle_edge(int32_t p, int32_t q, int32_t len)
{
    int32_t lo = p < q ? p : q, hi = p < q ? q : p;
    return hi - lo == 1 ? lo : lo == 0 && hi == len - 1 && len > 2 ? hi : -1;
}

/* strip_rows' defects, which it returns negated (0 is a strip). */
enum { STRIP, STRIP_ROWS, STRIP_OFF, STRIP_SHAPE, STRIP_PAIR, STRIP_TWICE, STRIP_WIND, STRIP_FAR };

/* Row f of strip_rows' rows: row index[f] of tri, or row f without an index. */
static inline const int32_t *strip_row(const int32_t *tri, const int32_t *index, int32_t f)
{
    return tri + 3 * (size_t)(index ? index[f] : f);
}

static inline int64_t defect(int32_t *scratch, int32_t code, int32_t f)  /* -code, its row f in scratch[0] */
{
    scratch[0] = f;
    return -code;
}

/* strip_rows: whether the k rows of tri, or with an index the rows index[0
 * .. k - 1] of tri, are the annulus between a cycle U of m >= 3 vertices
 * from id first and the next cycle inward, W, of M >= 3 vertices from id
 * first + m, as a cyclic strip; or, with M = 1, the fan closing U with the
 * apex first + m.  Every row must hold one edge of one cycle and one
 * vertex of the other, its first id on U, and each of the m edges of U and
 * the M edges of W (none for the apex) must lie in exactly one row, so
 * k = m + M (k = m for the fan).  Outer edge i, from U_i to U_i+1, then has
 * one far vertex W_up[i], and inner edge j one far vertex U_down[j].
 * Around U, the far vertices of consecutive outer edges i and i + 1 must
 * advance by 0..M - 1 steps along W, M steps in all, and each inner edge
 * passed on the way must have U_i+1 as its far vertex: the monotone cyclic
 * path of the strip's rungs, the edges (U_i+1, W_j) for j from up[i] to
 * up[i + 1].  Returns the largest min(x, period - x), x = (a + b i - c j)
 * mod period, over those m + M rungs (0 if period is 0, and for the fan);
 * or, negated, the first defect found, with scratch[0] the f of the row
 * where it stopped: rows in order, then their count (f = -1), then the
 * path.  scratch holds 2 (m + M) int32 entries: up and down, then the f of
 * each edge's row.  The caller checks first + m + M <= 2^31, that every
 * index entry is a row of tri and, unless period is 0, 0 <= a, b (m - 1),
 * c (M - 1) < period and 2 period < 2^63, so that a + b i - c j lies in
 * (-period, 2 period). */
static int64_t strip_rows(const int32_t *tri, int32_t k, int32_t first, int32_t m, int32_t M, int64_t a, int64_t b,
                          int64_t c, int64_t period, int32_t *scratch, const int32_t *index)
{
    int32_t ring = m + M, *up = scratch, *down = scratch + m, *row = scratch + ring;
    for (int32_t i = 0; i < ring; i++)
        scratch[i] = -1;
    for (int32_t f = 0; f < k; f++) {
        const int32_t *t = strip_row(tri, index, f);
        int64_t x = (int64_t)t[0] - first, y = (int64_t)t[1] - first, z = (int64_t)t[2] - first;
        if (x < 0 || x >= m || y < 0 || y >= ring || z < 0 || z >= ring)
            return defect(scratch, STRIP_OFF, f);
        int32_t edge, far, *slot;
        if (y >= m && z >= m)
            edge = cycle_edge((int32_t)y - m, (int32_t)z - m, M), far = (int32_t)x, slot = down;
        else if (y < m && z >= m)
            edge = cycle_edge((int32_t)x, (int32_t)y, m), far = (int32_t)z - m, slot = up;
        else if (z < m && y >= m)
            edge = cycle_edge((int32_t)x, (int32_t)z, m), far = (int32_t)y - m, slot = up;
        else
            return defect(scratch, STRIP_SHAPE, f);
        if (edge < 0)
            return defect(scratch, STRIP_PAIR, f);
        if (slot[edge] >= 0)
            return defect(scratch, STRIP_TWICE, f);
        slot[edge] = far, row[slot - scratch + edge] = f;
    }
    if (k != (M > 1 ? ring : m))  /* too few rows: too many put an edge in two */
        return defect(scratch, STRIP_ROWS, -1);
    if (M == 1)
        return 0;
    int64_t worst = 0, steps = 0;
    for (int32_t i = 0; i < m; i++) {
        int32_t next = i + 1 < m ? i + 1 : 0, j = up[i], stop = up[next];
        steps += stop >= j ? stop - j : stop - j + M;
        if (steps > M)
            return defect(scratch, STRIP_WIND, row[i]);
        for (;;) {
            if (period) {
                int64_t d = a + b * next - c * j;
                d = d < 0 ? d + period : d >= period ? d - period : d;
                d = d < period - d ? d : period - d;
                worst = d > worst ? d : worst;
            }
            if (j == stop)
                break;
            if (down[j] != next)
                return defect(scratch, STRIP_FAR, row[m + j]);
            j = j + 1 < M ? j + 1 : 0;
        }
    }
    return steps == M ? worst : defect(scratch, STRIP_WIND, row[m - 1]);
}

/* strip_annuli: certify's strip pass over the k rows of tri, for a ledger of
 * cycles >= 1 cycles, cycle r holding the ids start[r] .. start[r + 1] - 1
 * and the apex the id start[cycles].  row_cycles counts each cycle's rows
 * into count.  Without an index, rows that come grouped are checked in
 * place, and rows in another order return 1 before any strip; given an
 * index of k entries, row_cycles sorts the rows into it.  Then strip_rows
 * checks each annulus r with the terms a, b, c and period at terms[4 r],
 * and last the cone's fan, whose terms are 0.  Strip r writes its largest
 * rung drift, or its defect negated, to out[2 r], and the row of tri where
 * it stopped to out[2 r + 1] (-1 for a wrong row count, 0 for a strip).
 * scratch holds 2 (m + M) int32 for the largest strip.  The caller checks
 * that start ascends from 0 by 3 or more ids a cycle to an apex of at
 * most 2^31 - 1, and each annulus's terms as strip_rows asks. */
int32_t strip_annuli(const int32_t *tri, int32_t k, const int32_t *start, int32_t cycles, const int64_t *terms,
                     int32_t *count, int32_t *index, int32_t *scratch, int64_t *out)
{
    if (!row_cycles(tri, k, start, cycles, count, index) && !index)
        return 1;
    for (int32_t r = 0, top = 0; r < cycles; r++) {
        int32_t m = start[r + 1] - start[r], M = r + 1 < cycles ? start[r + 2] - start[r + 1] : 1;
        const int64_t *t = terms + 4 * (size_t)r;
        const int32_t *part = index ? index + top : NULL;
        int64_t drift = strip_rows(index ? tri : tri + 3 * (size_t)top, count[r], start[r], m, M, t[0], t[1], t[2],
                                   t[3], scratch, part);
        int32_t f = scratch[0];
        out[2 * (size_t)r] = drift;
        out[2 * (size_t)r + 1] = drift >= 0 ? 0 : f < 0 ? -1 : part ? part[f] : top + f;
        top += count[r];
    }
    return 0;
}

/* Which of count complexes, rows of nf triangles on ids 0..nv-1 in tri, are
 * isometric fillings of C_n: ok[b] is 1 iff no two boundary vertices are
 * closer in complex b than along the cycle.  A shortcut between boundary
 * vertices i and j has length at most d_cyc(i, j) - 1 <= n / 2 - 1, so the
 * test is that within k steps, for k = 1 .. n / 2 - 1, no boundary pair
 * with d_cyc > k is reached.  Vertex sets are bitsets of words = (nv + 63)
 * / 64 uint64 each; scratch (uint64) holds (nv + 2n) * words: each vertex's
 * neighbours and itself, then the sets within k and k + 1 steps of each
 * boundary vertex. */
void isometric_rows(int32_t n, int32_t nv, const int32_t *tri, int32_t count, int32_t nf, uint64_t *scratch,
                    uint8_t *ok)
{
    size_t words = ((size_t)nv + 63) / 64;
    uint64_t *adj = scratch, *reach = adj + (size_t)nv * words, *next = reach + (size_t)n * words;
    for (size_t b = 0; b < (size_t)count; b++) {
        const int32_t *t = tri + b * 3 * (size_t)nf;
        memset(adj, 0, sizeof(uint64_t) * (size_t)nv * words);
        for (int32_t v = 0; v < nv; v++)
            adj[v * words + v / 64] |= (uint64_t)1 << (v % 64);
        for (size_t s = 0; s < 3 * (size_t)nf; s++) {
            int32_t u = t[s], v = t[next_slot(s)];
            adj[u * words + v / 64] |= (uint64_t)1 << (v % 64);
            adj[v * words + u / 64] |= (uint64_t)1 << (u % 64);
        }
        memcpy(reach, adj, sizeof(uint64_t) * (size_t)n * words);
        int good = 1;
        for (int32_t k = 1; good && k < n / 2; k++) {
            if (k > 1) {
                for (int32_t i = 0; i < n; i++) {
                    uint64_t *row = next + i * words;
                    memset(row, 0, sizeof(uint64_t) * words);
                    for (int32_t v = 0; v < nv; v++)
                        if (reach[i * words + v / 64] >> (v % 64) & 1)
                            for (size_t w = 0; w < words; w++)
                                row[w] |= adj[v * words + w];
                }
                uint64_t *swap = reach;
                reach = next;
                next = swap;
            }
            for (int32_t i = 0; good && i < n; i++)
                for (int32_t j = 0; j < n; j++) {
                    int32_t gap = i < j ? j - i : i - j;
                    if ((gap < n - gap ? gap : n - gap) > k && reach[i * words + j / 64] >> (j % 64) & 1) {
                        good = 0;
                        break;
                    }
                }
        }
        ok[b] = (uint8_t)good;
    }
}

/* Writes v in decimal at out; returns the characters written (at most 11). */
static int put_int(char *out, int32_t v)
{
    char digits[10];
    int len = 0, n = 0;
    int64_t x = v;
    if (x < 0) {
        out[n++] = '-';
        x = -x;
    }
    do {
        digits[len++] = (char)('0' + x % 10);
        x /= 10;
    } while (x);
    while (len)
        out[n++] = digits[--len];
    return n;
}

/* The text that json.dump(indent=2) writes for count rows of width >= 1
 * ids at rows, as elements of a list held by a top-level object: each row
 * is "\n    [", its ids each after "\n      " and separated by ",", then
 * "\n    ]", and the rows are separated by ",", with a "," before the first
 * one too unless first is nonzero.  Returns the characters written; out
 * holds at least count (13 + 19 width) of them, as the caller checks. */
int64_t rows_text(const int32_t *rows, int64_t count, int32_t width, int32_t first, char *out)
{
    static const char open[] = "\n    [", item[] = "\n      ", close[] = "\n    ]";
    char *at = out;
    for (int64_t r = 0; r < count; r++) {
        if (r || !first)
            *at++ = ',';
        memcpy(at, open, 6);
        at += 6;
        for (int32_t j = 0; j < width; j++) {
            if (j)
                *at++ = ',';
            memcpy(at, item, 7);
            at += 7;
            at += put_int(at, rows[r * width + j]);
        }
        memcpy(at, close, 6);
        at += 6;
    }
    return at - out;
}

static inline int json_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/* Reads the JSON integer at *at, before end, into *id: an optional '-',
 * then 0 or a digit 1-9 and more digits, within int32.  Returns 0, *at
 * past it, or -1 for any other text.  The end of the bytes is no error,
 * as more bytes may follow: the digits before it are read, and the
 * caller, finding no byte after them, counts no row there.  The byte
 * after the integer is left to the caller, which refuses a '.', 'e' or
 * another digit there. */
static int parse_id(const char **at, const char *end, int32_t *id)
{
    const char *p = *at;
    int negative = p < end && *p == '-';
    p += negative;
    if (p < end && (*p < '0' || *p > '9' || (*p == '0' && p + 1 < end && p[1] >= '0' && p[1] <= '9')))
        return -1;
    int64_t x = 0, limit = negative ? (int64_t)INT32_MAX + 1 : INT32_MAX;
    for (; p < end && *p >= '0' && *p <= '9'; p++) {
        x = 10 * x + (*p - '0');
        if (x > limit)
            return -1;
    }
    *id = (int32_t)(negative ? -x : x);
    *at = p;
    return 0;
}

/* Skips JSON whitespace from p; returns the first other position, or end. */
static const char *skip_space(const char *p, const char *end)
{
    while (p < end && json_space(*p))
        p++;
    return p;
}

/* The first byte from *at that is not JSON whitespace, *at past it, or -1
 * and *at at end if the bytes end first. */
static int next_byte(const char **at, const char *end)
{
    const char *p = skip_space(*at, end);
    *at = p + (p < end);
    return p < end ? (unsigned char)*p : -1;
}

/* The rows of a JSON list of triangle rows "[a, b, c], [d, e, f], ...]",
 * read from the len bytes of text, which start just after the list's '['
 * or after a row's ','.  Each row is three JSON integers within int32,
 * and only JSON's four whitespace bytes may stand between tokens.  A row
 * counts, and is written to out as int32, only once the ',' or ']' after
 * it is read, so a row that the end of the bytes cuts is never counted;
 * reading stops after room rows, at the list's ']' or at the end of the
 * bytes, leaving the rest to the next call.  used, two int64, gets the
 * bytes read up to the separator of the last row counted, included, and
 * 1 if that separator was the list's ']', else 0.  Returns the rows
 * counted, or -1 for any other text: a row not of three ids, an id that
 * is no JSON integer or beyond int32, an empty list, a trailing comma or
 * any other byte, non-ASCII ones included. */
int64_t parse_rows(const char *text, int64_t len, int32_t *out, int64_t room, int64_t *used)
{
    const char *p = text, *end = text + len;
    int64_t rows = 0;
    used[0] = used[1] = 0;
    while (rows < room && !used[1]) {
        int c;
        for (int j = 0; j < 4; j++) {
            if (j) {
                p = skip_space(p, end);
                if (parse_id(&p, end, out + 3 * rows + j - 1))
                    return -1;
            }
            c = next_byte(&p, end);
            if (c != "[,,]"[j])
                return c < 0 ? rows : -1;
        }
        c = next_byte(&p, end);
        if (c != ',' && c != ']')
            return c < 0 ? rows : -1;
        rows++;
        used[0] = p - text;
        used[1] = c == ']';
    }
    return rows;
}
