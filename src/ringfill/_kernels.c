/* The compiled kernels of ringfill.
 *
 *   edge_slots, edge_ends    the edge table of a triangle array
 *   link_roots, vertex_roots union-find over the corner graph and the vertices
 *   graph_csr, bfs_rows      the 1-skeleton's CSR and the boundary BFS
 *   grow_state_size,
 *   grow_fillings            the oracle's resumable backtracking enumeration
 *   disk_verdicts            the disk check of each complex of a stack
 *   isometric_rows           the oracle's isometry test on a stack of complexes
 *
 * ringfill._kernels compiles this file on first use and calls its functions
 * through ctypes, which releases the GIL for each call, so threads run in
 * parallel.  Nothing here keeps state between calls or allocates: every
 * scratch array is passed in by the caller, who allocates it as a numpy
 * array or, in the oracle, as a bytearray.  The caller checks every array:
 * C-contiguous, int32 unless stated, and every index within the sizes
 * given; disk_verdicts alone takes ids of any value, since rejecting them is
 * its job.
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

/* The (E, 2) edges (lo, hi) and incidence of edge_slots's edge ids;
 * incidence starts at zero. */
void edge_ends(const int32_t *tri, int32_t size, const int32_t *slot_edge, int32_t *edges,
               int32_t *incidence)
{
    for (int32_t s = 0; s < size; s++) {
        int32_t e = slot_edge[s];
        edges[2 * (size_t)e] = slot_lo(tri, s);
        edges[2 * (size_t)e + 1] = slot_hi(tri, s);
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

/* The corner graph's components, counted by the vertex whose link each is.
 *
 * Node 2e + d is edge e directed away from its end ends[2e + d], and node ^ 1
 * is its reverse; there are nodes = 2E of them.  Corner j of a triangle joins
 * the directed edges leaving it along slot j and along slot j - 1, whose edge
 * ids slot gives.  label (nodes entries) ends as each touched node's
 * smallest node of its component, or -1; count[v] (zeroed by the caller)
 * gains one for each component with tail v. */
void link_roots(const int32_t *tri, const int32_t *slot, int32_t nf, const int32_t *ends, int32_t nodes,
                int32_t *label, int32_t *count)
{
    for (int32_t v = 0; v < nodes; v++)
        label[v] = -1;
    for (size_t f = 0; f < (size_t)nf; f++) {
        const int32_t *t = tri + 3 * f, *e = slot + 3 * f;
        for (int j = 0; j < 3; j++) {
            int k = (j + 1) % 3, p = (j + 2) % 3;
            join(label, 2 * e[j] + (t[j] > t[k]), (2 * e[p] + (t[p] > t[j])) ^ 1);
        }
    }
    finish(label, nodes);
    for (int32_t v = 0; v < nodes; v++)
        if (label[v] == v)
            count[ends[v]]++;
}

/* The number of connected components of the nf triangles' vertices, of
 * nodes ids, each triangle joining its corners.  label as in link_roots. */
int32_t vertex_roots(const int32_t *tri, int32_t nf, int32_t nodes, int32_t *label)
{
    int32_t components = 0;
    for (int32_t v = 0; v < nodes; v++)
        label[v] = -1;
    for (size_t f = 0; f < (size_t)nf; f++) {
        join(label, tri[3 * f], tri[3 * f + 1]);
        join(label, tri[3 * f + 1], tri[3 * f + 2]);
    }
    finish(label, nodes);
    for (int32_t v = 0; v < nodes; v++)
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

/* For each sources[k], k < count, a FIFO search that visits each vertex's
 * neighbours in CSR order writes the distances to vertices 0..cols-1 into
 * row k of out (int64, count rows of cols).  dist and queue are scratch
 * arrays of nv entries.  If pred is not NULL, it receives every vertex's BFS
 * parent from the last source (-1 at the source).  Returns 1 as soon as some
 * vertex is unreachable from a source, else 0. */
int bfs_rows(int32_t nv, const int32_t *indptr, const int32_t *indices,
             const int32_t *sources, int32_t count, int32_t cols,
             int64_t *out, int32_t *dist, int32_t *queue, int32_t *pred)
{
    for (int32_t k = 0; k < count; k++) {
        int32_t head = 0, tail = 1, s = sources[k];
        for (int32_t v = 0; v < nv; v++)
            dist[v] = -1;
        dist[s] = 0;
        queue[0] = s;
        if (pred)
            pred[s] = -1;
        while (head < tail) {
            int32_t u = queue[head++], d = dist[u] + 1;
            for (int32_t e = indptr[u]; e < indptr[u + 1]; e++) {
                int32_t w = indices[e];
                if (dist[w] < 0) {
                    dist[w] = d;
                    queue[tail++] = w;
                    if (pred)
                        pred[w] = u;
                }
            }
        }
        if (tail < nv)
            return 1;
        for (int32_t v = 0; v < cols; v++)
            out[(size_t)k * cols + v] = dist[v];
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

/* Whether the nf triangles src (rows of any order) form a triangulated disk
 * on the vertices 0..nv-1 whose boundary is exactly the cycle 0..n-1, with
 * nv <= 3 * nf.  The checks are validate_disk's: every id within 0..nv-1
 * and no degenerate triangle, then on the rotated copy of the rows every
 * edge in 1 or 2 triangles, the incidence-1 edges exactly the edges of C_n,
 * V - E + F = 1, no two triangles on one vertex set, every vertex in a
 * triangle with a connected link, and one component.  An id is compared
 * before it is used as an index.  scratch is laid out as in disk_verdicts. */
static int is_disk(int32_t n, int32_t nv, const int32_t *src, int32_t nf, int32_t *scratch)
{
    int32_t size = 3 * nf, *rows = scratch, *slot = rows + size, *perm = slot + size;
    int32_t *incidence = perm + size, *edges = incidence + size, *label = edges + 2 * (size_t)size;
    int32_t *count = label + 2 * (size_t)size;
    for (int32_t s = 0; s < size; s += 3) {
        int32_t a = src[s], b = src[s + 1], c = src[s + 2];
        if (a < 0 || b < 0 || c < 0 || a >= nv || b >= nv || c >= nv || a == b || b == c || a == c)
            return 0;
        put_triangle(rows + s, a, b, c);
    }
    int width = 1; /* one radix digit holds every id, so count needs 1 << width <= 2 * nv entries */
    while (width < 31 && ((nv - 1) >> width))
        width++;
    int32_t ne = edge_slots(rows, size, width, count, perm, slot), boundary = 0;
    memset(incidence, 0, sizeof(int32_t) * (size_t)ne);
    edge_ends(rows, size, slot, edges, incidence);
    for (int32_t e = 0; e < ne; e++) {
        int32_t lo = edges[2 * e], hi = edges[2 * e + 1];
        if (incidence[e] > 2)
            return 0;
        if (incidence[e] == 1) { /* edges are distinct, so n cycle edges are all of C_n */
            if (hi >= n || (hi != lo + 1 && (lo != 0 || hi != n - 1)))
                return 0;
            boundary++;
        }
    }
    if (boundary != n || nv - ne + nf != 1)
        return 0;
    /* Two triangles on one vertex set share their two smallest edge ids.
     * Each edge lies in at most two triangles, so keeping the second
     * smallest edge id of the last triangle seen with each smallest one
     * finds every such pair. */
    int32_t *second = perm;
    for (int32_t e = 0; e < ne; e++)
        second[e] = -1;
    for (int32_t s = 0; s < size; s += 3) {
        int32_t a = slot[s], b = slot[s + 1], c = slot[s + 2];
        int32_t lo = a < b ? a : b, hi = a < b ? b : a;
        if (c < lo) {
            hi = lo;
            lo = c;
        } else if (c < hi) {
            hi = c;
        }
        if (second[lo] == hi)
            return 0;
        second[lo] = hi;
    }
    memset(count, 0, sizeof(int32_t) * (size_t)nv);
    link_roots(rows, slot, nf, edges, 2 * ne, label, count);
    for (int32_t v = 0; v < nv; v++)
        if (count[v] != 1) /* 0: v lies in no triangle; more: its link is disconnected */
            return 0;
    return vertex_roots(rows, nf, nv, label) == 1;
}

/* disk_verdicts: ok[b] is 1 iff complex b of count, rows of nf triangles in
 * tri, is a triangulated disk on the vertices 0..nv-1 whose boundary is
 * exactly the cycle 0..n-1 (see is_disk).  Each complex is checked on its
 * own, its rows rotated here, and the ids of tri may take any value.
 * scratch holds 30 * nf int32 entries: the rotated rows, the slot edge ids,
 * the sort order (then each edge's second smallest partner), the
 * incidences (3F each), the edges and the corner-graph labels (6F each) and
 * the radix counts (then each vertex's link components; 6F).  No complex
 * of F triangles covers more than 3F vertices, so for nv outside 1..3F
 * every verdict is 0 and the scratch stays linear in F. */
void disk_verdicts(int32_t n, int32_t nv, const int32_t *tri, int32_t count, int32_t nf, int32_t *scratch,
                   uint8_t *ok)
{
    for (size_t b = 0; b < (size_t)count; b++)
        ok[b] = (uint8_t)(0 < nv && nv <= 3 * (int64_t)nf && is_disk(n, nv, tri + b * 3 * (size_t)nf, nf, scratch));
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
