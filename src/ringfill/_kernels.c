/* The compiled kernels of ringfill: edge table, union-find, CSR and BFS.
 *
 * ringfill._kernels compiles this file on first use and calls its functions
 * through ctypes, which releases the GIL for each call, so threads run in
 * parallel.  Nothing here keeps state between calls or allocates: every
 * scratch array is passed in by the caller, who allocates it with numpy.
 * The caller checks every array: C-contiguous, int32 unless stated, and
 * every index within the sizes given.
 *
 * Triangles are rows of three int32 ids, each row rotated so its smallest id
 * comes first.  Slot s = 3f + j of a triangle array is the edge from corner
 * j of triangle f to corner j + 1.
 */
#include <stddef.h>
#include <stdint.h>

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

/* The components of the nf triangles' vertices, of nodes ids, each
 * triangle joining its corners.  label as in link_roots; count[v / stride]
 * (zeroed by the caller) gains one for each component of smallest id v. */
void vertex_roots(const int32_t *tri, int32_t nf, int32_t nodes, int32_t stride, int32_t *label,
                  int32_t *count)
{
    for (int32_t v = 0; v < nodes; v++)
        label[v] = -1;
    for (size_t f = 0; f < (size_t)nf; f++) {
        join(label, tri[3 * f], tri[3 * f + 1]);
        join(label, tri[3 * f + 1], tri[3 * f + 2]);
    }
    finish(label, nodes);
    for (int32_t v = 0; v < nodes; v++)
        if (label[v] == v)
            count[v / stride]++;
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
