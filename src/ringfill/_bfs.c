/* Exact breadth-first distances over an int32 CSR graph, one FIFO search per source.
 *
 * ringfill.verify compiles this file on first use and calls bfs_rows through
 * ctypes, which releases the GIL for the call, so threads run in parallel.
 * The caller checks every array: C-contiguous, of the types below, every
 * index in indices and sources within 0..nv-1, and cols <= nv.
 */
#include <stddef.h>
#include <stdint.h>

/* For each sources[k], k < count, a FIFO search that visits each vertex's
 * neighbours in CSR order writes the distances to vertices 0..cols-1 into
 * row k of out (count rows of cols).  dist and queue are scratch arrays of nv
 * entries.  If pred is not NULL, it receives every vertex's BFS parent from
 * the last source (-1 at the source).  Returns 1 as soon as some vertex is
 * unreachable from a source, else 0. */
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
