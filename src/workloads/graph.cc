#include "workloads/graph.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/pool.hh"

namespace pact
{

namespace
{

/**
 * Edge-generation chunk size. Each chunk draws from its own
 * deterministic RNG stream and writes a disjoint, index-addressed
 * slice of the edge list, so the merged output is byte-identical to a
 * serial pass at any PACT_JOBS. 64K edges per chunk keeps scheduling
 * overhead negligible while still fanning a scale-18 build across
 * every core.
 */
constexpr std::uint64_t kEdgeChunk = 1ull << 16;

/**
 * Draw m undirected edges in chunked parallel index order, packed as
 * (u << 32) | v; genOne draws one edge (u, v) from the chunk's stream.
 */
template <typename GenOne>
std::vector<std::uint64_t>
generateEdges(std::uint64_t m, std::uint64_t streamSeed, GenOne genOne)
{
    std::vector<std::uint64_t> edges(m);
    const std::uint64_t chunks = (m + kEdgeChunk - 1) / kEdgeChunk;
    parallelFor(chunks, [&](std::size_t c) {
        Rng rng(rngStream(streamSeed, c));
        const std::uint64_t lo = c * kEdgeChunk;
        const std::uint64_t hi = std::min(m, lo + kEdgeChunk);
        for (std::uint64_t e = lo; e < hi; e++) {
            const auto [u, v] = genOne(rng);
            edges[e] = static_cast<std::uint64_t>(u) << 32 | v;
        }
    });
    return edges;
}

/**
 * Build the CSR of an undirected edge list (self-loops dropped,
 * duplicates merged, rows sorted) by two counting scatters instead of
 * a comparison sort. Weights are drawn from @p rng in CSR order.
 */
CsrGraph
toCsr(std::uint32_t n, std::vector<std::uint64_t> edges, Rng &rng)
{
    // Every non-loop edge lands in both endpoints' rows, so both
    // scatters fill the same rows: row v spans offsets[v]..offsets[v+1].
    std::vector<std::uint64_t> offsets(n + 1, 0);
    for (const std::uint64_t e : edges) {
        const auto u = static_cast<std::uint32_t>(e >> 32);
        const auto v = static_cast<std::uint32_t>(e);
        if (u != v) {
            offsets[u + 1]++;
            offsets[v + 1]++;
        }
    }
    for (std::uint32_t v = 0; v < n; v++)
        offsets[v + 1] += offsets[v];

    // First scatter: rows in edge order.
    std::vector<std::uint32_t> byEdge(offsets[n]);
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const std::uint64_t e : edges) {
        const auto u = static_cast<std::uint32_t>(e >> 32);
        const auto v = static_cast<std::uint32_t>(e);
        if (u != v) {
            byEdge[cursor[u]++] = v;
            byEdge[cursor[v]++] = u;
        }
    }
    std::vector<std::uint64_t>().swap(edges);

    // Second scatter: walking the rows in ascending u and appending u
    // to row v for each v in row u fills every row in ascending order.
    // The directed multiset is symmetric (v occurs in row u as often
    // as u in row v), so each row keeps exactly its entries.
    std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
    std::vector<std::uint32_t> sorted(offsets[n]);
    for (std::uint32_t u = 0; u < n; u++) {
        for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; k++)
            sorted[cursor[byEdge[k]]++] = u;
    }
    std::vector<std::uint32_t>().swap(byEdge);

    // Compact in place: repeats are adjacent in a sorted row.
    std::uint64_t out = 0;
    std::uint64_t begin = 0;
    for (std::uint32_t v = 0; v < n; v++) {
        const std::uint64_t end = offsets[v + 1];
        const std::uint64_t rowStart = out;
        for (std::uint64_t k = begin; k < end; k++) {
            if (out == rowStart || sorted[out - 1] != sorted[k])
                sorted[out++] = sorted[k];
        }
        offsets[v + 1] = out;
        begin = end;
    }

    CsrGraph g;
    g.numVertices = n;
    g.numEdges = out;
    g.offsets = std::move(offsets);
    g.neighbors.assign(sorted.begin(), sorted.begin() + out);
    g.weights.resize(out);
    for (std::uint8_t &w : g.weights)
        w = static_cast<std::uint8_t>(1 + rng.below(255));
    return g;
}

/**
 * Vertex count of a 2^scale graph. Packed edges and 32-bit vertex ids
 * need scale <= 31; larger scales would also overflow the shift.
 */
std::uint32_t
vertexCount(const char *who, std::uint32_t scale)
{
    throw_workload_if(scale > 31, who, ": graph scale ", scale,
                      " exceeds the maximum of 31");
    return 1u << scale;
}

} // namespace

CsrGraph
buildRmat(std::uint32_t scale, std::uint32_t edge_factor,
          const RmatParams &p, Rng &rng)
{
    const std::uint32_t n = vertexCount("buildRmat", scale);
    const std::uint64_t m = static_cast<std::uint64_t>(n) * edge_factor;

    // Quadrant of one draw, without branches: r in [0, a) -> (0,0),
    // [a, a+b) -> (0,1), [a+b, a+b+c) -> (1,0), else (1,1). u's bit
    // is set from a+b on, and v's bit flips at each of the three
    // bounds. The bounds are the left-to-right double sums.
    const double a = p.a;
    const double ab = p.a + p.b;
    const double abc = p.a + p.b + p.c;

    // One draw from the caller's rng seeds every chunk stream; the
    // caller's rng then continues with the CSR weight pass, so the
    // whole build is deterministic at any job count.
    const std::uint64_t streamSeed = rng.next();
    auto edges = generateEdges(
        m, streamSeed,
        [=](Rng &crng) -> std::pair<std::uint32_t, std::uint32_t> {
            std::uint32_t u = 0, v = 0;
            for (std::uint32_t bit = 0; bit < scale; bit++) {
                const double r = crng.uniform();
                const std::uint32_t ub = r >= ab;
                const std::uint32_t vb = (r >= a) ^ (r >= ab) ^ (r >= abc);
                u = (u << 1) | ub;
                v = (v << 1) | vb;
            }
            return {u, v};
        });
    return toCsr(n, std::move(edges), rng);
}

CsrGraph
buildUniform(std::uint32_t scale, std::uint32_t edge_factor, Rng &rng)
{
    const std::uint32_t n = vertexCount("buildUniform", scale);
    const std::uint64_t m = static_cast<std::uint64_t>(n) * edge_factor;

    const std::uint64_t streamSeed = rng.next();
    auto edges = generateEdges(
        m, streamSeed,
        [n](Rng &crng) -> std::pair<std::uint32_t, std::uint32_t> {
            const auto u = static_cast<std::uint32_t>(crng.below(n));
            const auto v = static_cast<std::uint32_t>(crng.below(n));
            return {u, v};
        });
    return toCsr(n, std::move(edges), rng);
}

CsrGraph
buildTwitterLike(std::uint32_t scale, std::uint32_t edge_factor, Rng &rng)
{
    // Heavier top-left concentration -> steeper power law, like the
    // follower distribution of the Twitter graph.
    RmatParams p;
    p.a = 0.65;
    p.b = 0.15;
    p.c = 0.15;
    return buildRmat(scale, edge_factor, p, rng);
}

void
allocGraph(AddrSpace &as, ProcId proc, const std::string &prefix,
           CsrGraph &g, bool thp, bool with_weights)
{
    throw_workload_if(g.numVertices == 0, "allocGraph: empty graph");
    g.offsetsAddr = as.alloc(proc, prefix + ".offsets",
                             8ull * (g.numVertices + 1), thp);
    g.neighborsAddr =
        as.alloc(proc, prefix + ".neighbors", 4ull * g.numEdges, thp);
    if (with_weights)
        g.weightsAddr = as.alloc(proc, prefix + ".weights", g.numEdges,
                                 thp);
}

} // namespace pact
