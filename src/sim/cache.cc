#include "sim/cache.hh"

#include "common/error.hh"
#include "common/logging.hh"

namespace pact
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    throw_config_if(params.assoc == 0, "Cache: zero associativity");
    throw_config_if(params.prefetch && params.prefetchStreams == 0,
                    "Cache: prefetch enabled with zero streams");
    throw_config_if(params.prefetch && params.prefetchDegree == 0,
                    "Cache: prefetch enabled with zero degree");
    const std::uint64_t lines = params.sizeBytes / LineBytes;
    throw_config_if(lines < params.assoc,
                    "Cache: too small for associativity");
    sets_ = lines / params.assoc;
    // Round down to a power of two for cheap indexing.
    while (sets_ & (sets_ - 1))
        sets_ &= sets_ - 1;
    setMask_ = sets_ - 1;
    setBits_ = static_cast<unsigned>(__builtin_ctzll(sets_));
    assoc_ = params.assoc;
    fpWords_ = (assoc_ + 7) / 8;
    const unsigned lastWays = assoc_ - 8 * (fpWords_ - 1);
    lastLanes_ = lastWays == 8 ? ~0ull : (1ull << (8 * lastWays)) - 1;
    reset();
}

void
Cache::reset()
{
    tags_.assign(sets_ * assoc_, Invalid);
    stamps_.assign(sets_ * assoc_, 0);
    prefetched_.assign(sets_ * assoc_, 0);
    fps_.assign(sets_ * fpWords_, 0);
    streams_.assign(params_.prefetchStreams, Stream{});
    streamVictim_ = 0;
    clock_ = 0;
    hits_ = 0;
    misses_ = 0;
    prefetchHits_ = 0;
    prefetchIssued_ = 0;
}

/**
 * The LRU victim: the last invalid way if any, else the first way with
 * the minimum stamp. Invalid ways hold stamp 0 and valid ones distinct
 * stamps of at least 1 (each tick stamps one way), so both rules are
 * the last way with the minimum stamp.
 */
unsigned
Cache::victimWay(std::size_t set) const
{
    const std::uint64_t *stamps = &stamps_[set * assoc_];
    std::uint64_t best = ~0ull;
    unsigned victim = 0;
    for (unsigned w = 0; w < assoc_; w++) {
        const bool take = stamps[w] <= best;
        best = take ? stamps[w] : best;
        victim = take ? w : victim;
    }
    return victim;
}

void
Cache::fill(std::uint64_t line, std::size_t set, std::uint64_t h,
            bool prefetched)
{
    const unsigned w = victimWay(set);
    const std::size_t i = set * assoc_ + w;
    tags_[i] = line;
    stamps_[i] = ++clock_;
    prefetched_[i] = prefetched;
    std::uint64_t &fp = fps_[set * fpWords_ + w / 8];
    const unsigned shift = 8 * (w % 8);
    fp = (fp & ~(0xffull << shift)) | (fingerprint(h) << shift);
}

void
Cache::trainPrefetcher(std::uint64_t line, CacheResult &res)
{
    // Look for a stream expecting this line (or its successor window).
    for (auto &s : streams_) {
        if (!s.valid)
            continue;
        if (line == s.nextLine) {
            s.confidence++;
            s.nextLine = line + 1;
            if (s.confidence >= 2) {
                res.prefetchLines = params_.prefetchDegree;
                res.prefetchStart = line + 1;
                s.nextLine = line + 1 + params_.prefetchDegree;
            }
            return;
        }
    }
    // Allocate a new stream (round-robin victim).
    Stream &s = streams_[streamVictim_];
    streamVictim_ = (streamVictim_ + 1) % streams_.size();
    s.valid = true;
    s.nextLine = line + 1;
    s.confidence = 0;
}

CacheResult
Cache::accessMiss(std::uint64_t line, std::size_t set, std::uint64_t h)
{
    fill(line, set, h, false);
    misses_++;
    CacheResult res;
    if (params_.prefetch)
        trainPrefetcher(line, res);
    return res;
}

void
Cache::installPrefetches(std::uint64_t line, std::uint32_t count)
{
    for (std::uint32_t i = 0; i < count; i++) {
        const std::uint64_t l = line + i;
        const std::uint64_t h = hashLine(l);
        const std::size_t set = h & setMask_;
        const unsigned w = find(set, h, l);
        // A line already present is refreshed like a demand hit (its
        // prefetch mark clears); only a missing one arrives marked.
        if (w == NoWay)
            fill(l, set, h, true);
        else
            touch(set * assoc_ + w);
        prefetchIssued_++;
    }
}

} // namespace pact
