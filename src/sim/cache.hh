/**
 * @file
 * Set-associative last-level cache with true-LRU replacement and a
 * confidence-based stream prefetcher. The LLC is what turns the
 * workload's virtual access stream into the demand-miss stream that
 * PEBS samples; the prefetcher is why sequential pages end up with low
 * per-access criticality (paper Figure 1a).
 */

#ifndef PACT_SIM_CACHE_HH
#define PACT_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/config.hh"

namespace pact
{

/** Outcome of a cache lookup. */
struct CacheResult
{
    bool hit = false;
    /** The access hit a line installed by the prefetcher. */
    bool prefetched = false;
    /** Lines the prefetcher wants fetched after this access. */
    std::uint32_t prefetchLines = 0;
    /** First line address of the prefetch burst. */
    std::uint64_t prefetchStart = 0;
};

/**
 * LLC model. Tags are 64B line addresses (vaddr >> 6); replacement is
 * true LRU within a set via a per-access stamp.
 *
 * The tag store is a structure of arrays indexed by set * assoc + way:
 * 8-byte tags (~0 marks an invalid way; no line address reaches it),
 * 64-bit stamps and prefetched marks, plus one fingerprint word per 8
 * ways of a set. A way's fingerprint byte is the 8 hash bits just above
 * the set index; a lookup XORs the query byte into every lane and a
 * SWAR zero-byte test yields the candidate ways, each confirmed by its
 * full tag. A line lives in at most one way of its set, so the first
 * confirmed candidate is the hit.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up (and on miss, fill) the line containing @p vaddr.
     * Prefetch candidates are reported to the caller, which owns the
     * bandwidth accounting, then installed via installPrefetches().
     */
    CacheResult
    access(Addr vaddr)
    {
        const std::uint64_t line = vaddr >> LineShift;
        const std::uint64_t h = hashLine(line);
        const std::size_t set = h & setMask_;
        const unsigned w = find(set, h, line);
        if (w == NoWay)
            return accessMiss(line, set, h);
        CacheResult res;
        res.hit = true;
        res.prefetched = touch(set * assoc_ + w);
        hits_++;
        prefetchHits_ += res.prefetched;
        return res;
    }

    /** Install a burst of prefetched lines starting at @p line. */
    void installPrefetches(std::uint64_t line, std::uint32_t count);

    /** Return to the freshly constructed state (between runs). */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t prefetchHits() const { return prefetchHits_; }
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }
    std::size_t sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

  private:
    static constexpr std::uint64_t Invalid = ~0ull;
    static constexpr unsigned NoWay = ~0u;
    static constexpr std::uint64_t LaneLow = 0x0101010101010101ull;
    static constexpr std::uint64_t LaneLow7 = 0x7f7f7f7f7f7f7f7full;

    struct Stream
    {
        std::uint64_t nextLine = 0;
        std::uint32_t confidence = 0;
        bool valid = false;
    };

    /** Mix the set index bits so contiguous lines spread across sets. */
    static std::uint64_t
    hashLine(std::uint64_t line)
    {
        std::uint64_t x = line;
        x ^= x >> 17;
        x *= 0xed5ad4bbu;
        x ^= x >> 11;
        return x;
    }

    /** Fingerprint byte of a line hash: the bits above the set index. */
    std::uint64_t
    fingerprint(std::uint64_t h) const
    {
        return (h >> setBits_) & 0xff;
    }

    /** Way of @p set holding @p line, or NoWay. */
    unsigned
    find(std::size_t set, std::uint64_t h, std::uint64_t line) const
    {
        const std::uint64_t query = fingerprint(h) * LaneLow;
        const std::uint64_t *fp = &fps_[set * fpWords_];
        const std::uint64_t *tags = &tags_[set * assoc_];
        for (unsigned k = 0; k < fpWords_; k++) {
            // Exact zero-byte test: bit 7 of each lane whose
            // fingerprint equals the query (no borrow between lanes).
            const std::uint64_t x = fp[k] ^ query;
            std::uint64_t m = ~(((x & LaneLow7) + LaneLow7) | x | LaneLow7);
            if (k + 1 == fpWords_)
                m &= lastLanes_;
            while (m) {
                const unsigned w =
                    k * 8 + (static_cast<unsigned>(__builtin_ctzll(m)) >> 3);
                if (tags[w] == line)
                    return w;
                m &= m - 1;
            }
        }
        return NoWay;
    }

    /** Refresh way @p i on a hit; @return (and clear) its prefetch mark. */
    bool
    touch(std::size_t i)
    {
        stamps_[i] = ++clock_;
        const bool was = prefetched_[i];
        prefetched_[i] = 0;
        return was;
    }

    CacheResult accessMiss(std::uint64_t line, std::size_t set,
                           std::uint64_t h);
    /** Install @p line into @p set over its LRU victim. */
    void fill(std::uint64_t line, std::size_t set, std::uint64_t h,
              bool prefetched);
    unsigned victimWay(std::size_t set) const;
    void trainPrefetcher(std::uint64_t line, CacheResult &res);

    CacheParams params_;
    std::size_t sets_;
    std::size_t setMask_;
    unsigned setBits_;
    unsigned assoc_;
    /** Fingerprint words per set (one per 8 ways). */
    unsigned fpWords_;
    /** Lane mask of a set's last fingerprint word: its real ways. */
    std::uint64_t lastLanes_;
    /** LRU clock: 64 bits, so it cannot wrap within any run. */
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> tags_;
    /** Last-use stamps; 0 marks a way never filled since reset. */
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> prefetched_;
    std::vector<std::uint64_t> fps_;
    std::vector<Stream> streams_;
    std::size_t streamVictim_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetchHits_ = 0;
    std::uint64_t prefetchIssued_ = 0;
};

} // namespace pact

#endif // PACT_SIM_CACHE_HH
