/**
 * @file
 * LLC model tests: hit/miss behaviour, LRU replacement, stream
 * prefetcher training and prefetch-hit accounting, plus a differential
 * check of the fingerprinted tag store against a plain reference
 * model and reset-equals-fresh.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hh"

#include "sim/cache.hh"

using namespace pact;

/**
 * Assert @p stmt throws @p kind with @p substr somewhere in what().
 * (The throw-based replacement for the old EXPECT_EXIT death tests.)
 */
#define EXPECT_THROW_KIND(kind, stmt, substr)                          \
    do {                                                               \
        try {                                                          \
            stmt;                                                      \
            FAIL() << "expected " #kind;                               \
        } catch (const kind &e_) {                                     \
            EXPECT_NE(std::string(e_.what()).find(substr),             \
                      std::string::npos)                               \
                << e_.what();                                          \
        }                                                              \
    } while (0)

namespace
{

CacheParams
smallCache(bool prefetch = false)
{
    CacheParams p;
    p.sizeBytes = 64 * LineBytes * 8; // 64 sets x 8 ways
    p.assoc = 8;
    p.prefetch = prefetch;
    return p;
}

/**
 * Reference LLC: an array of way structs scanned until the first
 * match, with the same set hash, victim rule and stream prefetcher as
 * Cache.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p) : params_(p)
    {
        sets_ = p.sizeBytes / LineBytes / p.assoc;
        while (sets_ & (sets_ - 1))
            sets_ &= sets_ - 1;
        ways_.assign(sets_ * p.assoc, Way{});
        streams_.assign(p.prefetchStreams, Stream{});
    }

    CacheResult
    access(Addr vaddr)
    {
        const std::uint64_t line = vaddr >> LineShift;
        CacheResult res;
        bool was = false;
        res.hit = lookupFill(line, false, was);
        res.prefetched = was;
        if (res.hit) {
            hits_++;
            prefetchHits_ += was;
        } else {
            misses_++;
            if (params_.prefetch)
                train(line, res);
        }
        return res;
    }

    void
    installPrefetches(std::uint64_t line, std::uint32_t count)
    {
        bool dummy = false;
        for (std::uint32_t i = 0; i < count; i++) {
            lookupFill(line + i, true, dummy);
            prefetchIssued_++;
        }
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t prefetchHits() const { return prefetchHits_; }
    std::uint64_t prefetchIssued() const { return prefetchIssued_; }

    std::uint64_t clock = 0;

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool prefetched = false;
    };
    struct Stream
    {
        std::uint64_t nextLine = 0;
        std::uint32_t confidence = 0;
        bool valid = false;
    };

    bool
    lookupFill(std::uint64_t line, bool prefetch_fill, bool &was)
    {
        std::uint64_t x = line;
        x ^= x >> 17;
        x *= 0xed5ad4bbu;
        x ^= x >> 11;
        Way *base = &ways_[(x & (sets_ - 1)) * params_.assoc];
        clock++;
        for (unsigned w = 0; w < params_.assoc; w++) {
            if (base[w].valid && base[w].tag == line) {
                was = base[w].prefetched;
                base[w].prefetched = false;
                base[w].stamp = clock;
                return true;
            }
        }
        Way *victim = base;
        for (unsigned w = 0; w < params_.assoc; w++) {
            Way &way = base[w];
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.stamp < victim->stamp)
                victim = &way;
        }
        *victim = Way{line, clock, true, prefetch_fill};
        was = false;
        return false;
    }

    void
    train(std::uint64_t line, CacheResult &res)
    {
        for (auto &s : streams_) {
            if (s.valid && line == s.nextLine) {
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
        Stream &s = streams_[victim_];
        victim_ = (victim_ + 1) % streams_.size();
        s = Stream{line + 1, 0, true};
    }

    CacheParams params_;
    std::size_t sets_;
    std::vector<Way> ways_;
    std::vector<Stream> streams_;
    std::size_t victim_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetchHits_ = 0;
    std::uint64_t prefetchIssued_ = 0;
};

/** Seeded address stream: random lines, or runs of sequential lines
 *  broken by random jumps (which trains the prefetcher). */
std::vector<Addr>
addressStream(std::uint64_t seed, bool sequential, std::size_t n,
              std::uint64_t footprint_lines)
{
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<Addr> out;
    out.reserve(n);
    std::uint64_t line = 0;
    for (std::size_t i = 0; i < n; i++) {
        if (!sequential || next() % 16 == 0)
            line = next() % footprint_lines;
        else
            line++;
        out.push_back(line * LineBytes + next() % LineBytes);
    }
    return out;
}

bool
sameResult(const CacheResult &a, const CacheResult &b)
{
    return a.hit == b.hit && a.prefetched == b.prefetched &&
           a.prefetchLines == b.prefetchLines &&
           a.prefetchStart == b.prefetchStart;
}

/** Replay @p addrs through two models the way the CPU drives them
 *  (each reported burst is installed right after its access) and
 *  expect identical results and counters. */
template <typename Other>
void
expectSameReplay(Cache &c, Other &other, const std::vector<Addr> &addrs)
{
    for (std::size_t i = 0; i < addrs.size(); i++) {
        const CacheResult a = c.access(addrs[i]);
        const CacheResult b = other.access(addrs[i]);
        ASSERT_TRUE(sameResult(a, b)) << "access " << i;
        if (a.prefetchLines > 0) {
            c.installPrefetches(a.prefetchStart, a.prefetchLines);
            other.installPrefetches(b.prefetchStart, b.prefetchLines);
        }
    }
    EXPECT_EQ(c.hits(), other.hits());
    EXPECT_EQ(c.misses(), other.misses());
    EXPECT_EQ(c.prefetchHits(), other.prefetchHits());
    EXPECT_EQ(c.prefetchIssued(), other.prefetchIssued());
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000).hit);
    EXPECT_TRUE(c.access(0x1000).hit);
    EXPECT_TRUE(c.access(0x1020).hit); // same 64B line
    EXPECT_FALSE(c.access(0x1040).hit); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, GeometryRounded)
{
    Cache c(smallCache());
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.assoc(), 8u);
    // Non-power-of-two set counts round down.
    CacheParams p;
    p.sizeBytes = 100 * LineBytes * 4;
    p.assoc = 4;
    Cache c2(p);
    EXPECT_EQ(c2.sets(), 64u);
}

TEST(Cache, LruEvictsOldest)
{
    CacheParams p;
    p.sizeBytes = LineBytes * 2; // 1 set x 2 ways
    p.assoc = 2;
    p.prefetch = false;
    Cache c(p);
    ASSERT_EQ(c.sets(), 1u);
    c.access(0 * LineBytes);
    c.access(1 * LineBytes);
    c.access(0 * LineBytes);      // refresh line 0
    c.access(2 * LineBytes);      // evicts line 1 (LRU)
    EXPECT_TRUE(c.access(0 * LineBytes).hit);
    EXPECT_FALSE(c.access(1 * LineBytes).hit);
}

TEST(Cache, WorkingSetLargerThanCacheMisses)
{
    Cache c(smallCache());
    const std::uint64_t lines = 64 * 8 * 4; // 4x capacity
    for (int pass = 0; pass < 2; pass++) {
        for (std::uint64_t l = 0; l < lines; l++)
            c.access(l * LineBytes);
    }
    // Streaming over 4x capacity cannot hit (with LRU and no reuse).
    EXPECT_GT(c.misses(), c.hits());
}

TEST(Cache, PrefetcherTrainsOnSequentialStream)
{
    Cache c(smallCache(true));
    CacheResult r;
    std::uint32_t bursts = 0;
    for (std::uint64_t l = 0; l < 64; l++) {
        r = c.access(l * LineBytes);
        if (r.prefetchLines > 0) {
            bursts++;
            c.installPrefetches(r.prefetchStart, r.prefetchLines);
        }
    }
    EXPECT_GT(bursts, 0u);
    EXPECT_GT(c.prefetchHits(), 0u);
    // Steady state: most stream accesses hit.
    EXPECT_GT(c.hits(), c.misses());
}

TEST(Cache, NoPrefetchOnRandomAccesses)
{
    Cache c(smallCache(true));
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t bursts = 0;
    for (int i = 0; i < 2000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const CacheResult r = c.access((x % 100000) * LineBytes);
        bursts += r.prefetchLines > 0;
    }
    // Random misses rarely line up into trained streams.
    EXPECT_LT(bursts, 20u);
}

TEST(Cache, PrefetchedFlagClearsOnDemandHit)
{
    Cache c(smallCache(true));
    c.installPrefetches(100, 1);
    const CacheResult first = c.access(100 * LineBytes);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.prefetched);
    const CacheResult second = c.access(100 * LineBytes);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.prefetched);
    EXPECT_EQ(c.prefetchHits(), 1u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(smallCache());
    c.access(0x1000);
    c.reset();
    EXPECT_FALSE(c.access(0x1000).hit);
}

TEST(Cache, MatchesReferenceModel)
{
    // Non-power-of-two and >8 associativities span several
    // fingerprint words, the last one partly padding.
    for (const unsigned assoc : {1u, 2u, 3u, 4u, 8u, 12u, 16u, 32u}) {
        for (const bool prefetch : {false, true}) {
            // 64 sets exactly, and 100 sets' worth rounded down to 64.
            for (const std::uint64_t sets : {64ull, 100ull}) {
                for (const bool sequential : {false, true}) {
                    CacheParams p;
                    p.sizeBytes = sets * assoc * LineBytes;
                    p.assoc = assoc;
                    p.prefetch = prefetch;
                    SCOPED_TRACE(testing::Message()
                                 << "assoc " << assoc << " prefetch "
                                 << prefetch << " sets " << sets
                                 << " sequential " << sequential);
                    Cache c(p);
                    RefCache ref(p);
                    ASSERT_EQ(c.sets(), 64u);
                    // Footprint 4x capacity: hits, misses and
                    // evictions all occur.
                    expectSameReplay(
                        c, ref,
                        addressStream(assoc * 7 + sets + sequential,
                                      sequential, 20000,
                                      4 * 64 * assoc));
                }
            }
        }
    }
}

TEST(Cache, ResetEqualsFreshCache)
{
    CacheParams p = smallCache(true);
    p.assoc = 12; // two fingerprint words per set
    p.sizeBytes = 64 * 12 * LineBytes;
    Cache used(p);
    Cache scratch(p);
    // Warm `used` (a seeded stream, bursts installed), then reset it.
    expectSameReplay(used, scratch,
                     addressStream(1, true, 20000, 4 * 64 * 12));
    used.reset();
    EXPECT_EQ(used.hits() + used.misses() + used.prefetchHits() +
                  used.prefetchIssued(),
              0u);
    Cache fresh(p);
    expectSameReplay(used, fresh,
                     addressStream(2, true, 20000, 4 * 64 * 12));
}

TEST(Cache, ResetRestartsStreamAllocation)
{
    // Two streams that expect the same line: the lower-numbered slot
    // matches first, so which slot each stream got is observable.
    CacheParams p = smallCache(true);
    p.prefetchStreams = 2;
    const std::vector<Addr> probe = {
        100 * LineBytes, 101 * LineBytes, 102 * LineBytes, // trained
        106 * LineBytes, // new stream also expecting line 107
        107 * LineBytes, // the trained stream must win: a burst
    };
    Cache fresh(p);
    std::vector<CacheResult> want;
    for (const Addr a : probe)
        want.push_back(fresh.access(a));
    ASSERT_GT(want.back().prefetchLines, 0u);

    Cache used(p);
    used.access(5000 * LineBytes); // occupies stream slot 0
    used.reset();
    for (std::size_t i = 0; i < probe.size(); i++)
        EXPECT_TRUE(sameResult(used.access(probe[i]), want[i])) << i;
}

TEST(CacheDeath, ZeroAssocThrows)
{
    CacheParams p;
    p.assoc = 0;
    EXPECT_THROW_KIND(ConfigError, { Cache c(p); },
                "associativity");
}
