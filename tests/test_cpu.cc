/**
 * @file
 * CPU timing-model tests: dependence serialization, MLP overlap, TOR
 * counter semantics, ROB/MSHR hazards, hint faults, spans, retire
 * width — the mechanisms PAC's Equation 1 is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/addr_space.hh"
#include "sim/cpu.hh"

using namespace pact;

namespace
{

/** Minimal single-CPU harness around the memory system. */
struct CpuHarness
{
    explicit CpuHarness(std::uint64_t fast_pages = 0,
                        std::uint64_t footprint_mb = 8)
    {
        cfg.fastCapacityPages = fast_pages;
        // A tiny cache so distinct lines always miss.
        cfg.cache.sizeBytes = 16 * LineBytes * 4;
        cfg.cache.assoc = 4;
        cfg.cache.prefetch = false;
        base = as.alloc(0, "buf", footprint_mb << 20);

        tm = std::make_unique<TierManager>(as.totalPages(),
                                           cfg.fastCapacityPages);
        lru = std::make_unique<LruLists>(as.totalPages());
        cache = std::make_unique<Cache>(cfg.cache);
        fast = std::make_unique<Tier>(TierId::Fast, cfg.fast);
        slow = std::make_unique<Tier>(TierId::Slow, cfg.slow);
        pebs = std::make_unique<PebsSampler>(cfg.pebs);
        huge.assign(as.totalPages(), 0);
    }

    /** Build the CPU after the trace is final. */
    Cpu &
    cpu(AccessListener *listener = nullptr)
    {
        cpu_ = std::make_unique<Cpu>(
            cfg, trace, *cache,
            std::array<Tier *, NumTiers>{fast.get(), slow.get()}, *tm,
            *lru, pmu, *pebs, huge, listener);
        return *cpu_;
    }

    /** Run to completion; returns final cycle. */
    Cycles
    runAll()
    {
        Cpu &c = cpu_ ? *cpu_ : cpu();
        while (c.run(c.cycle() + 1000000)) {
        }
        return c.cycle();
    }

    SimConfig cfg;
    AddrSpace as;
    Addr base = 0;
    Trace trace;
    Pmu pmu;
    std::unique_ptr<TierManager> tm;
    std::unique_ptr<LruLists> lru;
    std::unique_ptr<Cache> cache;
    std::unique_ptr<Tier> fast;
    std::unique_ptr<Tier> slow;
    std::unique_ptr<PebsSampler> pebs;
    std::vector<std::uint8_t> huge;
    std::unique_ptr<Cpu> cpu_;
};

constexpr Cycles SlowLat = 418; // 190ns at 2.2GHz

} // namespace

TEST(Cpu, PointerChaseExposesFullLatency)
{
    CpuHarness h;
    const int n = 1000;
    for (int i = 0; i < n; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes, true);
    const Cycles cycles = h.runAll();
    // Each dependent miss pays the full slow latency.
    EXPECT_GT(cycles, n * (SlowLat - 10));
    const double perMiss =
        static_cast<double>(h.pmu.stallCycles[1]) / n;
    EXPECT_NEAR(perMiss, SlowLat, 10.0);
}

TEST(Cpu, IndependentMissesOverlap)
{
    CpuHarness h;
    const int n = 1000;
    for (int i = 0; i < n; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    const Cycles cycles = h.runAll();
    // With 16 MSHRs, throughput is bandwidth/MSHR-limited, far below
    // the serialized bound.
    EXPECT_LT(cycles, n * SlowLat / 8);
    EXPECT_LT(h.pmu.stallCycles[1], static_cast<Cycles>(n) * SlowLat / 8);
}

TEST(Cpu, TorMlpIsOneForChase)
{
    CpuHarness h;
    for (int i = 0; i < 500; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes, true);
    h.runAll();
    const double mlp = Pmu::mlp(h.pmu.torOccupancy[1], h.pmu.torBusy[1]);
    EXPECT_NEAR(mlp, 1.0, 0.05);
}

TEST(Cpu, TorMlpNearMshrsForIndependent)
{
    CpuHarness h;
    for (int i = 0; i < 4000; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    const double mlp = Pmu::mlp(h.pmu.torOccupancy[1], h.pmu.torBusy[1]);
    EXPECT_GT(mlp, 10.0);
    EXPECT_LE(mlp, 16.5);
}

TEST(Cpu, TorBusyExactAboveSixtyFourMshrs)
{
    // Regression: the former interval-union accounting silently capped
    // each window at 64 intervals per tier, undercounting tor_busy
    // whenever mshrs > 64. The event-driven sweep has no such cap.
    //
    // 96 independent misses through a tier serialized at 100
    // cycles/line with 418-cycle latency occupy [100*i, 100*i + 418):
    // consecutive intervals overlap (418 > 100), so the union is one
    // contiguous span [0, 100*95 + 418) and every counter is exact.
    CpuHarness h;
    h.cfg.cpu.mshrs = 96;
    h.cfg.slow.serviceCycles = 100.0;
    h.slow = std::make_unique<Tier>(TierId::Slow, h.cfg.slow);
    for (int i = 0; i < 96; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    EXPECT_EQ(h.pmu.llcMisses[1], 96u);
    EXPECT_EQ(h.pmu.torOccupancy[1], 96u * SlowLat);
    EXPECT_EQ(h.pmu.torBusy[1], 100u * 95 + SlowLat);
}

TEST(Cpu, TorBusyNeverExceedsOccupancy)
{
    CpuHarness h;
    for (int i = 0; i < 1000; i++) {
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes,
                     i % 3 == 0);
    }
    h.runAll();
    for (unsigned t = 0; t < NumTiers; t++)
        EXPECT_LE(h.pmu.torBusy[t], h.pmu.torOccupancy[t]);
}

TEST(Cpu, DependentOnHitDoesNotStall)
{
    CpuHarness h;
    // Warm one line, then chase through it repeatedly: hits cost ~0.
    h.trace.load(h.base);
    for (int i = 0; i < 400; i++)
        h.trace.load(h.base + 8, true); // same line, dependent
    const Cycles cycles = h.runAll();
    EXPECT_LT(cycles, SlowLat + 400);
    EXPECT_EQ(h.pmu.llcHits, 400u);
}

TEST(Cpu, RobLimitsRunahead)
{
    CpuHarness h;
    h.cfg.cpu.robOps = 8;
    h.cfg.cpu.mshrs = 64;
    const int n = 1000;
    for (int i = 0; i < n; i++) {
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
        h.trace.compute(1);
    }
    const Cycles small = h.runAll();

    CpuHarness wide;
    wide.cfg.cpu.robOps = 512;
    wide.cfg.cpu.mshrs = 64;
    for (int i = 0; i < n; i++) {
        wide.trace.load(wide.base + static_cast<Addr>(i) * 8 * LineBytes);
        wide.trace.compute(1);
    }
    const Cycles big = wide.runAll();
    EXPECT_GT(small, big + big / 4);
}

TEST(Cpu, GapCyclesCountAsCompute)
{
    CpuHarness h;
    h.trace.compute(10000);
    const Cycles cycles = h.runAll();
    EXPECT_GE(cycles, 10000u);
    EXPECT_EQ(h.pmu.computeCycles, 10000u);
    EXPECT_EQ(h.pmu.stallCycles[0] + h.pmu.stallCycles[1], 0u);
}

TEST(Cpu, RetireWidthFloorsThroughput)
{
    CpuHarness h;
    // 4000 zero-gap marker nops: 4-wide retire -> >= 1000 cycles.
    for (int i = 0; i < 4000; i++)
        h.trace.ops.push_back(TraceOp::make(0, OpKind::Nop, false, 0));
    const Cycles cycles = h.runAll();
    EXPECT_GE(cycles, 1000u);
    EXPECT_LT(cycles, 1100u);
}

namespace
{

struct FaultRecorder : AccessListener
{
    void
    onHintFault(PageId page, ProcId proc) override
    {
        pages.push_back(page);
        procs.push_back(proc);
    }
    std::vector<PageId> pages;
    std::vector<ProcId> procs;
};

} // namespace

TEST(Cpu, HintFaultTrapsOnceAndCharges)
{
    CpuHarness h;
    h.trace.load(h.base);
    h.trace.load(h.base); // second access: hit, no fault (disarmed)
    FaultRecorder rec;
    Cpu &c = h.cpu(&rec);
    // Materialize the page first so we can arm it.
    h.tm->touch(pageOf(h.base), 0, false);
    h.tm->meta(pageOf(h.base)).flags |= PageFlags::HintArmed;
    while (c.run(c.cycle() + 100000)) {
    }
    ASSERT_EQ(rec.pages.size(), 1u);
    EXPECT_EQ(rec.pages[0], pageOf(h.base));
    EXPECT_EQ(h.pmu.hintFaults, 1u);
    EXPECT_GE(c.penaltyCycles(), h.cfg.cpu.hintFaultCycles);
}

TEST(Cpu, SpansMeasureLatency)
{
    CpuHarness h;
    h.trace.markBegin(7);
    for (int i = 0; i < 10; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes, true);
    h.trace.markEnd();
    h.trace.markBegin(8);
    h.trace.markEnd();
    Cpu &c = h.cpu();
    h.runAll();
    ASSERT_EQ(c.spans().size(), 2u);
    EXPECT_EQ(c.spans()[0].first, 7u);
    // The span ends when the last load issues: 9 dependent
    // waits of a full slow-tier latency each.
    EXPECT_GT(c.spans()[0].second, 9 * (SlowLat - 20));
    EXPECT_EQ(c.spans()[1].first, 8u);
    EXPECT_LT(c.spans()[1].second, 10u);
}

TEST(Cpu, SpansExceedUint32WithoutWrapping)
{
    CpuHarness h;
    // Two 3G-cycle compute blocks inside one span: the measured
    // length crosses 2^32 cycles and must not truncate (span cycles
    // were once 32-bit and long service spans silently wrapped).
    const std::uint64_t big = 3'000'000'000ull;
    h.trace.markBegin(3);
    h.trace.compute(big);
    h.trace.compute(big);
    h.trace.markEnd();
    Cpu &c = h.cpu();
    h.runAll();
    ASSERT_EQ(c.spans().size(), 1u);
    EXPECT_EQ(c.spans()[0].first, 3u);
    EXPECT_GT(c.spans()[0].second, std::uint64_t{0xffffffffu});
    EXPECT_GE(c.spans()[0].second, 2 * big);
}

TEST(Cpu, PebsSeesSlowLoadMisses)
{
    CpuHarness h;
    h.cfg.pebs.rate = 1;
    h.pebs = std::make_unique<PebsSampler>(h.cfg.pebs);
    const int n = 100;
    for (int i = 0; i < n; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    const auto records = h.pebs->drain();
    EXPECT_EQ(records.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(records[0].tier, TierId::Slow);
    EXPECT_GE(records[0].latency, SlowLat - 10);
}

TEST(Cpu, StoresAreNotPebsSampled)
{
    CpuHarness h;
    h.cfg.pebs.rate = 1;
    h.pebs = std::make_unique<PebsSampler>(h.cfg.pebs);
    for (int i = 0; i < 50; i++)
        h.trace.store(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    h.runAll();
    EXPECT_TRUE(h.pebs->drain().empty());
    EXPECT_EQ(h.pmu.llcMisses[1], 50u);
    EXPECT_EQ(h.pmu.llcLoadMisses[1], 0u);
}

TEST(Cpu, FirstTouchGoesThroughTierManager)
{
    CpuHarness h(4); // 4 fast pages
    for (int i = 0; i < 8; i++)
        h.trace.load(h.base + static_cast<Addr>(i) * PageBytes);
    h.runAll();
    EXPECT_EQ(h.tm->used(TierId::Fast), 4u);
    EXPECT_EQ(h.tm->used(TierId::Slow), 4u);
    EXPECT_TRUE(h.lru->tracked(pageOf(h.base), *h.tm));
}

TEST(Cpu, DeterministicReplay)
{
    auto once = [] {
        CpuHarness h;
        for (int i = 0; i < 2000; i++) {
            h.trace.load(h.base + static_cast<Addr>(i * 37 % 1000) *
                                      LineBytes * 8,
                         i % 5 == 0);
        }
        h.runAll();
        return std::pair(h.cpu_->cycle(), h.pmu.stallCycles[1]);
    };
    EXPECT_EQ(once(), once());
}

TEST(Cpu, DrainCompletesOutstanding)
{
    CpuHarness h;
    h.trace.load(h.base);
    Cpu &c = h.cpu();
    h.runAll();
    // After the run the TOR busy time covers the full miss latency.
    EXPECT_GE(h.pmu.torBusy[1], SlowLat - 10);
    EXPECT_TRUE(c.done());
}

TEST(Cpu, LoopingTraceRestarts)
{
    CpuHarness h;
    h.trace.loop = true;
    h.trace.load(h.base);
    Cpu &c = h.cpu();
    EXPECT_TRUE(c.run(100000));
    EXPECT_FALSE(c.done());
    EXPECT_GT(c.retired(), 10u);
}

namespace
{

/** Every Pmu field, in declaration order. */
std::vector<std::uint64_t>
pmuFields(const Pmu &p)
{
    std::vector<std::uint64_t> f = {p.instructions, p.llcHits,
                                    p.computeCycles, p.hintFaults,
                                    p.prefetches};
    for (unsigned t = 0; t < NumTiers; t++) {
        f.insert(f.end(), {p.llcLoadMisses[t], p.llcMisses[t],
                           p.torOccupancy[t], p.torBusy[t],
                           p.stallCycles[t]});
    }
    return f;
}

/** Outcome of one replay: clock, counters and spans. */
struct StepResult
{
    Cycles cycle;
    std::vector<std::uint64_t> pmu;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> spans;

    bool
    operator==(const StepResult &o) const
    {
        return cycle == o.cycle && pmu == o.pmu && spans == o.spans;
    }
};

/**
 * Replay one mixed trace (dependent and independent loads, stores,
 * hot-line hits, prefetch streams, gaps, a BigGap, spans) over both
 * tiers with bandwidth queuing, stepping run() by @p step cycles
 * (0 = one call per phase) with a zero penalty between steps. Fixed
 * cycle marks apply a penalty, a drain and, when @p round_trip, a
 * checkpoint / speculative run-ahead on private copies / restore.
 * Stepping stops at the first op boundary at or past a mark however
 * it is reached, so every schedule acts at the same points.
 */
StepResult
replayStepped(Cycles step, bool round_trip)
{
    CpuHarness h(256, 4);
    h.cfg.cache.prefetch = true;
    // Slow service slower than the issue rate: queued starts.
    h.cfg.slow.serviceCycles = 40.0;
    h.cache = std::make_unique<Cache>(h.cfg.cache);
    h.slow = std::make_unique<Tier>(TierId::Slow, h.cfg.slow);
    // Place every page up front, so the run-ahead below cannot change
    // placement for the real run.
    for (PageId p = 0; p < h.as.totalPages(); p++)
        h.tm->touch(p, 0, false);

    std::uint64_t x = 12345;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const std::uint64_t lines = (4ull << 20) / LineBytes;
    std::uint64_t seq = 0;
    for (int i = 0; i < 20000; i++) {
        if (i % 1000 == 0)
            h.trace.markBegin(static_cast<std::uint32_t>(i / 1000));
        const std::uint64_t r = next() % 100;
        const auto gap = static_cast<std::uint32_t>(next() % 8);
        if (r < 40) {
            h.trace.load(h.base + (next() % lines) * LineBytes, r < 10,
                         gap);
        } else if (r < 55) {
            h.trace.store(h.base + (next() % lines) * LineBytes, gap);
        } else if (r < 75) {
            h.trace.load(h.base + (next() % 4) * LineBytes, false, gap);
        } else if (r < 95) {
            h.trace.load(h.base + (seq++ % lines) * LineBytes, false, gap);
        } else {
            h.trace.compute(static_cast<std::uint32_t>(next() % 64));
        }
        if (i == 10000)
            h.trace.compute(50000); // one BigGap op
        if (i % 1000 == 999)
            h.trace.markEnd();
    }

    Cpu &c = h.cpu();
    auto runTo = [&](Cycles mark) {
        if (step == 0) {
            c.run(mark);
            return;
        }
        while (c.cycle() < mark && !c.done()) {
            c.run(std::min(mark, c.cycle() + step));
            c.addPenalty(0);
        }
    };
    runTo(150000);
    c.addPenalty(3000);
    runTo(300000);
    c.drainInflight();
    runTo(450000);
    if (round_trip) {
        const Cpu::Checkpoint ck = c.checkpoint();
        Cache cache = *h.cache;
        Tier fast = *h.fast;
        Tier slow = *h.slow;
        Pmu scratch;
        c.redirect(&cache, {&fast, &slow}, &scratch);
        c.run(c.cycle() + 50000);
        c.redirect(h.cache.get(), {h.fast.get(), h.slow.get()}, &h.pmu);
        c.restore(ck);
    }
    runTo(~Cycles{0});
    EXPECT_TRUE(c.done());
    return {c.cycle(), pmuFields(h.pmu), c.spans()};
}

} // namespace

TEST(Cpu, TorCountersCurrentAtEveryReturn)
{
    // One slow miss over [0, SlowLat), then compute: T1 and T2 must
    // read exactly the cycles it has been outstanding each time run()
    // hands control back, even while no TOR event has occurred since.
    for (const Cycles step : {Cycles{1}, Cycles{7}, Cycles{100}}) {
        CpuHarness h;
        h.trace.load(h.base);
        for (int i = 0; i < 200; i++)
            h.trace.compute(3);
        Cpu &c = h.cpu();
        while (c.cycle() < SlowLat + 50) {
            c.run(c.cycle() + step);
            const Cycles want = std::min(c.cycle(), SlowLat);
            ASSERT_EQ(h.pmu.torBusy[1], want) << "step " << step;
            ASSERT_EQ(h.pmu.torOccupancy[1], want) << "step " << step;
        }
    }
}

TEST(Cpu, RestoreRewindsPendingEvents)
{
    // Checkpoint with 16 misses in flight, run the copy to the end on
    // private structures, restore, and finish: the real run must match
    // one that never speculated, so restore has to rewind the TOR event
    // state along with the heaps.
    auto build = [](CpuHarness &h) {
        for (int i = 0; i < 16; i++)
            h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
        h.trace.compute(2000);
        for (int i = 16; i < 32; i++)
            h.trace.load(h.base + static_cast<Addr>(i) * 8 * LineBytes);
    };
    CpuHarness plain;
    build(plain);
    plain.runAll();

    CpuHarness h;
    build(h);
    Cpu &c = h.cpu();
    c.run(2);
    const Cpu::Checkpoint ck = c.checkpoint();
    ASSERT_FALSE(ck.missHeap.empty());
    Cache cache = *h.cache;
    Tier fast = *h.fast;
    Tier slow = *h.slow;
    Pmu scratch;
    c.redirect(&cache, {&fast, &slow}, &scratch);
    while (c.run(c.cycle() + 1000)) {
    }
    c.redirect(h.cache.get(), {h.fast.get(), h.slow.get()}, &h.pmu);
    c.restore(ck);
    h.runAll();
    EXPECT_EQ(c.cycle(), plain.cpu_->cycle());
    EXPECT_EQ(pmuFields(h.pmu), pmuFields(plain.pmu));
}

TEST(Cpu, StepGranularityDoesNotChangeCounters)
{
    const StepResult once = replayStepped(0, false);
    // The marks must fall inside the run for the schedule to matter.
    ASSERT_GT(once.cycle, 550000u);
    EXPECT_GT(once.pmu[12], 0u) << "slow-tier TOR occupancy";
    for (const Cycles step : {Cycles{1}, Cycles{7}, Cycles{100000}}) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        EXPECT_TRUE(replayStepped(step, false) == once);
        EXPECT_TRUE(replayStepped(step, true) == once);
    }
    EXPECT_TRUE(replayStepped(0, true) == once);
}
