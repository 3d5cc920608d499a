#include "sim/parallel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/engine.hh"

namespace pact
{

namespace
{

/** Per-core op-log cap per window (~40MB at 1M records). Overflow
 *  aborts the window — a memory valve, not a correctness limit. */
constexpr std::size_t kOpCapPerCore = 1u << 20;

} // namespace

ParallelExec::ParallelExec(Engine &eng, unsigned threads)
    : eng_(eng), threads_(std::max(1u, threads)), pool_(threads_),
      snapCache_(eng.cfg_.cache),
      snapFast_(TierId::Fast, eng.cfg_.fast),
      snapSlow_(TierId::Slow, eng.cfg_.slow)
{
    cores_.reserve(eng_.cpus_.size());
    for (std::size_t i = 0; i < eng_.cpus_.size(); i++) {
        cores_.push_back(std::make_unique<CoreCtx>(
            eng_.cfg_.cache, eng_.cfg_.fast, eng_.cfg_.slow));
    }
}

ParallelExec::~ParallelExec() = default;

void
ParallelExec::ensureOwnership(std::uint64_t pages)
{
    if (pages <= ownPages_)
        return;
    // Claims are epoch-tagged, so dropping the old array (instead of
    // copying stale tags) changes nothing.
    own_ = std::make_unique<std::atomic<std::uint64_t>[]>(pages);
    for (std::uint64_t p = 0; p < pages; p++)
        own_[p].store(0, std::memory_order_relaxed);
    ownPages_ = pages;
}

void
ParallelExec::runCore(std::size_t i, Cycles window_start, unsigned slices)
{
    CoreCtx &c = *cores_[i];
    Cpu &cpu = *eng_.cpus_[i];

    // Private copies of the contended structures. The sources are
    // read-only for the duration of the window (the engine thread
    // parks in pool wait), so concurrent copying is safe, and doing
    // it here parallelizes the copy cost itself.
    c.cache = eng_.cache_;
    c.fast = eng_.fastTier_;
    c.slow = eng_.slowTier_;
    c.pmu = Pmu{};

    cpu.redirect(&c.cache, {&c.fast, &c.slow}, &c.pmu);
    cpu.setSpec(&c.spec);
    for (unsigned s = 0; s < slices; s++) {
        if (c.spec.failed() || windowAbort_.load(std::memory_order_relaxed))
            break;
        cpu.run(window_start + static_cast<Cycles>(s + 1) * eng_.cfg_.slice);
        if (cpu.done() && !c.wasDone && c.spec.firstDoneSlice < 0)
            c.spec.firstDoneSlice = static_cast<int>(s);
        c.spec.sliceOpEnd.push_back(
            static_cast<std::uint32_t>(c.spec.ops.size()));
    }
    cpu.redirect(&eng_.cache_, {&eng_.fastTier_, &eng_.slowTier_},
                 &eng_.tenants_[eng_.tenantOf_[i]]->pmu);
    cpu.setSpec(nullptr);
    if (c.spec.failed())
        windowAbort_.store(true, std::memory_order_relaxed);
}

bool
ParallelExec::checkOverrun(unsigned slices) const
{
    // The serial engine checks run completion after every slice; a
    // window that kept simulating past the slice where the last
    // primary finished would advance shared clocks the serial run
    // never reaches. Commit only when the finish lands exactly on the
    // window's last slice (the engine's own check then fires).
    int lastSlice = -1;
    for (std::size_t i = 0; i < cores_.size(); i++) {
        if (eng_.traceOf_[i]->loop)
            continue;
        const CoreCtx &c = *cores_[i];
        if (c.wasDone)
            continue;
        if (c.spec.firstDoneSlice < 0)
            return true; // a primary is still running: no early stop
        lastSlice = std::max(lastSlice, c.spec.firstDoneSlice);
    }
    return lastSlice == static_cast<int>(slices) - 1;
}

bool
ParallelExec::checkProbes() const
{
    // A prefetch probe of a page another core claimed read a value
    // that may differ from what the serial interleaving would have
    // produced at that point; reject the window. Probes of pages the
    // probing core itself claimed are fine: program order within one
    // core matches the serial order exactly.
    for (std::size_t i = 0; i < cores_.size(); i++) {
        const SpecSession &sp = cores_[i]->spec;
        for (const PageId p : sp.probes) {
            const std::uint64_t w = own_[p].load(std::memory_order_relaxed);
            if ((w >> 8) == epoch_ && w != sp.ownTag())
                return false;
        }
    }
    return true;
}

bool
ParallelExec::replayValidate()
{
    // Pass A: replay every logged access against the true shared LLC
    // and tiers in the serial interleaving (slice-major, core-minor,
    // program order within a core) and validate each observable the
    // core acted on: hit/miss, prefetch burst length, and the tier
    // service start (completion is start + constant latency). By
    // induction, a fully validated replay means every core's
    // trajectory — and therefore the regenerated shared state,
    // including all stats, stamps, and stream state — is exactly what
    // the serial engine would have produced.
    Tier *tiers[NumTiers] = {&eng_.fastTier_, &eng_.slowTier_};
    for (unsigned s = 0;; s++) {
        bool any = false;
        for (std::size_t i = 0; i < cores_.size(); i++) {
            const SpecSession &sp = cores_[i]->spec;
            if (s >= sp.sliceOpEnd.size())
                continue;
            any = true;
            const std::uint32_t b = s == 0 ? 0 : sp.sliceOpEnd[s - 1];
            const std::uint32_t e = sp.sliceOpEnd[s];
            for (std::uint32_t k = b; k < e; k++) {
                const SpecOp &op = sp.ops[k];
                const CacheResult cr = eng_.cache_.access(op.vaddr);
                if (cr.hit != ((op.flags & SpecOpFlags::Hit) != 0))
                    return false;
                if (cr.prefetchLines != op.prefetchLines)
                    return false;
                if (op.flags & SpecOpFlags::PrefetchCharged) {
                    tiers[op.prefetchTier]->chargeLines(op.accessCycle,
                                                        op.prefetchLines);
                    eng_.cache_.installPrefetches(cr.prefetchStart,
                                                  op.prefetchLines);
                }
                if (!cr.hit) {
                    const TierAccess acc =
                        tiers[op.missTier]->access(op.ready);
                    if (acc.start != op.start)
                        return false;
                }
            }
        }
        if (!any)
            break;
    }
    return true;
}

void
ParallelExec::commit(unsigned slices, Cycles window_start)
{
    // Pass B (infallible, same serial order): the deferred shared
    // side effects. LRU splices land through insertCommitted (the
    // speculating core already published the flag bits); PEBS samples
    // re-fire with the logged arguments, reproducing the shared
    // sampling-counter walk, fault-RNG consumption, and journal
    // sequence of the serial run exactly.
    Tier *tiers[NumTiers] = {&eng_.fastTier_, &eng_.slowTier_};
    for (unsigned s = 0; s < slices; s++) {
        for (std::size_t i = 0; i < cores_.size(); i++) {
            const SpecSession &sp = cores_[i]->spec;
            const std::uint32_t b = s == 0 ? 0 : sp.sliceOpEnd[s - 1];
            const std::uint32_t e = sp.sliceOpEnd[s];
            PebsSampler &pebs = eng_.tenants_[eng_.tenantOf_[i]]->pebs;
            const ProcId proc = eng_.traceOf_[i]->proc;
            for (std::uint32_t k = b; k < e; k++) {
                const SpecOp &op = sp.ops[k];
                if (op.flags & SpecOpFlags::LruInsert) {
                    eng_.lru_.insertCommitted(
                        pageOf(op.vaddr),
                        static_cast<TierId>(op.lruTier), eng_.tm_);
                }
                if (!(op.flags & SpecOpFlags::Hit) &&
                    (op.flags & SpecOpFlags::Load)) {
                    const Cycles completion =
                        op.start + tiers[op.missTier]->latency();
                    pebs.onLoadMiss(
                        op.vaddr, static_cast<TierId>(op.missTier),
                        static_cast<std::uint32_t>(completion - op.ready),
                        proc, op.ready);
                }
            }
        }
    }

    std::uint64_t fast = 0, slow = 0, huge = 0;
    for (const auto &c : cores_) {
        fast += c->spec.fastTouches;
        slow += c->spec.slowTouches;
        huge += c->spec.hugeTouches;
        committedOps_ += c->spec.ops.size();
        // Speculating cores wrote page meta in place, bypassing the
        // TierManager's referenced-transition hooks. The undo log
        // holds each claimed page's pre-window meta; diff it against
        // the committed flags to fold the per-region referenced
        // counters exactly as the serial hooks would have.
        for (const auto &[page, pre] : c->spec.undo) {
            eng_.tm_.noteSpecFlags(page, pre.flags,
                                   eng_.tm_.meta(page).flags);
        }
    }
    eng_.tm_.adoptSpeculative(fast, slow, huge);

    for (std::size_t i = 0; i < cores_.size(); i++)
        addPmu(eng_.tenants_[eng_.tenantOf_[i]]->pmu, cores_[i]->pmu);

    eng_.now_ = window_start + static_cast<Cycles>(slices) * eng_.cfg_.slice;
    // Mirror the serial slice loop's trailing provenance stamp (last
    // core of the last slice): migrations fired before the next stamp
    // point — a policy finish() after run completion, say — attribute
    // identically to the serial run.
    eng_.currentTenant_ = eng_.tenantOf_[cores_.size() - 1];
    eng_.mig_.setJournalContext(
        window_start + static_cast<Cycles>(slices - 1) * eng_.cfg_.slice,
        eng_.currentTenant_, eng_.tenants_[eng_.currentTenant_]->ticks);
}

void
ParallelExec::rollback(bool shared_dirty)
{
    if (shared_dirty) {
        eng_.cache_ = snapCache_;
        eng_.fastTier_ = snapFast_;
        eng_.slowTier_ = snapSlow_;
    }
    // Claimed pages are disjoint across cores (a same-epoch collision
    // fails the claim, and failed claims record no undo), so restore
    // order doesn't matter.
    for (const auto &c : cores_) {
        for (const auto &[page, meta] : c->spec.undo)
            eng_.tm_.meta(page) = meta;
    }
    for (std::size_t i = 0; i < cores_.size(); i++)
        eng_.cpus_[i]->restore(cores_[i]->ckpt);
}

bool
ParallelExec::runWindow(unsigned slices)
{
    if (backoff_ > 0) {
        backoff_--;
        return false;
    }
    // Probation sizing: enter (and re-enter after any abort) with a
    // single-slice window and double back up on each commit. A full
    // daemon window can be >100 slices, and on interference-heavy
    // colocations validation fails within the first slice — probing
    // with one slice makes a doomed attempt cost ~1% of a full window
    // instead of a whole one, while friendly workloads ramp back to
    // full windows within a handful of commits.
    slices = std::min(slices, grant_);
    const std::size_t n = cores_.size();
    epoch_++;
    windowAbort_.store(false, std::memory_order_relaxed);
    ensureOwnership(eng_.tm_.totalPages());

    const Cycles windowStart = eng_.now_;
    const std::uint64_t freeFastStart = eng_.tm_.freeFast();
    const std::uint64_t budget = freeFastStart / n;

    for (std::size_t i = 0; i < n; i++) {
        CoreCtx &c = *cores_[i];
        c.ckpt = eng_.cpus_[i]->checkpoint();
        c.wasDone = eng_.cpus_[i]->done();
        c.spec.reset(&eng_.tm_, own_.get(), epoch_,
                     static_cast<unsigned>(i), freeFastStart, budget,
                     kOpCapPerCore);
        pool_.submit(
            [this, i, windowStart, slices] {
                runCore(i, windowStart, slices);
            });
    }
    pool_.wait();

    SpecAbort why = SpecAbort::None;
    for (const auto &c : cores_) {
        if (c->spec.failed()) {
            why = c->spec.abortReason();
            break;
        }
    }
    if (why == SpecAbort::None && !checkOverrun(slices))
        why = SpecAbort::Overrun;
    if (why == SpecAbort::None && !checkProbes())
        why = SpecAbort::ProbeConflict;

    bool sharedDirty = false;
    if (why == SpecAbort::None) {
        snapCache_ = eng_.cache_;
        snapFast_ = eng_.fastTier_;
        snapSlow_ = eng_.slowTier_;
        sharedDirty = true;
        if (!replayValidate())
            why = SpecAbort::Validation;
    }

    if (why != SpecAbort::None) {
        rollback(sharedDirty);
        aborts_++;
        abortCounts_[static_cast<unsigned>(why)]++;
        abortStreak_++;
        grant_ = 1;
        // Deterministic escalation: 0, 1, 3, 7, ... skipped windows,
        // doubling without a practical cap (the aborted window itself
        // re-runs serially regardless). Structural interference —
        // e.g. another core churning the shared stream-prefetcher
        // table — makes every retry fail the same way, so attempts
        // must thin out geometrically: an N-window run then wastes
        // only O(log N) single-slice probes in total.
        backoff_ =
            (1u << std::min(abortStreak_ - 1, 30u)) - 1u;
        return false;
    }

    commit(slices, windowStart);
    commits_++;
    abortStreak_ = 0;
    grant_ = std::min(grant_ * 2, 128u);
    return true;
}

} // namespace pact
