#include "sim/cpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/parallel.hh"

namespace pact
{

Cpu::Cpu(const SimConfig &cfg, const Trace &trace, Cache &cache,
         std::array<Tier *, NumTiers> tiers, TierManager &tm, LruLists &lru,
         Pmu &pmu, PebsSampler &pebs, const std::vector<std::uint8_t> &huge,
         AccessListener *listener, Chmu *chmu)
    : cfg_(cfg), trace_(trace), cache_(&cache), tiers_(tiers), tm_(tm),
      lru_(lru), pmu_(&pmu), pebs_(pebs), huge_(huge), listener_(listener),
      chmu_(chmu)
{
    missHeap_.reserve(cfg.cpu.mshrs + 1);
    pendingStarts_.reserve(cfg.cpu.mshrs + 1);
}

Cpu::Checkpoint
Cpu::checkpoint() const
{
    panic_if(torAccrued_ != cycle_,
             "Cpu checkpoint: taken inside run(), TOR not accrued");
    Checkpoint ck;
    ck.cycle = cycle_;
    ck.pos = pos_;
    ck.opIdx = opIdx_;
    ck.retired = retired_;
    ck.retireCredit = retireCredit_;
    ck.done = done_;
    ck.finishCycle = finishCycle_;
    ck.penaltyCycles = penaltyCycles_;
    ck.missHeap = missHeap_;
    ck.robFifo = robFifo_;
    ck.pendingStarts = pendingStarts_;
    ck.torCount = torCount_;
    ck.lastLoadValid = lastLoadValid_;
    ck.lastLoadCompletion = lastLoadCompletion_;
    ck.lastLoadTier = lastLoadTier_;
    ck.spanStack = spanStack_;
    ck.spansSize = spans_.size();
    return ck;
}

void
Cpu::restore(const Checkpoint &ck)
{
    cycle_ = ck.cycle;
    pos_ = ck.pos;
    opIdx_ = ck.opIdx;
    retired_ = ck.retired;
    retireCredit_ = ck.retireCredit;
    done_ = ck.done;
    finishCycle_ = ck.finishCycle;
    penaltyCycles_ = ck.penaltyCycles;
    missHeap_ = ck.missHeap;
    robFifo_ = ck.robFifo;
    pendingStarts_ = ck.pendingStarts;
    torCount_ = ck.torCount;
    lastLoadValid_ = ck.lastLoadValid;
    lastLoadCompletion_ = ck.lastLoadCompletion;
    lastLoadTier_ = ck.lastLoadTier;
    spanStack_ = ck.spanStack;
    panic_if(spans_.size() < ck.spansSize,
             "Cpu restore: spans shrank across a window");
    spans_.resize(ck.spansSize);
    // The snapshot was taken fully accrued and flushed; anything
    // pending now belongs to the abandoned future.
    torAccrued_ = cycle_;
    pending_ = Pmu{};
    refreshNextEvent();
}

/**
 * Accrue TOR occupancy/busy over [torAccrued_, c1), during which the
 * per-tier outstanding-miss counts are constant.
 */
void
Cpu::accrueTor(Cycles c1)
{
    const Cycles dt = c1 - torAccrued_;
    torAccrued_ = c1;
    for (unsigned t = 0; t < NumTiers; t++) {
        if (const std::uint32_t n = torCount_[t]) {
            pending_.torOccupancy[t] += static_cast<std::uint64_t>(n) * dt;
            pending_.torBusy[t] += dt;
        }
    }
}

void
Cpu::refreshNextEvent()
{
    const Cycles nextStart =
        pendingStarts_.empty() ? ~Cycles{0} : pendingStarts_.front().time;
    const Cycles nextComp =
        missHeap_.empty() ? ~Cycles{0} : missHeap_.front().completion;
    nextEvent_ = std::min(nextStart, nextComp);
}

void
Cpu::sweepTo(Cycles c1)
{
    // Apply every start/completion at or before c1 in time order,
    // accruing the constant-count segment that ends at each. A
    // boundary at exactly c1 flips the counts for what follows. A
    // completion's matching start is strictly earlier (latency is at
    // least one cycle), so counts never go transiently negative.
    while (nextEvent_ <= c1) {
        accrueTor(nextEvent_);
        if (!pendingStarts_.empty() &&
            pendingStarts_.front().time == nextEvent_) {
            torCount_[pendingStarts_.front().tier]++;
            std::pop_heap(pendingStarts_.begin(), pendingStarts_.end(),
                          startAfter);
            pendingStarts_.pop_back();
        } else {
            torCount_[tierIndex(missHeap_.front().tier)]--;
            std::pop_heap(missHeap_.begin(), missHeap_.end(), missAfter);
            missHeap_.pop_back();
        }
        refreshNextEvent();
    }
    cycle_ = c1;
}

void
Cpu::flushPmu()
{
    accrueTor(cycle_);
    addPmu(*pmu_, pending_);
    pending_ = Pmu{};
}

void
Cpu::waitFor(Cycles completion, TierId tier)
{
    if (completion > cycle_) {
        pending_.stallCycles[tierIndex(tier)] += completion - cycle_;
        advanceTo(completion);
    }
}

void
Cpu::addPenalty(Cycles c)
{
    penaltyCycles_ += c;
    advanceTo(cycle_ + c);
    flushPmu();
}

void
Cpu::drainInflight()
{
    Cycles maxc = cycle_;
    for (const Miss &m : missHeap_)
        maxc = std::max(maxc, m.completion);
    advanceTo(maxc);
    flushPmu();
}

void
Cpu::insertMiss(Cycles start, Cycles completion, TierId tier)
{
    missHeap_.push_back({completion, opIdx_, tier});
    std::push_heap(missHeap_.begin(), missHeap_.end(), missAfter);
    robFifo_.push_back({completion, opIdx_, tier});
    nextEvent_ = std::min(nextEvent_, completion);
    // start >= cycle_ always (tiers never backdate service). Service
    // beginning right now occupies the TOR immediately; a
    // bandwidth-queued start waits for the sweep to reach it.
    if (start == cycle_) {
        accrueTor(cycle_);
        torCount_[tierIndex(tier)]++;
    } else {
        pendingStarts_.push_back(
            {start, static_cast<std::uint8_t>(tierIndex(tier))});
        std::push_heap(pendingStarts_.begin(), pendingStarts_.end(),
                       startAfter);
        nextEvent_ = std::min(nextEvent_, start);
    }
}

void
Cpu::doAccess(const TraceOp &op)
{
    if (spec_) {
        doAccessSpec(op);
        return;
    }
    const bool isLoad = op.kind() == OpKind::Load;
    const PageId page = pageOf(op.vaddr());

    // Resolve placement, LRU membership, and the policy-visible bits
    // through a single PageMeta load (the LRU location lives in the
    // same flags byte). touch() materializes on first touch and panics
    // on out-of-range pages.
    TierId tier;
    PageMeta *mp;
    if (page < tm_.totalPages() &&
        ((mp = &tm_.meta(page))->flags & PageFlags::Touched)) {
        tier = static_cast<TierId>(mp->tier);
    } else {
        const bool huge = page < huge_.size() && huge_[page];
        tier = tm_.touch(page, trace_.proc, huge);
        mp = &tm_.meta(page);
    }
    PageMeta &m = *mp;
    if (!(m.flags & PageFlags::LruListed))
        lru_.insert(page, tier, tm_);

    tm_.noteReferencedWillSet(page, m.flags);
    m.flags |= PageFlags::Referenced;
    m.lastAccess = static_cast<std::uint32_t>(cycle_ >> 10);
    if (m.shortFreq < 0xff)
        m.shortFreq++;

    // NUMA hint fault: the policy unmapped this page to observe the
    // next access; the access traps, costing the process fault cycles.
    // addPenalty flushes the PMU before the handler can read it.
    if (m.flags & PageFlags::HintArmed) {
        m.flags &= ~PageFlags::HintArmed;
        pending_.hintFaults++;
        addPenalty(cfg_.cpu.hintFaultCycles);
        if (listener_)
            listener_->onHintFault(page, trace_.proc);
        tier = tm_.tierOf(page); // the fault handler may have migrated
    }

    // A dependent access cannot compute its address before the
    // producer load's data arrives, hit or miss downstream.
    if (op.dep() && lastLoadValid_)
        waitFor(lastLoadCompletion_, lastLoadTier_);

    const CacheResult cr = cache_->access(op.vaddr());

    if (cr.prefetchLines > 0) {
        // Prefetches consume target-tier bandwidth but never fault
        // pages in; drop bursts into unmapped space.
        const PageId ppage = pageOf(cr.prefetchStart << LineShift);
        if (ppage < tm_.totalPages()) {
            const PageMeta &pm = tm_.meta(ppage);
            if (pm.flags & PageFlags::Touched) {
                Tier *pt = tiers_[tierIndex(static_cast<TierId>(pm.tier))];
                pt->chargeLines(cycle_, cr.prefetchLines);
                cache_->installPrefetches(cr.prefetchStart,
                                          cr.prefetchLines);
                pending_.prefetches += cr.prefetchLines;
            }
        }
    }

    if (cr.hit) {
        pending_.llcHits++;
        if (isLoad)
            lastLoadValid_ = false; // data available immediately
        return;
    }

    // Structural hazards: MSHRs, then ROB headroom.
    while (missHeap_.size() >= cfg_.cpu.mshrs) {
        const Miss next = missHeap_.front(); // earliest completion
        waitFor(next.completion, next.tier); // ...which retires it
    }
    while (!robFifo_.empty()) {
        if (robFifo_.front().completion <= cycle_) {
            robFifo_.pop_front(); // already retired, frees headroom
            continue;
        }
        const Miss oldest = robFifo_.front();
        if (opIdx_ - oldest.opIdx <
            static_cast<std::uint64_t>(cfg_.cpu.robOps))
            break;
        waitFor(oldest.completion, oldest.tier);
        robFifo_.pop_front();
    }

    const TierAccess acc = tiers_[tierIndex(tier)]->access(cycle_);
    insertMiss(acc.start, acc.completion, tier);

    pending_.llcMisses[tierIndex(tier)]++;
    if (chmu_ && tier == TierId::Slow)
        chmu_->record(page); // the device observes all its accesses
    if (isLoad) {
        pending_.llcLoadMisses[tierIndex(tier)]++;
        pebs_.onLoadMiss(op.vaddr(), tier,
                         static_cast<std::uint32_t>(acc.completion - cycle_),
                         trace_.proc, cycle_);
        lastLoadValid_ = true;
        lastLoadCompletion_ = acc.completion;
        lastLoadTier_ = tier;
    }
}

/**
 * Speculative-window twin of doAccess: identical timing arithmetic
 * against the core's private LLC/tier copies, page meta resolved
 * through the session's claim protocol, and every shared-state
 * interaction appended to the session log for barrier replay. Shared
 * side effects that cannot run concurrently — the LRU list splice,
 * the PEBS sample (with its fault-RNG and journal effects), CHMU
 * recording — are deferred: the first two are replayed at the
 * barrier in serial order, and the CHMU never coexists with
 * speculation (the engine disables the parallel path when it's on).
 */
void
Cpu::doAccessSpec(const TraceOp &op)
{
    const bool isLoad = op.kind() == OpKind::Load;
    const PageId page = pageOf(op.vaddr());

    bool lruInsert = false;
    const bool huge = page < huge_.size() && huge_[page];
    const TierId tier =
        spec_->resolveMeta(page, trace_.proc, huge, cycle_, lruInsert);
    if (spec_->failed())
        return;

    if (op.dep() && lastLoadValid_)
        waitFor(lastLoadCompletion_, lastLoadTier_);

    SpecOp rec;
    rec.vaddr = op.vaddr();
    rec.accessCycle = cycle_;
    if (isLoad)
        rec.flags |= SpecOpFlags::Load;
    if (lruInsert) {
        rec.flags |= SpecOpFlags::LruInsert;
        rec.lruTier = static_cast<std::uint8_t>(tierIndex(tier));
    }

    const CacheResult cr = cache_->access(op.vaddr());
    rec.prefetchLines = cr.prefetchLines;

    if (cr.prefetchLines > 0) {
        const PageId ppage = pageOf(cr.prefetchStart << LineShift);
        if (ppage < tm_.totalPages()) {
            TierId pt;
            if (spec_->probeTouched(ppage, pt)) {
                rec.flags |= SpecOpFlags::PrefetchCharged;
                rec.prefetchTier =
                    static_cast<std::uint8_t>(tierIndex(pt));
                tiers_[tierIndex(pt)]->chargeLines(cycle_,
                                                   cr.prefetchLines);
                cache_->installPrefetches(cr.prefetchStart,
                                          cr.prefetchLines);
                pending_.prefetches += cr.prefetchLines;
            }
        }
    }

    if (cr.hit) {
        rec.flags |= SpecOpFlags::Hit;
        spec_->log(rec);
        pending_.llcHits++;
        if (isLoad)
            lastLoadValid_ = false;
        return;
    }

    while (missHeap_.size() >= cfg_.cpu.mshrs) {
        const Miss next = missHeap_.front();
        waitFor(next.completion, next.tier);
    }
    while (!robFifo_.empty()) {
        if (robFifo_.front().completion <= cycle_) {
            robFifo_.pop_front();
            continue;
        }
        const Miss oldest = robFifo_.front();
        if (opIdx_ - oldest.opIdx <
            static_cast<std::uint64_t>(cfg_.cpu.robOps))
            break;
        waitFor(oldest.completion, oldest.tier);
        robFifo_.pop_front();
    }

    rec.ready = cycle_;
    const TierAccess acc = tiers_[tierIndex(tier)]->access(cycle_);
    rec.missTier = static_cast<std::uint8_t>(tierIndex(tier));
    rec.start = acc.start;
    insertMiss(acc.start, acc.completion, tier);

    pending_.llcMisses[tierIndex(tier)]++;
    if (isLoad) {
        pending_.llcLoadMisses[tierIndex(tier)]++;
        // PEBS (RNG + journal side effects) replays at the barrier.
        lastLoadValid_ = true;
        lastLoadCompletion_ = acc.completion;
        lastLoadTier_ = tier;
    }
    spec_->log(rec);
}

bool
Cpu::run(Cycles until)
{
    if (done_)
        return false;
    const bool more = runOps(until);
    flushPmu();
    return more;
}

bool
Cpu::runOps(Cycles until)
{
    const auto &ops = trace_.ops;

    while (cycle_ < until) {
        // A failed speculation session poisons the whole window; stop
        // at the next op boundary (the engine rolls this core back).
        if (spec_ && spec_->failed())
            return true;
        if (pos_ >= ops.size()) {
            if (trace_.loop && !ops.empty()) {
                pos_ = 0;
            } else {
                done_ = true;
                drainInflight();
                finishCycle_ = cycle_;
                return false;
            }
        }
        const TraceOp &op = ops[pos_++];
        opIdx_++;
        retired_++;
        pending_.instructions++;

        if (const std::uint32_t gap = op.gap()) {
            pending_.computeCycles += gap;
            advanceTo(cycle_ + gap);
        }

        switch (op.kind()) {
          case OpKind::Load:
          case OpKind::Store:
            doAccess(op);
            break;
          case OpKind::MarkBegin:
            spanStack_.emplace_back(
                static_cast<std::uint32_t>(op.vaddr()), cycle_);
            break;
          case OpKind::MarkEnd:
            if (!spanStack_.empty()) {
                const auto [cls, beg] = spanStack_.back();
                spanStack_.pop_back();
                spans_.emplace_back(cls, cycle_ - beg);
            }
            break;
          case OpKind::Nop:
            break;
          case OpKind::BigGap:
            // The full cycle count rides in the addr field (the
            // 12-bit gap field is zero); accounting matches the
            // equivalent run of max-gap Nops.
            pending_.computeCycles += op.vaddr();
            advanceTo(cycle_ + op.vaddr());
            break;
        }

        // Retire-width floor: at most 4 ops per cycle.
        if (++retireCredit_ == 4) {
            retireCredit_ = 0;
            advanceTo(cycle_ + 1);
        }
    }
    return true;
}

} // namespace pact
