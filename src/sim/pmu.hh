/**
 * @file
 * Performance monitoring unit: the counter file the tiering policies
 * read. It exposes exactly the counters the paper's Table 1 relies on —
 * per-tier LLC misses, TOR occupancy (T1), TOR busy cycles (T2) — plus
 * the ground-truth per-tier stall cycles the simulator can observe
 * directly (used only for model validation, never by policies).
 */

#ifndef PACT_SIM_PMU_HH
#define PACT_SIM_PMU_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace pact
{

/** Cumulative hardware counters. Policies consume deltas. */
struct Pmu
{
    /** Retired trace operations (instruction proxy). */
    std::uint64_t instructions = 0;
    /** Demand-load LLC misses per tier. */
    std::array<std::uint64_t, NumTiers> llcLoadMisses = {0, 0};
    /** All demand LLC misses (loads + stores) per tier. */
    std::array<std::uint64_t, NumTiers> llcMisses = {0, 0};
    /** LLC hits. */
    std::uint64_t llcHits = 0;
    /**
     * TOR_OCCUPANCY (T1): integral of outstanding-request count over
     * cycles, per tier.
     */
    std::array<std::uint64_t, NumTiers> torOccupancy = {0, 0};
    /**
     * TOR_OCCUPANCY_COUNTER0 (T2): cycles with at least one
     * outstanding request, per tier.
     */
    std::array<std::uint64_t, NumTiers> torBusy = {0, 0};
    /**
     * Ground-truth stall cycles attributed to waiting on each tier
     * (cycle advances caused by dependence/MSHR/ROB waits on a miss to
     * that tier). Used to validate Equation 1, not by policies.
     */
    std::array<std::uint64_t, NumTiers> stallCycles = {0, 0};
    /** Compute (gap) cycles consumed. */
    std::uint64_t computeCycles = 0;
    /** NUMA hint faults taken. */
    std::uint64_t hintFaults = 0;
    /** Prefetch lines issued. */
    std::uint64_t prefetches = 0;

    /** Per-tier average MLP since the snapshot baseline. */
    static double
    mlp(std::uint64_t d_t1, std::uint64_t d_t2)
    {
        return d_t2 == 0 ? 1.0
                         : static_cast<double>(d_t1) /
                               static_cast<double>(d_t2);
    }
};

/** Field-wise accumulate @p add into @p into. */
inline void
addPmu(Pmu &into, const Pmu &add)
{
    into.instructions += add.instructions;
    into.llcHits += add.llcHits;
    into.computeCycles += add.computeCycles;
    into.hintFaults += add.hintFaults;
    into.prefetches += add.prefetches;
    for (unsigned i = 0; i < NumTiers; i++) {
        into.llcLoadMisses[i] += add.llcLoadMisses[i];
        into.llcMisses[i] += add.llcMisses[i];
        into.torOccupancy[i] += add.torOccupancy[i];
        into.torBusy[i] += add.torBusy[i];
        into.stallCycles[i] += add.stallCycles[i];
    }
}

/** A snapshot of the PMU for delta computation. */
struct PmuSnapshot
{
    Pmu at;

    /** Capture current values. */
    void take(const Pmu &pmu) { at = pmu; }
};

/** Per-window deltas of the counters PACT's Algorithm 1 needs. */
struct PmuWindow
{
    std::uint64_t llcLoadMisses[NumTiers];
    std::uint64_t llcMisses[NumTiers];
    std::uint64_t torOccupancy[NumTiers];
    std::uint64_t torBusy[NumTiers];
    std::uint64_t stallCycles[NumTiers];

    /** MLP = dT1/dT2 for a tier (>= 1 clamp as on hardware). */
    double
    mlp(TierId t) const
    {
        const unsigned i = tierIndex(t);
        const double m = Pmu::mlp(torOccupancy[i], torBusy[i]);
        return m < 1.0 ? 1.0 : m;
    }
};

/** Compute deltas between a snapshot and the current PMU state. */
inline PmuWindow
pmuDelta(const PmuSnapshot &snap, const Pmu &now)
{
    PmuWindow w;
    for (unsigned i = 0; i < NumTiers; i++) {
        w.llcLoadMisses[i] = now.llcLoadMisses[i] - snap.at.llcLoadMisses[i];
        w.llcMisses[i] = now.llcMisses[i] - snap.at.llcMisses[i];
        w.torOccupancy[i] = now.torOccupancy[i] - snap.at.torOccupancy[i];
        w.torBusy[i] = now.torBusy[i] - snap.at.torBusy[i];
        w.stallCycles[i] = now.stallCycles[i] - snap.at.stallCycles[i];
    }
    return w;
}

} // namespace pact

#endif // PACT_SIM_PMU_HH
