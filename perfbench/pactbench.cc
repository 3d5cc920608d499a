/**
 * @file
 * pactsim benchmark program. One process runs one workload, so its peak
 * resident memory belongs to that workload alone.
 *
 * Untraced mode times whole Engine runs and prints the end-to-end
 * metrics. Traced mode (--trace) prints the per-layer metrics. It gets
 * them only from outside the simulator: by timing calls into each
 * module's public functions (the workload generator, the Engine
 * constructor, Engine::runUntil stepped one daemon period at a time,
 * the tiering policy through a timing decorator, and the observability
 * serializers) and by reading the run's stat registry.
 *
 * Every run, traced or not, passes through the same correctness gate;
 * see checkRun(). The last line of standard output is one JSON object
 * with the keys correct, attempted, failed and metrics. perfbench/run.py
 * builds this program and relays that line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/events.hh"
#include "obs/export.hh"
#include "obs/timeseries.hh"
#include "policies/registry.hh"
#include "sim/engine.hh"
#include "workloads/registry.hh"

#ifndef PACTBENCH_BUILD_TYPE
#define PACTBENCH_BUILD_TYPE ""
#endif

using namespace pact;

namespace
{

/**
 * One benchmark workload. Why each one is in the set is written down in
 * perfbench/README.md; the short version is that bckron is the replay
 * data plane, coloc16 the tenant path with sixteen PACT daemons, and
 * silo-tpp-obs the hint-fault migration path plus the artifact sinks.
 */
struct WorkloadDef
{
    /** Name on the command line and in BENCHMARK.json. */
    const char *name;
    /** Generator name passed to makeWorkload. */
    const char *generator;
    double scale;
    /** Registry policy name (one instance per tenant on coloc16). */
    const char *policy;
    /** One tenant per trace, each with its own daemon. */
    bool tenants;
    /** Write a timeseries, an event journal and a manifest, in memory. */
    bool sinks;
};

// coloc16 keeps the default 1M-cycle daemon period: shorter periods
// push the 16-tenant run into a migration storm that hits
// maxWallCycles, and a truncated run is not a measurement.
constexpr WorkloadDef kWorkloads[] = {
    {"bckron", "bc-kron", 1.0, "PACT", false, false},
    {"coloc16", "masim-coloc16", 0.5, "PACT", true, false},
    {"silo-tpp-obs", "silo", 1.0, "TPP", false, true},
};

/** The fast tier holds half the footprint in every workload. */
constexpr double kFastShare = 0.5;

/** Workload instances generated, and run once each, per process. */
constexpr unsigned kInstances = 5;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : stats::quantile(std::move(xs), 0.5);
}

/**
 * Nominal duration of referenceSeconds(), the host speed every
 * end-to-end host time is scaled to.
 */
constexpr double kRefSeconds = 0.07;

/**
 * Time a fixed, simulator-like reference kernel: a 16-way set-associative
 * LRU cache model over 6 MB of state, fed 1.5M accesses with reuse.
 *
 * On a shared 4-core Xeon host, speed switches between states about 35%
 * apart that last for minutes; thread CPU time tracks wall time through
 * them, so the cause is the machine, not stolen time. This kernel slows
 * down with the simulator: timed right before each engine run, its time
 * correlated with the run's Mop/s at -0.83 per run and -0.96 per
 * process. End-to-end host times are therefore scaled by
 * reference time / kRefSeconds, run by run. The kernel's code lives
 * here, so no change to the program can speed it up.
 *
 * @return Wall-clock seconds the kernel took.
 */
double
referenceSeconds()
{
    constexpr std::size_t kSets = 1u << 15;
    constexpr std::size_t kWays = 16;
    static std::vector<std::uint64_t> tags(kSets * kWays);
    static std::vector<std::uint32_t> stamps(kSets * kWays);
    std::fill(tags.begin(), tags.end(), ~0ull);
    std::fill(stamps.begin(), stamps.end(), 0u);

    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint32_t now = 1;
    std::uint64_t hits = 0;
    for (int i = 0; i < 1500000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three accesses in four go to a hot sixteenth of the lines.
        const std::uint64_t line = (x >> 8) & ((x & 3) ? (1u << 22) - 1
                                                       : (1u << 26) - 1);
        const std::size_t set = (line * 0x9e3779b1u) & (kSets - 1);
        std::uint64_t *t = &tags[set * kWays];
        std::uint32_t *st = &stamps[set * kWays];
        std::size_t victim = 0;
        bool hit = false;
        for (std::size_t w = 0; w < kWays && !hit; w++) {
            if (t[w] == line) {
                st[w] = now++;
                hit = true;
            } else if (st[w] < st[victim]) {
                victim = w;
            }
        }
        if (hit) {
            hits++;
        } else {
            t[victim] = line;
            st[victim] = now++;
        }
    }
    const double secs = secondsSince(t0);
    // Keeps the loop's result observable so it is not optimized away.
    if (hits == 0)
        std::fprintf(stderr, "pactbench: reference kernel never hit\n");
    return secs;
}

/** Host-time spans and counts one traced run records. */
struct Spans
{
    double init = 0.0;      ///< Engine constructor
    double runUntil = 0.0;  ///< all Engine::runUntil calls
    double tick = 0.0;      ///< TieringPolicy::tick calls
    double hint = 0.0;      ///< TieringPolicy::onHintFault calls
    double timeseries = 0.0;
    double events = 0.0;
    double manifest = 0.0;
    double total = 0.0;     ///< the whole traced run
    std::uint64_t ticks = 0;
    std::uint64_t hintFaults = 0;
    std::vector<double> windowMs;
    std::vector<double> tickUs;
};

/**
 * Times every call the engine makes into a policy's daemon tick and
 * hint-fault handler, and forwards everything else unchanged. The
 * engine sees the same policy it would see undecorated, so the run's
 * stat registry is unchanged (the digest check proves it).
 */
class TimedPolicy final : public TieringPolicy
{
  public:
    TimedPolicy(std::unique_ptr<TieringPolicy> inner, Spans &spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    const char *name() const override { return inner_->name(); }
    void start(SimContext &ctx) override { inner_->start(ctx); }
    void
    registerStats(obs::StatRegistry &reg) override
    {
        inner_->registerStats(reg);
    }
    void audit(const SimContext &ctx) const override { inner_->audit(ctx); }
    void finish(SimContext &ctx) override { inner_->finish(ctx); }

    void
    tick(SimContext &ctx) override
    {
        const auto t0 = Clock::now();
        inner_->tick(ctx);
        const double s = secondsSince(t0);
        spans_.tick += s;
        spans_.ticks++;
        spans_.tickUs.push_back(s * 1e6);
    }

    void
    onHintFault(PageId page, ProcId proc) override
    {
        const auto t0 = Clock::now();
        inner_->onHintFault(page, proc);
        spans_.hint += secondsSince(t0);
        spans_.hintFaults++;
    }

  private:
    std::unique_ptr<TieringPolicy> inner_;
    Spans &spans_;
};

/** What one engine run leaves behind for the benchmark. */
struct RunRecord
{
    /** Host seconds: policy + Engine construction, run, serialization. */
    double seconds = 0.0;
    /** Retired trace ops over all cores. */
    std::uint64_t ops = 0;
    /** Empty when every correctness check passed. */
    std::string error;
    std::uint64_t digest = 0;
    std::uint64_t obsBytes = 0;
    RunStats stats;
};

/** FNV-1a 64 over the name-sorted registry dump and distributions. */
std::uint64_t
registryDigest(const RunStats &rs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    char buf[64];
    for (const auto &[name, v] : rs.registry) {
        std::snprintf(buf, sizeof(buf), "=%.17g\n", v);
        mix(name);
        mix(buf);
    }
    for (const auto &[name, d] : rs.dists) {
        std::snprintf(buf, sizeof(buf), "=%" PRIu64 "/%.17g/%.17g\n",
                      d.count, d.sum, d.max);
        mix(name);
        mix(buf);
    }
    return h;
}

/**
 * The correctness gate. A run fails when it reached maxWallCycles (it
 * was cut short), when a non-looping trace retired fewer ops than its
 * length, or when the migration transaction ledger does not
 * balance. Exceptions and digest mismatches are caught by the callers.
 */
std::string
checkRun(const WorkloadBundle &b, const SimConfig &cfg, const Engine &eng,
         const RunStats &rs)
{
    if (eng.now() >= cfg.maxWallCycles)
        return "run truncated at maxWallCycles";
    if (rs.procRetired.size() != b.traces.size())
        return "core count differs from trace count";
    for (std::size_t p = 0; p < b.traces.size(); p++) {
        if (!b.traces[p].loop && rs.procRetired[p] < b.traces[p].ops.size()) {
            return "trace " + std::to_string(p) + " retired " +
                   std::to_string(rs.procRetired[p]) + " of " +
                   std::to_string(b.traces[p].ops.size()) + " ops";
        }
    }
    const MigrationTxnStats &t = rs.txn;
    if (t.committed + t.aborted - t.retries != t.prepared)
        return "transaction ledger does not balance";
    return {};
}

/**
 * One whole run of @p w: build policies and the Engine, run it to the
 * end, serialize the artifacts when the workload has sinks, and check
 * the result. @p spans non-null makes it the traced run.
 */
RunRecord
runOnce(const WorkloadDef &w, const WorkloadBundle &b, const SimConfig &cfg,
        Spans *spans)
{
    RunRecord r;
    try {
        const auto t0 = Clock::now();
        auto makeOne = [&]() -> std::unique_ptr<TieringPolicy> {
            auto p = makePolicy(w.policy);
            if (spans)
                return std::make_unique<TimedPolicy>(std::move(p), *spans);
            return p;
        };
        // Declared before the engine: policies and sinks must outlive it.
        std::vector<std::unique_ptr<TieringPolicy>> policies;
        std::ostringstream tsOut;
        std::optional<obs::TimeSeriesRecorder> rec;
        std::optional<obs::EventJournal> journal;
        std::optional<Engine> eng;
        auto ti = Clock::now();
        if (w.tenants) {
            std::vector<TenantSpec> specs;
            for (const Trace &t : b.traces) {
                policies.push_back(makeOne());
                specs.push_back({"", {&t}, policies.back().get()});
            }
            ti = Clock::now();
            eng.emplace(cfg, b.as, std::move(specs));
        } else {
            policies.push_back(makeOne());
            ti = Clock::now();
            eng.emplace(cfg, b.as, &b.traces, policies.back().get());
        }
        if (spans)
            spans->init += secondsSince(ti);

        if (w.sinks) {
            rec.emplace(tsOut, cfg.daemonPeriod);
            journal.emplace();
            eng->setEventJournal(&*journal);
        }

        if (spans) {
            while (true) {
                const Cycles c0 = eng->now();
                const auto tw = Clock::now();
                const bool more = eng->runUntil(c0 + cfg.daemonPeriod);
                const double s = secondsSince(tw);
                spans->runUntil += s;
                spans->windowMs.push_back(s * 1e3);
                if (rec) {
                    const auto ts = Clock::now();
                    rec->sample(eng->stats(), c0, eng->now());
                    spans->timeseries += secondsSince(ts);
                }
                if (!more)
                    break;
            }
            r.stats = eng->snapshot();
        } else if (rec) {
            r.stats = obs::recordRun(*eng, *rec);
        } else {
            r.stats = eng->run();
        }

        if (w.sinks) {
            auto te = Clock::now();
            std::ostringstream evOut;
            journal->writeJsonl(evOut);
            if (spans)
                spans->events += secondsSince(te);

            te = Clock::now();
            obs::RunManifest m;
            m.producer = "pactbench";
            m.config = cfg;
            m.params = {{"scale", w.scale}, {"fast_share", kFastShare}};
            m.textParams = {{"workload", w.generator}, {"policy", w.policy}};
            obs::ManifestResult mr;
            mr.workload = b.name;
            mr.policy = w.policy;
            mr.runtimeCycles = r.stats.wallCycles;
            mr.stats = r.stats.registry;
            mr.dists = r.stats.dists;
            mr.txn.prepared = r.stats.txn.prepared;
            mr.txn.committed = r.stats.txn.committed;
            mr.txn.aborted = r.stats.txn.aborted;
            mr.txn.retries = r.stats.txn.retries;
            mr.txn.exhausted = r.stats.txn.exhausted;
            mr.fastShare = kFastShare;
            m.results.push_back(std::move(mr));
            std::ostringstream mOut;
            obs::writeRunManifest(mOut, m);
            if (spans)
                spans->manifest += secondsSince(te);
            r.obsBytes = tsOut.str().size() + evOut.str().size() +
                         mOut.str().size();
        }
        r.seconds = secondsSince(t0);

        for (const std::uint64_t n : r.stats.procRetired)
            r.ops += n;
        r.digest = registryDigest(r.stats);
        r.error = checkRun(b, cfg, *eng, r.stats);
    } catch (const std::exception &e) {
        r.error = std::string("threw: ") + e.what();
    }
    return r;
}

/** A metric as the result line reports it. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto start = line.find_first_not_of(" \t:", 10);
            if (start != std::string::npos)
                return line.substr(start);
        }
    }
    return "unknown";
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: pactbench --workload <bckron|coloc16|silo-tpp-obs>"
                 " [--seed N] [--seconds S] [--trace]"
                 " [--scale X]\n");
}

struct Args
{
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 42;
    double seconds = 25.0;
    bool trace = false;
    /** Overrides the workload's scale (the self-test runs tiny ones). */
    double scale = 0.0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--trace") {
            a.trace = true;
            continue;
        }
        if (!val)
            return false;
        i++;
        char *end = nullptr;
        if (arg == "--workload") {
            for (const WorkloadDef &w : kWorkloads) {
                if (w.name == std::string(val))
                    a.workload = &w;
            }
            if (!a.workload)
                return false;
            continue;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(val, &end);
        } else if (arg == "--scale") {
            a.scale = std::strtod(val, &end);
        } else {
            return false;
        }
        if (!end || *end != '\0')
            return false;
    }
    return a.workload && a.seconds > 0.0 && a.scale >= 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    if (std::strcmp(PACTBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "pactbench: refusing to measure a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PACTBENCH_BUILD_TYPE);
        return 3;
    }
    // Parallel generation makes set-up time swing with the host's load;
    // one job keeps it steady. The trace store would turn a cold
    // generation into a warm load.
    const char *jobs = std::getenv("PACT_JOBS");
    if (!jobs || std::string(jobs) != "1" || std::getenv("PACT_TRACE_DIR")) {
        std::fprintf(stderr, "pactbench: needs PACT_JOBS=1 and "
                             "PACT_TRACE_DIR unset\n");
        return 3;
    }
    setLogQuiet(true);

    const WorkloadDef &w = *args.workload;
    WorkloadOptions opt;
    opt.scale = args.scale > 0.0 ? args.scale : w.scale;

    std::printf("info workload %s (%s, scale %g, %s%s%s)\n", w.name,
                w.generator, opt.scale, w.policy,
                w.tenants ? ", one tenant per trace" : "",
                w.sinks ? ", timeseries+events+manifest in memory" : "");
    std::printf("info seed %" PRIu64 " instances %u\n", args.seed,
                kInstances);
    std::printf("info build_type %s\n", PACTBENCH_BUILD_TYPE);
    std::printf("info controls PACT_JOBS=1 PACT_TRACE_DIR=unset "
                "generator=makeWorkload warmup_runs=1 artifacts=memory "
                "process_per_workload=1\n");
    std::printf("info nproc %u\n", std::thread::hardware_concurrency());
    std::printf("info cpu_model %s\n", cpuModel().c_str());

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Counts a checked run; @p ref is the digest it must reproduce. */
    auto gate = [&](const RunRecord &r, std::uint64_t ref,
                    const char *what) {
        attempted++;
        std::string err = r.error;
        if (err.empty() && r.digest != ref)
            err = "stat digest differs from the first run";
        if (err.empty())
            return true;
        failed++;
        std::fprintf(stderr, "pactbench: %s run failed: %s\n", what,
                     err.c_str());
        return false;
    };

    // Set-up. A run at --seed n generates kInstances workload instances,
    // at seeds n*K .. n*K+K-1, so runs at different seeds share no
    // input. Each one is a cold generation straight from the generators
    // (no bundle cache, no trace store) followed by one checked run.
    // sim_mcycles is the mean makespan over the instances: on bckron
    // the makespan of one R-MAT instance ranges from 270 to 371 Mcycles
    // over seeds 1-16. Only the last instance is kept; its run is the
    // discarded warm-up, and its digest is the one later runs of it
    // must reproduce.
    std::optional<WorkloadBundle> bundle;
    std::vector<double> setup;    // wall-clock seconds
    std::vector<double> setupRef; // scaled to the reference host speed
    std::vector<double> speed;    // kRefSeconds / reference time
    double mcycles = 0.0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    RunRecord warm;
    SimConfig cfg;
    for (unsigned k = 0; k < kInstances; k++) {
        opt.seed = args.seed * kInstances + k;
        bundle.reset();
        try {
            const double ref = referenceSeconds();
            const auto t0 = Clock::now();
            bundle.emplace(makeWorkload(w.generator, opt));
            setup.push_back(secondsSince(t0));
            setupRef.push_back(setup.back() * kRefSeconds / ref);
            speed.push_back(kRefSeconds / ref);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "pactbench: generation failed: %s\n",
                         e.what());
            return 1;
        }
        cfg.fastCapacityPages = static_cast<std::uint64_t>(
            static_cast<double>(bundle->rssPages()) * kFastShare + 0.5);
        warm = runOnce(w, *bundle, cfg, nullptr);
        gate(warm, warm.digest, "instance");
        mcycles += static_cast<double>(warm.stats.wallCycles) / 1e6 /
                   kInstances;
        digest = (digest ^ warm.digest) * 0x100000001b3ull;
        std::printf("info instance %u seed %" PRIu64
                    " digest %016" PRIx64 " mcycles %.1f\n",
                    k, opt.seed, warm.digest,
                    static_cast<double>(warm.stats.wallCycles) / 1e6);
    }
    std::printf("info digest %016" PRIx64 "\n", digest);
    const WorkloadBundle &b = *bundle;
    std::uint64_t traceOps = 0;
    for (const Trace &t : b.traces)
        traceOps += t.ops.size();

    std::vector<Metric> metrics;
    if (!args.trace) {
        std::vector<double> mops;    // wall-clock Mop/s
        std::vector<double> mopsRef; // scaled to the reference host speed
        const auto t0 = Clock::now();
        std::uint64_t timed = 0;
        while (secondsSince(t0) < args.seconds || timed < 3) {
            timed++;
            const double ref = referenceSeconds();
            const RunRecord r = runOnce(w, b, cfg, nullptr);
            speed.push_back(kRefSeconds / ref);
            if (gate(r, warm.digest, "timed")) {
                mops.push_back(static_cast<double>(r.ops) / r.seconds / 1e6);
                mopsRef.push_back(mops.back() * ref / kRefSeconds);
            }
        }
        std::printf("info timed_runs %" PRIu64 " wall_mops", timed);
        for (const double m : mops)
            std::printf(" %.4g", m);
        std::printf("\ninfo wall_clock median_mops %.4g median_setup_s %.4g "
                    "host_speed %.4g\n",
                    median(mops), median(setup), median(speed));
        if (mops.empty()) {
            std::fprintf(stderr, "pactbench: every timed run failed\n");
            return 1;
        }
        metrics = {
            {"sim_mops_per_s", median(mopsRef), "Mop/s"},
            {"setup_s", median(setupRef), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"run_ok_frac",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(attempted),
             "frac"},
            {"sim_mcycles", mcycles, "Mcycles"},
        };
    } else {
        // Pairs of untraced and traced runs, so the tracing overhead is
        // taken from runs made close together in time.
        std::vector<double> plain;
        std::vector<Spans> spans;
        std::optional<RunRecord> first;
        const auto t0 = Clock::now();
        while ((secondsSince(t0) < args.seconds || spans.size() < 2) &&
               failed == 0) {
            const RunRecord u = runOnce(w, b, cfg, nullptr);
            if (gate(u, warm.digest, "untraced"))
                plain.push_back(u.seconds);
            Spans s;
            RunRecord r = runOnce(w, b, cfg, &s);
            if (gate(r, warm.digest, "traced")) {
                s.total = r.seconds;
                spans.push_back(std::move(s));
                if (!first)
                    first = std::move(r);
            }
        }
        std::printf("info traced_runs %zu\n", spans.size());
        if (spans.empty() || plain.empty()) {
            std::fprintf(stderr, "pactbench: no traced run passed\n");
            return 1;
        }

        // A host-time metric is the median over the traced runs. Counts
        // are those of the first one: the digest check makes every run
        // count the same.
        auto med = [&](auto f) {
            std::vector<double> xs;
            for (const Spans &sp : spans)
                xs.push_back(f(sp));
            return median(std::move(xs));
        };
        auto medOf = [&](double Spans::*field) {
            return med([field](const Spans &sp) { return sp.*field; });
        };
        auto pct = [](const std::vector<double> &xs, double q) {
            return xs.empty() ? 0.0 : stats::quantile(xs, q);
        };
        const auto replay = [](const Spans &sp) {
            return sp.runUntil - sp.tick - sp.hint;
        };
        std::vector<double> traced;
        for (const Spans &sp : spans)
            traced.push_back(sp.total);
        const Spans &s0 = spans.front();
        const RunStats &rs = first->stats;
        const double llc = static_cast<double>(rs.cacheHits + rs.cacheMisses);
        auto count = [](std::uint64_t n) { return static_cast<double>(n); };
        metrics = {
            {"workloads.gen_s", median(setup), "s"},
            {"workloads.ops", count(traceOps), "count"},
            {"workloads.pages", count(b.rssPages()), "count"},
            {"sim.init_s", medOf(&Spans::init), "s"},
            {"sim.replay_s", med(replay), "s"},
            {"sim.replay_ns_per_op",
             med(replay) / static_cast<double>(first->ops) * 1e9, "ns/op"},
            {"sim.windows", count(s0.windowMs.size()), "count"},
            {"sim.window_ms_p50",
             med([&](const Spans &sp) { return pct(sp.windowMs, 0.5); }), "ms"},
            {"sim.window_ms_p90",
             med([&](const Spans &sp) { return pct(sp.windowMs, 0.9); }), "ms"},
            {"sim.llc_misses", count(rs.cacheMisses), "count"},
            {"sim.llc_miss_ratio",
             llc > 0 ? static_cast<double>(rs.cacheMisses) / llc : 0.0, "frac"},
            {"sim.pebs_events", count(rs.pebsEvents), "count"},
            {"policy.tick_s", medOf(&Spans::tick), "s"},
            {"policy.ticks", count(s0.ticks), "count"},
            {"policy.tick_us_p50",
             med([&](const Spans &sp) { return pct(sp.tickUs, 0.5); }), "us"},
            {"policy.tick_us_p90",
             med([&](const Spans &sp) { return pct(sp.tickUs, 0.9); }), "us"},
            {"policy.hint_faults", count(s0.hintFaults), "count"},
            {"policy.hint_fault_s", medOf(&Spans::hint), "s"},
            {"mem.promotions", count(rs.promotions()), "count"},
            {"mem.demotions", count(rs.demotions()), "count"},
            {"mem.txn_committed", count(rs.txn.committed), "count"},
            {"mem.txn_aborted", count(rs.txn.aborted), "count"},
            {"mem.copy_mcycles", count(rs.migration.copyCycles) / 1e6,
             "Mcycles"},
            {"obs.timeseries_s", medOf(&Spans::timeseries), "s"},
            {"obs.events_s", medOf(&Spans::events), "s"},
            {"obs.manifest_s", medOf(&Spans::manifest), "s"},
            {"obs.bytes", count(first->obsBytes), "bytes"},
            {"trace.overhead_frac", median(traced) / median(plain) - 1.0,
             "frac"},
            {"run.unattributed_s", med([](const Spans &sp) {
                 return sp.total - sp.init - sp.runUntil - sp.timeseries -
                        sp.events - sp.manifest;
             }),
             "s"},
        };
        std::printf("info percentile_samples sim.window_ms n=%zu, "
                    "policy.tick_us n=%zu (per traced run)\n",
                    s0.windowMs.size(), s0.tickUs.size());
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
