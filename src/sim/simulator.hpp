/**
 * @file
 * Top-level simulator: wires a Program, the oracle executor, the
 * cache hierarchy, a COBRA-composed BranchPredictorUnit, and the
 * BOOM-like frontend/backend into a cycle loop, and reports the
 * metrics of the paper's Fig. 10 (IPC, branch-MPKI, accuracy).
 */

#ifndef COBRA_SIM_SIMULATOR_HPP
#define COBRA_SIM_SIMULATOR_HPP

#include <memory>
#include <string>
#include <vector>

#include "bpu/bpu.hpp"
#include "core/backend.hpp"
#include "core/cache.hpp"
#include "core/frontend.hpp"
#include "exec/oracle.hpp"
#include "guard/contract_auditor.hpp"
#include "guard/fault_injector.hpp"
#include "guard/post_mortem.hpp"
#include "program/program.hpp"
#include "scope/stat_registry.hpp"
#include "scope/tracer.hpp"
#include "trace/replay.hpp"

namespace cobra::sim {

/** Aggregated run metrics (post-warmup deltas). */
struct SimResult
{
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t cfis = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t jalrMispredicts = 0;
    std::uint64_t sfbConversions = 0;
    /** Fetch replays forced by global-history repair (§VI-B). */
    std::uint64_t ghistReplays = 0;
    /** In-flight fetch packets killed by re-steers/replays/redirects. */
    std::uint64_t packetsKilled = 0;
    bool deadlocked = false;

    // ---- SimGuard -------------------------------------------------------

    /** Predictor-state / output faults injected (0 when disabled). */
    std::uint64_t faultsInjected = 0;
    /** Commit updates dropped by fault injection. */
    std::uint64_t updatesDropped = 0;
    /** Contract checks performed by the auditor (0 when off). */
    std::uint64_t auditChecks = 0;
    /** Watchdog report text; empty unless the run deadlocked. */
    std::string diagnostics;
    /** Structured watchdog snapshot (valid when deadlocked). */
    guard::PostMortem postMortem;

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(insts) / cycles;
    }

    /** Branch misses per kilo-instruction (all mispredict flavours). */
    double
    mpki() const
    {
        return insts == 0 ? 0.0
                          : 1000.0 *
                                (condMispredicts + jalrMispredicts) /
                                static_cast<double>(insts);
    }

    /** Conditional-branch prediction accuracy. */
    double
    accuracy() const
    {
        return condBranches == 0
                   ? 1.0
                   : 1.0 - static_cast<double>(condMispredicts) /
                               static_cast<double>(condBranches);
    }

    /**
     * The single authoritative field list: visits (name, member
     * pointer) for every compared/exported field. Equality, the JSON
     * writers, and the sweep determinism diagnostics all derive from
     * this one enumeration, so a new metric added here is
     * automatically compared and exported everywhere. The structured
     * post-mortem is deliberately excluded; its text rendering is
     * covered via diagnostics.
     */
    template <typename V>
    static void
    visitFields(V&& v)
    {
        v("cycles", &SimResult::cycles);
        v("insts", &SimResult::insts);
        v("condBranches", &SimResult::condBranches);
        v("cfis", &SimResult::cfis);
        v("condMispredicts", &SimResult::condMispredicts);
        v("jalrMispredicts", &SimResult::jalrMispredicts);
        v("sfbConversions", &SimResult::sfbConversions);
        v("ghistReplays", &SimResult::ghistReplays);
        v("packetsKilled", &SimResult::packetsKilled);
        v("deadlocked", &SimResult::deadlocked);
        v("faultsInjected", &SimResult::faultsInjected);
        v("updatesDropped", &SimResult::updatesDropped);
        v("auditChecks", &SimResult::auditChecks);
        v("diagnostics", &SimResult::diagnostics);
    }

    /** Visit (name, value) for every field of this result. */
    template <typename V>
    void
    forEachField(V&& v) const
    {
        visitFields(
            [&](const char* name, auto mp) { v(name, this->*mp); });
    }

    /** Mutable variant (e.g. for field-sensitivity tests). */
    template <typename V>
    void
    forEachField(V&& v)
    {
        visitFields(
            [&](const char* name, auto mp) { v(name, this->*mp); });
    }

    /** Field-for-field equality over visitFields' enumeration. */
    bool
    operator==(const SimResult& o) const
    {
        bool eq = true;
        visitFields([&](const char*, auto mp) {
            eq = eq && this->*mp == o.*mp;
        });
        return eq;
    }
};

/** Names of the fields on which two results differ (empty if equal). */
inline std::vector<std::string>
diffFields(const SimResult& a, const SimResult& b)
{
    std::vector<std::string> out;
    SimResult::visitFields([&](const char* name, auto mp) {
        if (!(a.*mp == b.*mp))
            out.emplace_back(name);
    });
    return out;
}

/**
 * Where and how one run reports its results (CobraScope). All of
 * cobra_sim's output flags funnel through this one struct so their
 * interactions are validated in a single place.
 */
struct OutputConfig
{
    bool textStats = false; ///< Text stat dump after the run (--stats).
    bool textArea = false;  ///< Area report after the run (--area).
    std::string resultsJsonPath; ///< Sweep-results JSON (--json).
    std::string statsJsonPath;   ///< Full stat hierarchy (--stats-json).
    std::string traceEventsPath; ///< Chrome trace JSON (--trace-events).
    /** Tracer sampling window (--trace-start / --trace-cycles). */
    std::uint64_t traceStartCycle = 0;
    std::uint64_t traceCycles = 0; ///< 0 = unbounded.

    bool tracing() const { return !traceEventsPath.empty(); }

    /** Throws guard::ConfigError on inconsistent settings. */
    void validate() const;
};

/** Full simulation configuration. */
struct SimConfig
{
    core::FrontendConfig frontend{};
    core::BackendConfig backend{};
    core::HierarchyParams caches{};
    bpu::BpuConfig bpu{};

    std::uint64_t maxInsts = 400'000;   ///< Committed-inst budget.
    std::uint64_t warmupInsts = 50'000; ///< Stats reset after this.
    std::uint64_t maxCycles = 40'000'000;
    std::uint64_t oracleSeed = 0xD15EA5E;

    /**
     * When set, the oracle replays this captured trace instead of
     * evaluating behaviour hashes — bit-identical to execute mode
     * (same SimResult, same stats, interchangeable checkpoints). The
     * trace is immutable and shared: all replicas of a sweep hold the
     * same decoded object (prog::WorkloadCache::getTrace decodes each
     * workload once) while every Simulator walks it through its own
     * cursor. Validated against the run at construction: kind,
     * program fingerprint, oracle seed, and instruction budget must
     * all match or the constructor raises guard::ConfigError.
     */
    std::shared_ptr<const trace::DecodedTrace> replayTrace;

    // ---- SimGuard -------------------------------------------------------

    /** Watchdog: abort after this many cycles without a commit. */
    std::uint64_t deadlockCycles = 100'000;
    /** Interpose a ContractAuditor around every component. */
    bool audit = false;
    /** Per-event fault probability (0 disables injection). */
    double faultRate = 0.0;
    std::uint64_t faultSeed = 0x5EED;

    // ---- CobraScope -----------------------------------------------------

    OutputConfig output{};

    /**
     * Check invariants; throws guard::ConfigError on the first
     * violation. Any warmup is valid: the run measures maxInsts
     * instructions after warmupInsts, however long the warmup.
     */
    void validate() const;
};

/**
 * Owns every model object for one run. Topologies are single-use
 * (components hold learned state), so each Simulator takes its own.
 */
class Simulator
{
  public:
    Simulator(const prog::Program& program, bpu::Topology topo,
              const SimConfig& cfg);

    /**
     * Run to the instruction budget; returns post-warmup metrics. The
     * same as advanceTo() with no stop cycle followed by finishRun().
     */
    SimResult run();

    /**
     * Warp interval run: tick detailed for @p warmup_cycles (the
     * discarded cache/pipeline re-warming prefix), then measure until
     * @p measure_insts further instructions commit (or maxCycles).
     * Unlike run(), the warmup is cycle-denominated because interval
     * checkpoints restored from a fast-forward start with warm
     * predictors but a cold pipeline.
     */
    SimResult runInterval(std::uint64_t warmup_cycles,
                          std::uint64_t measure_insts);

    /**
     * Drive the run's warmup/measure/watchdog state machine up to
     * @p stop_cycle and pause; a later advanceTo() or run() resumes
     * it and finishes with exactly the result an uninterrupted run()
     * would have produced. Returns true while the run has work left,
     * false once it has finished (budget reached, deadlocked, or out
     * of cycles).
     */
    bool advanceTo(Cycle stop_cycle);

    /**
     * Produce the final SimResult for a run that advanceTo() has
     * driven to completion (it returned false), however it was
     * sliced. The run is flagged deadlocked when its budget was not
     * reached and the watchdog's check on the final tick fired. No
     * further tick is issued. The serve daemon's wall-clock watchdog
     * drives points in advanceTo() slices and finishes them here.
     */
    SimResult finishRun();

    /**
     * Serialize the state of a quiesced simulator — one that has run
     * no detailed cycle and holds no in-flight prediction or repair
     * walk, as warp::fastForward leaves it: the oracle, the caches,
     * the predictor's histories and components, the RAS, the fault
     * RNG, and every registered stat. Restoring into an identically-
     * configured quiesced Simulator (which re-points fetch at the
     * restored oracle) yields a bit-identical run to continuing the
     * producer. Either call on a simulator that is not quiesced
     * throws guard::CheckpointError naming what is in flight.
     * Pipeline trace events (CobraScope tracer) are not checkpointed.
     */
    void saveState(warp::StateWriter& w) const;
    void restoreState(warp::StateReader& r);

    /**
     * Fingerprint of the restore-relevant configuration (program
     * image, composition, core parameters). Checkpoints embed it so a
     * restore into a differently-configured simulator fails up front
     * with a structured error instead of mid-stream.
     */
    std::uint64_t stateFingerprint() const;

    /** Advance exactly one cycle (for tests). */
    void tickOnce();

    /**
     * Cycles the run loops evaluated with tickOnce(): the simulated
     * cycles minus those skipped as idle. A host-side count, like wall
     * time; not checkpointed.
     */
    std::uint64_t tickedCycles() const { return ticked_; }

    /** Every StatGroup in this simulator tree, by hierarchical path. */
    const scope::StatRegistry& statRegistry() const { return registry_; }

    /** The pipeline event tracer; nullptr unless tracing is on. */
    scope::Tracer* tracer() { return tracer_.get(); }
    const scope::Tracer* tracer() const { return tracer_.get(); }

    bpu::BranchPredictorUnit& bpu() { return *bpu_; }
    core::Frontend& frontend() { return *frontend_; }
    core::Backend& backend() { return *backend_; }
    core::CacheHierarchy& caches() { return *caches_; }
    exec::Oracle& oracle() { return *oracle_; }
    Cycle cycles() const { return now_; }

    const SimConfig& config() const { return cfg_; }

  private:
    struct Snapshot
    {
        std::uint64_t insts = 0;
        std::uint64_t branches = 0;
        std::uint64_t cfis = 0;
        std::uint64_t condMisp = 0;
        std::uint64_t jalrMisp = 0;
        Cycle cycles = 0;
    };

    Snapshot snapshot() const;

    /**
     * One step of a run loop: tick once, or, when no unit can act
     * before a later cycle, jump there and credit the skipped cycles'
     * stall counters in bulk. The jump stops at @p limit and at the
     * cycle on which the watchdog fires. Callers check stalled() and
     * their loop condition after it, as after a tick.
     */
    void step(Cycle limit);

    /** Deadlock watchdog step over the progress members. */
    bool stalled();

    /** Deltas vs base_ plus the absolute event counters. */
    SimResult measuredResult(bool deadlocked);

    /** Throw guard::CheckpointError (at @p where) unless quiesced. */
    void requireQuiesced(const char* where) const;

    void saveStats(warp::StateWriter& w) const;
    void restoreStats(warp::StateReader& r);

    /** Capture pipeline state for the watchdog report. */
    guard::PostMortem buildPostMortem(std::uint64_t since_progress) const;

    /** Fill a result's guard counters and deadlock diagnostics. */
    void finishResult(SimResult& r, bool deadlocked,
                      std::uint64_t since_progress) const;

    SimConfig cfg_;
    const prog::Program& program_;
    std::unique_ptr<guard::FaultEngine> faults_;
    std::unique_ptr<trace::TraceCursor> replayCursor_;
    std::unique_ptr<exec::Oracle> oracle_;
    std::unique_ptr<core::CacheHierarchy> caches_;
    std::unique_ptr<bpu::BranchPredictorUnit> bpu_;
    std::unique_ptr<core::Frontend> frontend_;
    std::unique_ptr<core::Backend> backend_;
    std::vector<guard::ContractAuditor*> auditors_;
    scope::StatRegistry registry_;
    std::unique_ptr<scope::Tracer> tracer_;
    Cycle now_ = 0;
    std::uint64_t ticked_ = 0;

    // Run-loop state lives in members (not run() locals) so that
    // advanceTo() slices resume the measured region exactly.
    Snapshot base_{};
    bool baseCaptured_ = false;
    bool runStateValid_ = false;
    std::uint64_t lastProgress_ = 0;
    Cycle lastProgressCycle_ = 0;
};

} // namespace cobra::sim

#endif // COBRA_SIM_SIMULATOR_HPP
