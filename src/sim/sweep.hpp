/**
 * @file
 * SweepEngine: parallel evaluation of independent (design, workload,
 * config) simulation points — the paper's Figs. 4/7/10 are exactly
 * such grids. Each point owns its Simulator, Topology, and SimConfig
 * (isolation is structural: no predictor or pipeline state is shared
 * between points; workload Programs are shared read-only), so points
 * can run concurrently on a thread pool while results are collected
 * in deterministic submission order.
 *
 * Determinism guarantee: a point's SimResult depends only on its own
 * inputs, never on the number of worker threads or the schedule, so a
 * sweep at --jobs N is byte-identical to the same sweep at --jobs 1
 * (tested in tests/test_sweep.cpp).
 */

#ifndef COBRA_SIM_SWEEP_HPP
#define COBRA_SIM_SWEEP_HPP

#include <atomic>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/presets.hpp"
#include "sim/simulator.hpp"

namespace cobra::sim {

/**
 * Host-side throughput counters for one simulation point: how fast
 * the *host* chewed through simulated time (the FireSim-style metric
 * the paper's evaluation methodology leans on).
 */
struct HostCounters
{
    double wallSeconds = 0.0;
    /** Total simulated cycles, including warmup. */
    std::uint64_t simCycles = 0;
    /** Total committed instructions, including warmup. */
    std::uint64_t simInsts = 0;
    /** Of simCycles, those the loop evaluated rather than skipped as
     *  idle (Simulator::tickedCycles). */
    std::uint64_t tickedCycles = 0;

    /** Simulated kilocycles per host second. */
    double
    kiloCyclesPerSec() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(simCycles) / 1e3 / wallSeconds;
    }

    /** Committed kilo-instructions per host second. */
    double
    kips() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(simInsts) / 1e3 / wallSeconds;
    }
};

/**
 * One unit of sweep work. The topology is provided as a factory and
 * built on the worker that runs the point (topologies are single-use
 * and hold learned state); the Program is borrowed read-only and must
 * outlive the sweep.
 */
struct SweepPoint
{
    std::string label;
    /** Builds this point's (fresh) topology on the worker. */
    std::function<bpu::Topology()> topology;
    const prog::Program* program = nullptr;
    SimConfig cfg;

    /**
     * How to drive the point's Simulator; defaults to Simulator::run()
     * when empty. It runs on the worker and may also read the live
     * Simulator once it is done: cobra_sim renders --stats/--area text
     * and bench_energy its energy report into caller-owned slots, one
     * per point, so concurrent points never share one. The warp driver
     * submits interval points whose hook restores a checkpoint and
     * runs a bounded sample instead.
     */
    std::function<SimResult(Simulator&)> execute;

    /** Convenience: a preset design on a workload program. */
    static SweepPoint preset(Design d, const prog::Program& program);
};

/** Result of one point, delivered in submission order. */
struct SweepOutcome
{
    std::string label;
    SimResult result;
    HostCounters host;
    /** Exception text when the point failed; empty on success. */
    std::string error;
    /**
     * Machine-readable failure class when the point failed (see
     * guard::errorClassOf: "config", "contract", "checkpoint",
     * "timeout", "sim", "internal"), or "interrupted"
     * when a stop flag cancelled the point before it started. Empty
     * on success.
     */
    std::string errorClass;
    /** CobraScope: this point's stats document (JSON object), rendered
     *  on the worker when cfg.output.statsJsonPath is set. */
    std::string statsJson;
    /** CobraScope: this point's Chrome trace-event lines, rendered on
     *  the worker when cfg.output.traceEventsPath is set. */
    std::string traceEvents;

    bool ok() const { return error.empty(); }
};

/**
 * Thread pool over sweep points. Submission is cheap (points are
 * stored until run()); run() executes every point and returns
 * outcomes indexed exactly like the add() calls. With jobs() == 1 the
 * points run inline on the calling thread — the serial reference the
 * determinism tests compare against.
 */
class SweepEngine
{
  public:
    /**
     * Hook run as each point completes, on the worker that ran it
     * (concurrently under --jobs N — the callee synchronises). The
     * serve daemon journals per-point completion here so a crash
     * mid-sweep loses at most the points still in flight.
     */
    using OnOutcome =
        std::function<void(std::size_t, const SweepOutcome&)>;

    /** @param jobs Worker count; 0 means defaultJobs(). */
    explicit SweepEngine(unsigned jobs = 0);

    /**
     * Default worker count: COBRA_JOBS when set (clamped to >= 1),
     * else the hardware concurrency, else 1. A set COBRA_JOBS that is
     * not decimal digits in [0, UINT_MAX] throws guard::ConfigError.
     */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /**
     * Run @p num_tasks independent tasks on this engine's pool:
     * min(jobs, num_tasks) workers each take the next unclaimed index
     * from one shared counter until every index is taken, so each
     * index runs exactly once. Tasks must write only their own result
     * slots — completion order is unspecified, but every task has
     * finished when the call returns. With one worker the tasks run
     * inline in index order on the calling thread (the deterministic,
     * zero-overhead path). This is the scheduling primitive under
     * run(), which submits one task per point; the batch trace
     * evaluator (trace/batch_eval.hpp) submits one task per lane.
     */
    void runTasks(std::size_t num_tasks,
                  const std::function<void(std::size_t)>& task) const;

    /**
     * Report each point's completion to stderr (`--progress`):
     * `[completed/total] label: N kcps`. Off by default; stdout is
     * never touched, so sweep output stays byte-identical.
     */
    void setProgress(bool on) { progress_ = on; }

    /**
     * Cooperative cancellation: when @p flag becomes true, workers
     * finish the points they are running but start no new ones;
     * cancelled points report errorClass "interrupted". The flag is
     * polled between points only (async-signal safe to set from a
     * SIGINT/SIGTERM handler). Pass nullptr to clear.
     */
    void setStopFlag(const std::atomic<bool>* flag) { stop_ = flag; }

    /** Per-point completion hook (see OnOutcome). */
    void setOnOutcome(OnOutcome cb) { onOutcome_ = std::move(cb); }

    /** Queue a point; returns its submission index. */
    std::size_t add(SweepPoint p);

    std::size_t pending() const { return points_.size(); }

    /**
     * Run all queued points and clear the queue. Outcomes are ordered
     * by submission index regardless of worker schedule. A point that
     * throws reports through SweepOutcome::error; the sweep continues.
     */
    std::vector<SweepOutcome> run();

  private:
    SweepOutcome runPoint(std::size_t idx, const SweepPoint& pt) const;

    bool stopped() const
    {
        return stop_ != nullptr &&
               stop_->load(std::memory_order_relaxed);
    }

    unsigned jobs_;
    bool progress_ = false;
    const std::atomic<bool>* stop_ = nullptr;
    OnOutcome onOutcome_;
    std::vector<SweepPoint> points_;
};

/**
 * Write sweep outcomes as a machine-readable JSON document:
 * per-point simulation metrics plus host throughput counters. The
 * parent directory must exist. @p extra, when non-empty, is spliced
 * verbatim as additional top-level fields (callers pass pre-formatted
 * `"key": value` pairs).
 */
void writeSweepJson(const std::string& path, const std::string& name,
                    const std::vector<SweepOutcome>& outcomes,
                    unsigned jobs, const std::string& extra = "");

/**
 * Render one point's full CobraScope stats document: the SimResult
 * (every visitFields field plus derived ipc/mpki/accuracy) and the
 * complete stat-group hierarchy from the simulator's registry. The
 * returned string is a JSON object indented for splicing into
 * writeStatsJson's "points" array.
 */
std::string renderPointStats(const std::string& label,
                             const Simulator& s, const SimResult& r);

/**
 * Variant for callers that no longer hold a live Simulator (the warp
 * driver, whose interval simulators die on the sweep workers):
 * @p groups_json is a pre-rendered stat-group hierarchy object at the
 * indentation StatRegistry::writeJson(os, 6) would produce.
 */
std::string renderPointStats(const std::string& label,
                             const SimResult& r,
                             const std::string& groups_json);

/**
 * Write the per-point stats documents gathered in
 * SweepOutcome::statsJson as one JSON file (`--stats-json`). Points
 * appear in submission order, so parallel sweeps emit byte-identical
 * documents. Failed or stats-less points appear as error stubs.
 */
void writeStatsJson(const std::string& path, const std::string& tool,
                    const std::vector<SweepOutcome>& outcomes,
                    unsigned jobs);

/**
 * Write the per-point Chrome trace fragments gathered in
 * SweepOutcome::traceEvents as one trace file (`--trace-events`),
 * loadable in Perfetto / chrome://tracing. Each point renders as its
 * own process (pid = submission index); submission order makes
 * parallel sweeps byte-identical.
 */
void writeTraceEvents(const std::string& path,
                      const std::vector<SweepOutcome>& outcomes);

/** JSON string escaping for writeSweepJson-style emitters. */
std::string jsonEscape(const std::string& s);

/**
 * Emit every SimResult field (snake_case keys from visitFields'
 * names) followed by the derived ipc/mpki/accuracy ratios, one
 * `pad"key": value` line each. The final line carries a comma iff
 * @p trailing_comma, so callers can append further members or close
 * the object. Shared by the sweep writers and the cobra_serve result
 * documents, so every consumer renders result fields identically.
 */
void writeResultFields(std::ostream& os, const SimResult& r,
                       const std::string& pad, bool trailing_comma);

} // namespace cobra::sim

#endif // COBRA_SIM_SWEEP_HPP
