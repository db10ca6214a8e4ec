/**
 * @file
 * The cobra_serve daemon: a long-lived sweep-evaluation service over
 * the existing SweepEngine/warp machinery. Clients drop sweep-request
 * documents (see request.hpp) into `spool/incoming/`; the daemon
 * admits, executes, and retires them through the spool state machine,
 * publishing one result document per request under `spool/results/`
 * and a continuously-rewritten `status.json` health document.
 *
 * Robustness pillars (docs/SERVICE.md has the full treatment):
 *
 *  - crash-safe intake: every lifecycle transition is an atomic
 *    rename ordered against the write-ahead journal, so a killed
 *    daemon resumes exactly where it stopped — completed points are
 *    replayed from the journal, never re-simulated;
 *  - per-point isolation: a point that throws (guard::* or anything
 *    else) or exceeds its wall-clock deadline becomes a structured
 *    failure record in the result document; transient classes
 *    (timeout/checkpoint/internal) retry with exponential backoff;
 *  - admission control: per-client point quotas, priority classes
 *    0..3, and a bounded queue that sheds the lowest-priority queued
 *    request — every refusal is an explicit `rejected` result
 *    document, never silence;
 *  - warm-state reuse: warp requests feed a content-addressed
 *    snapshot cache so repeat evaluations skip the fast-forward pass;
 *    corrupt or stale entries are validated away, never trusted.
 */

#ifndef COBRA_SERVE_DAEMON_HPP
#define COBRA_SERVE_DAEMON_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "program/workload.hpp"
#include "scope/stat_registry.hpp"
#include "sim/sweep.hpp"
#include "serve/journal.hpp"
#include "serve/request.hpp"
#include "serve/spool.hpp"
#include "serve/warm_cache.hpp"

namespace cobra::serve {

/** Daemon tuning; every field has a service-sane default. */
struct ServeConfig
{
    std::string spoolRoot = "spool";
    /** Sweep worker threads; 0 = SweepEngine::defaultJobs(), resolved
     *  when the daemon is constructed. */
    unsigned jobs = 0;
    /** Max requests queued (admitted, not yet running). */
    std::size_t maxQueue = 8;
    /** Max grid points in one request (`too_large` above this). */
    std::size_t maxPointsPerRequest = 64;
    /** Max queued+running points per client (`quota` above this). */
    std::size_t maxPointsPerClient = 128;
    /** Base of the exponential retry backoff (ms * 2^attempt). */
    std::uint64_t backoffBaseMs = 50;
    /**
     * Longest idle wait (ms), in [1, 3'600'000]. An idle daemon wakes
     * at once when a request is renamed into incoming/; this bounds
     * the wait for writers that bypass the rename, for the polling
     * fallback where inotify is unavailable, and for an in-process
     * caller's stop flag.
     */
    std::uint64_t pollMs = 200;
    /** advanceTo() slice used by the wall-clock watchdog (cycles). */
    std::uint64_t watchdogSliceCycles = 50'000;
    /** Drain the spool and exit instead of serving forever. */
    bool once = false;
    /** Log admissions/retirements to stderr. */
    bool verbose = false;

    /** Throws guard::ConfigError naming the field out of range. */
    void validate() const;
};

/** Final state of one grid point of a request. */
struct PointRecord
{
    std::string label;
    /** "ok" | "failed" | "rejected"; empty while still pending. */
    std::string status;
    std::string errorClass; ///< Taxonomy class when failed.
    std::string error;      ///< Human-readable failure text.
    unsigned attempts = 0;  ///< Executions consumed (retries + 1).
    /** Rendered result-document entry (JSON object, 4-space base
     *  indent) — the exact bytes the result document will carry,
     *  journaled so recovery can republish without re-running. */
    std::string fragment;

    bool final() const { return !status.empty(); }
};

class Daemon
{
  public:
    /** Validates @p cfg (guard::ConfigError) and opens the spool. */
    explicit Daemon(const ServeConfig& cfg);

    /**
     * Serve until @p stop becomes true (graceful drain: the active
     * request's in-flight points finish, a partial result document is
     * flushed, the journal is checkpointed, and undone work stays in
     * `active/` for the next daemon to resume). With cfg.once, serve
     * until the spool is drained instead. Returns the number of
     * requests retired this run.
     */
    std::size_t run(const std::atomic<bool>& stop);

    /** CobraScope registry ("serve", "serve.warm_cache"). */
    const scope::StatRegistry& registry() const { return registry_; }
    const Spool& spool() const { return spool_; }

  private:
    /** One admitted request and its execution state. */
    struct RequestState
    {
        std::string fname; ///< Spool filename (in active/).
        SweepRequest req;
        std::vector<PointSpec> specs;
        std::vector<PointRecord> points;

        bool
        allFinal() const
        {
            for (const PointRecord& p : points)
                if (!p.final())
                    return false;
            return true;
        }
    };

    // ---- Intake --------------------------------------------------------
    void recover();
    void admitIncoming();
    bool admitOne(const std::string& fname);
    /** Queued+running points charged to @p client. */
    std::size_t clientLoad(const std::string& client) const;
    /** Publish a rejection/invalid result doc for an unclaimed file. */
    void rejectIncoming(const std::string& fname,
                        const std::string& id,
                        const std::string& reason,
                        const std::string& detail,
                        const std::vector<PointSpec>& specs);

    // ---- Execution -----------------------------------------------------
    /** Run the highest-priority queued request to completion (or to
     *  the stop flag); returns true if one ran. */
    bool executeNext(const std::atomic<bool>& stop);
    void executeRequest(RequestState& rs, const std::atomic<bool>& stop);
    void runDetailedRound(RequestState& rs,
                          const std::vector<std::size_t>& idxs,
                          unsigned attempt,
                          const std::atomic<bool>& stop);
    /** An inline point's work, given its start time: fill the outcome's
     *  result and return the point's ok fragment, or throw. */
    using InlineWork =
        std::function<std::string(sim::SweepOutcome& o,
                                  std::chrono::steady_clock::time_point)>;
    /** Time @p work, classify what it throws, and hand the outcome to
     *  handleOutcome: the shared steps of the inline points below. */
    void runInlinePoint(RequestState& rs, std::size_t idx,
                        unsigned attempt, const InlineWork& work);
    /** Execute one warp point as a one-job runWarps batch. */
    void runWarpPoint(RequestState& rs, std::size_t idx,
                      unsigned attempt);
    /** Execute a `"kind": "search"` request's single point: run the
     *  composition-search autopilot and publish the frontier artifact
     *  as the point's result fragment. */
    void runSearchPoint(RequestState& rs, std::size_t idx,
                        unsigned attempt);
    /** Classify one execution outcome: finalize, or leave pending
     *  for a retry round. A success publishes @p fragment, or the
     *  plain okFragment of @p o when it is empty. Called under
     *  finalizeM_ (sweep workers report concurrently). */
    void handleOutcome(RequestState& rs, std::size_t idx,
                       const sim::SweepOutcome& o, unsigned attempt,
                       std::string fragment = {});
    /** Final-outcome bookkeeping: fragment, journal, counters. */
    void finalizePoint(RequestState& rs, std::size_t idx,
                       PointRecord rec);
    /** Stop-aware exponential backoff before retry round @p attempt. */
    void backoffSleep(unsigned attempt,
                      const std::atomic<bool>& stop) const;
    void finishRequest(RequestState& rs, bool interrupted);

    // ---- Documents -----------------------------------------------------
    std::string renderResultDoc(const std::string& id,
                                const std::string& client, int priority,
                                const std::string& status,
                                const std::string& reason,
                                const std::string& detail,
                                const std::vector<PointRecord>& points)
        const;
    void writeStatusDoc(const std::string& state);
    void checkpointJournal();

    std::uint64_t configHash(const SweepRequest& r,
                             const sim::DesignSpec& d) const;

    ServeConfig cfg_;
    Spool spool_;
    Journal journal_;
    WarmCache warm_;
    prog::WorkloadCache programs_;

    std::deque<RequestState> queue_;
    /** Requests parked by a drain: partial results flushed, undone
     *  work left in active/ for the next daemon; their journal
     *  records survive the exit checkpoint. */
    std::vector<RequestState> parked_;
    /** Journal-recovered final points: id -> (idx -> record). */
    std::map<std::string, std::map<std::size_t, PointRecord>>
        recovered_;
    /** Journal-recovered retired requests: id -> final status. */
    std::map<std::string, std::string> recoveredDone_;
    std::size_t retired_ = 0;
    /** Serializes point finalization (journal + counters + records)
     *  against concurrent sweep-worker completions. */
    std::mutex finalizeM_;

    StatGroup stats_{"serve"};
    Stat<Counter> accepted_{stats_, "accepted", "requests admitted"};
    Stat<Counter> rejectedReqs_{stats_, "rejected",
                                "requests refused at admission"};
    Stat<Counter> shed_{stats_, "shed",
                        "queued requests evicted by priority"};
    Stat<Counter> completedOk_{stats_, "completed_ok",
                               "requests retired fully successful"};
    Stat<Counter> completedFailed_{stats_, "completed_failed",
                                   "requests retired with failures"};
    Stat<Counter> pointsOk_{stats_, "points_ok",
                            "grid points simulated successfully"};
    Stat<Counter> pointsFailed_{stats_, "points_failed",
                                "grid points failed permanently"};
    Stat<Counter> retries_{stats_, "retries",
                           "transient-failure re-executions"};
    Stat<Counter> timeouts_{stats_, "timeouts",
                            "points killed by the wall-clock watchdog"};
    Stat<Counter> recoveredPoints_{
        stats_, "recovered_points",
        "journaled point results replayed at startup"};
    Stat<Counter> interrupted_{stats_, "interrupted",
                               "requests parked by a drain"};
    Stat<Counter> arrivalWakeups_{
        stats_, "arrival_wakeups",
        "idle waits ended by a request renamed into incoming/"};

    scope::StatRegistry registry_;
};

} // namespace cobra::serve

#endif // COBRA_SERVE_DAEMON_HPP
