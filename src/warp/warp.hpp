/**
 * @file
 * Warp driver: time-parallel sampled simulation of one long run. The
 * run's instruction stream is cut into K intervals; a serial
 * functional fast-forward pass (with predictor/cache warming) lays a
 * checkpoint at each interval boundary, and the intervals are then
 * simulated concurrently on the SweepEngine pool — each interval
 * restores its checkpoint, re-warms the detailed pipeline for a
 * configurable cycle prefix (discarded), and measures a bounded
 * instruction sample. The per-interval samples are stitched into a
 * whole-run IPC/MPKI estimate with confidence intervals from the
 * interval-to-interval variance (SMARTS-style systematic sampling).
 *
 * Three independent sources of speedup compose:
 *  - sampling: only `sampleInsts` of each interval run in detail, the
 *    rest advance at functional fast-forward speed (the dominant win
 *    on any host);
 *  - time-parallelism: intervals run concurrently on the worker pool
 *    (wins on multi-core hosts);
 *  - batching: runWarps takes many independent runs at once, so one
 *    run's serial fast-forward overlaps the others' instead of leaving
 *    the rest of the pool idle (wins whenever a caller has more than
 *    one run to make, as the search's warp tier and cobra_sim --warp
 *    grids do).
 */

#ifndef COBRA_WARP_WARP_HPP
#define COBRA_WARP_WARP_HPP

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "warp/snapshot.hpp"

namespace cobra::warp {

/** Warp-mode parameters. */
struct WarpConfig
{
    /** Number of intervals the measured region is cut into. */
    unsigned intervals = 4;
    /**
     * Detailed warmup prefix per interval (cycles, discarded): the
     * restored checkpoint has warm predictors/caches but an empty
     * pipeline, so the first cycles re-fill fetch and the ROB.
     */
    std::uint64_t warmupCycles = 10'000;
    /**
     * Instructions measured in detail per interval; 0 measures the
     * whole interval (no sampling — time-parallelism only).
     */
    std::uint64_t sampleInsts = 0;
    /** Report interval completion to stderr. */
    bool progress = false;
    /** Persist per-interval checkpoints here when non-empty. */
    std::string checkpointDir;

    // ---- Warm-state cache hooks (cobra_serve) -------------------------
    //
    // When snapshotLookup is set it is tried for every interval
    // before the fast-forward pass; only if ALL intervals produce a
    // snapshot that matches this run's configuration fingerprint and
    // interval placement is the pass skipped (a warm hit — repeat
    // evaluations of a (workload, config) pair skip fast-forward
    // entirely and are bit-identical to a cold run, since the
    // intervals restore the exact bytes the cold run checkpointed).
    // Any mismatched or missing entry falls back to a full cold pass,
    // and snapshotStore is then offered every freshly-captured
    // snapshot. Lookup implementations must validate their storage
    // (guard::CheckpointError on corruption -> evict and return
    // false, never return a snapshot they cannot vouch for).
    //
    // Both hooks run on the thread that runs the job's serial phase.
    // In a runWarps batch, the hooks of different jobs may run
    // concurrently, so hooks shared between jobs must synchronise;
    // one job's own hook calls never overlap.

    /** Fill @p out for interval @p idx; false = cache miss. */
    std::function<bool(unsigned idx, Snapshot& out)> snapshotLookup;
    /** Offer interval @p idx's freshly-captured snapshot. */
    std::function<void(unsigned idx, const Snapshot& snap)>
        snapshotStore;

    /** Throws guard::ConfigError on invalid settings. */
    void validate() const;
};

/** One interval's sample. */
struct WarpInterval
{
    /** Absolute instruction index of the interval start. */
    std::uint64_t startInst = 0;
    /** Instructions the interval spans in the full run. */
    std::uint64_t lengthInsts = 0;
    /** Instructions measured in detail (<= lengthInsts). */
    std::uint64_t sampledInsts = 0;
    /**
     * Absolute instruction index where the detailed sample begins:
     * the interval midpoint, so a within-interval learning trend
     * cancels to first order instead of biasing the extrapolation.
     */
    std::uint64_t sampleStart = 0;
    sim::SimResult result;
    double ipc = 0.0;
    double mpki = 0.0;
};

/** The stitched whole-run estimate. */
struct WarpEstimate
{
    /**
     * Whole-run estimate expressed as a SimResult: each interval's
     * sampled counts scaled by lengthInsts / sampled insts, summed
     * (so estimate.ipc() and estimate.mpki() reproduce the stitched
     * ipc/mpki fields up to rounding). This is the result the CLI and
     * the JSON writers report for a warp point.
     */
    sim::SimResult estimate;
    /** Whole-run IPC estimate (length-weighted harmonic stitch). */
    double ipc = 0.0;
    /** Whole-run branch-MPKI estimate (length-weighted). */
    double mpki = 0.0;
    /** 95% confidence half-widths from interval variance. */
    double ipcCi95 = 0.0;
    double mpkiCi95 = 0.0;
    /** Relative half-width (ipcCi95 / ipc), the reported error bar. */
    double ipcRelErr = 0.0;

    /** Instructions advanced functionally (fast-forward); 0 when the
     *  interval checkpoints all came from the warm-state cache. */
    std::uint64_t ffInsts = 0;
    /** Interval checkpoints served by the warm-state cache (0 on a
     *  cold run, intervals.size() on a full warm hit — partial hits
     *  do not exist: one miss forces a full cold pass). */
    unsigned warmHits = 0;
    /** Cycles simulated in detail across all intervals. */
    std::uint64_t detailedCycles = 0;
    /** Of which warmup (discarded) cycles. */
    std::uint64_t warmupCycles = 0;
    /** Of detailedCycles, those the loop evaluated rather than skipped
     *  as idle. */
    std::uint64_t detailedTicks = 0;
    /** Instructions measured in detail across all intervals. */
    std::uint64_t detailedInsts = 0;

    /**
     * CobraScope stat-group hierarchy (JSON object) of the last
     * interval's simulator, whose checkpointed stats span the whole
     * warmed run; counters mix fast-forward warming with that
     * interval's detailed sample, so the authoritative whole-run
     * numbers are `estimate` and the `warp` group, not this tree.
     */
    std::string groupsJson;

    std::vector<WarpInterval> intervals;
};

/**
 * The stats-document group tree for a warp point: `groupsJson` with a
 * synthetic "warp" group spliced in, recording the fast-forward /
 * detailed cycle split and the estimated error (CI half-widths in
 * parts-per-million, since stat counters are unsigned integers).
 * Validates against tools/stats_schema.json like any registry render.
 */
std::string statsGroupsJson(const WarpEstimate& est);

/** One warp run of a runWarps batch. */
struct WarpJob
{
    /** Borrowed read-only; must outlive the batch. */
    const prog::Program* program = nullptr;
    /** Called once per interval plus once for the fast-forward pass
     *  (topologies are single-use). */
    std::function<bpu::Topology()> topology;
    sim::SimConfig cfg;
    WarpConfig wcfg;
};

/** One job's result: its estimate, or the exception it ended with. */
struct WarpOutcome
{
    WarpEstimate estimate;
    /** Why the job failed, null on success: guard::ConfigError for an
     *  invalid WarpConfig, guard::SimError when an interval fails. */
    std::exception_ptr exception;
};

/**
 * Run independent warp runs as one batch on one pool of @p jobs
 * workers (0 = SweepEngine::defaultJobs()), in three phases:
 *  1. every job's serial part runs concurrently, one task per job:
 *     interval placement, the warm-cache probe, and on a miss the
 *     fast-forward pass with its checkpoints (and checkpointDir
 *     files, which each job writes itself — jobs that share a
 *     checkpointDir write the same file names, so give each its own);
 *  2. the intervals of every job run on the pool together;
 *  3. each job's estimate, or its exception, comes back in
 *     submission order.
 * A job that fails in phase 1 queues no intervals. Each estimate
 * depends only on its own job's inputs, so it equals that job's result
 * in a one-job batch at any @p jobs and any batch composition. Every
 * job's K checkpoints stay alive from the end of its phase 1 until its
 * intervals restore them, so a caller with a large grid bounds memory
 * by submitting it in batches (cobra_sim --warp uses the pool width).
 */
std::vector<WarpOutcome> runWarps(const std::vector<WarpJob>& batch,
                                  unsigned jobs);

} // namespace cobra::warp

#endif // COBRA_WARP_WARP_HPP
