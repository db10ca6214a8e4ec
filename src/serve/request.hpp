/**
 * @file
 * cobra_serve request documents: the JSON schema a client drops into
 * `spool/incoming/`, parsed and validated into a SweepRequest before
 * any simulation work is admitted. A sweep request names a (design x
 * workload) grid plus the run options cobra_sim exposes as flags, an
 * optional warp block, and the robustness envelope (priority class,
 * per-point wall-clock timeout, retry budget). Designs come from the
 * "designs" list (preset names, resolved via sim::presetSpec) and/or
 * the "design_spec" field (inline DesignSpec documents) — both feed
 * the same sim::DesignSpec construction path, so a preset name and
 * its dumped spec produce bit-identical points. A `"kind": "search"`
 * request instead carries a "search" block (the cobra_search knobs)
 * and retires as a single point whose result is the Pareto-frontier
 * artifact. See docs/SERVICE.md for the full schema.
 *
 * Parsing is total: every malformed document becomes a RequestError
 * whose text names the offending field — the daemon turns it into a
 * structured `invalid_request` rejection record, never a crash.
 */

#ifndef COBRA_SERVE_REQUEST_HPP
#define COBRA_SERVE_REQUEST_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "search/driver.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"

namespace cobra::serve {

/** A structurally invalid request document. */
class RequestError : public std::runtime_error
{
  public:
    explicit RequestError(const std::string& msg)
        : std::runtime_error("invalid request: " + msg)
    {
    }
};

/** One grid cell of a request: a (design, workload) evaluation. */
struct PointSpec
{
    sim::DesignSpec design;
    std::string workload;
    std::string label; ///< "<design>/<workload>", unique per request.
};

/** A parsed, validated sweep- or search-request document. */
struct SweepRequest
{
    std::string id;     ///< Unique id (document or spool filename).
    std::string client; ///< Submitting client (quota accounting).
    /** Priority class 0..3; higher wins admission and scheduling. */
    int priority = 1;
    /** "sweep" (default) or "search" (budgeted composition search). */
    std::string kind = "sweep";

    std::vector<sim::DesignSpec> designs;
    std::vector<std::string> workloads;

    /**
     * "trace" field: path to a captured (CapturedOracle) trace file;
     * every point replays the oracle stream from it instead of
     * regenerating outcomes — bit-identical results, decode shared
     * across the grid. Requires exactly one workload (a capture is
     * tied to one program). The file itself is opened and validated
     * at admission, so a corrupt or mismatched trace becomes an
     * `invalid_trace` rejection document, never a failing point.
     */
    std::string tracePath;

    // ---- Run options (cobra_sim flag equivalents) ---------------------
    std::uint64_t insts = 400'000;
    std::uint64_t warmup = 120'000;
    bpu::GhistRepairMode ghist = bpu::GhistRepairMode::RepairAndReplay;
    bool sfb = false;
    bool serialize = false;
    bool audit = false;
    double faultRate = 0.0;
    std::uint64_t faultSeed = 0x5EED;
    std::uint64_t deadlockCycles = 100'000;

    // ---- Robustness envelope ------------------------------------------
    /** Per-point wall-clock watchdog; 0 = no deadline. */
    std::uint64_t pointTimeoutMs = 0;
    /** Extra attempts for transient failure classes. */
    unsigned maxRetries = 2;

    // ---- Warp block ----------------------------------------------------
    bool warp = false;
    unsigned intervals = 4;
    std::uint64_t warmupCycles = 10'000;
    std::uint64_t sampleInsts = 0;

    // ---- Search block ("kind": "search" only) --------------------------
    /** cobra_search configuration; workloads come from "workloads". */
    search::SearchConfig searchCfg;

    /**
     * Parse and validate one request document. @p fallback_id names
     * the request when the document carries no "id" (the daemon
     * passes the spool filename stem). Throws RequestError on any
     * structural or semantic violation (unknown design/workload, bad
     * priority, warmup > insts, ...).
     */
    static SweepRequest parse(const std::string& text,
                              const std::string& fallback_id);

    /**
     * The request's grid, workload-major (cobra_sim's order). A
     * search request is a single point labeled "search".
     */
    std::vector<PointSpec> points() const;

    /** cobra_sim-equivalent SimConfig for one design of this request. */
    sim::SimConfig makeConfig(const sim::DesignSpec& d) const;
};

} // namespace cobra::serve

#endif // COBRA_SERVE_REQUEST_HPP
