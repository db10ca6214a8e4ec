/**
 * @file
 * BranchPredictorUnit: the complete COBRA-generated predictor
 * pipeline plus its management structures (paper §IV-B): composed
 * predictor, global/local history providers, history file, and the
 * update/repair state machine that dequeues commit updates and
 * performs the post-mispredict walk.
 *
 * The frontend drives queries (begin/stage/finalize/kill) and owns
 * the global-history repair *policy* (§VI-B modes); this class owns
 * the mechanisms.
 */

#ifndef COBRA_BPU_BPU_HPP
#define COBRA_BPU_BPU_HPP

#include <deque>
#include <memory>

#include "bpu/composer.hpp"
#include "bpu/ghist.hpp"
#include "bpu/history_file.hpp"
#include "bpu/lhist.hpp"
#include "bpu/phist.hpp"
#include "common/stats.hpp"
#include "scope/tracer.hpp"

namespace cobra::bpu {

/** Configuration of the management structures. */
struct BpuConfig
{
    unsigned fetchWidth = 4;
    unsigned historyFileEntries = 64;
    unsigned ghistBits = 64;
    unsigned lhistSets = 256;
    unsigned lhistBits = 32;
    unsigned phistBits = 32; ///< Path-history register length.
    /** Repair-walk throughput (entries per cycle, §IV-B2). */
    unsigned walkWidth = 1;
    /** Commit updates issued per cycle. */
    unsigned updateWidth = 1;
    /**
     * Global-history repair policy at mispredicts (paper §VI-B): the
     * backend restores the history on a mispredict, and the frontend
     * replays packets whose fetch-time bits turn out wrong.
     */
    GhistRepairMode ghistMode = GhistRepairMode::RepairAndReplay;

    /**
     * Check structural invariants; throws guard::ConfigError with an
     * actionable message on the first violation.
     */
    void validate() const;
};

/** Arguments for finalizing a query at Fetch-3. */
struct FinalizeArgs
{
    const PredictionBundle* finalPred = nullptr;
    /** Pre-decoded conditional-branch mask for the packet. */
    std::array<bool, kMaxFetchWidth> brMask{};
    /** Slots actually fetched (truncated at a predicted-taken CFI). */
    unsigned fetchedSlots = 0;
    SeqNum firstSeq = kInvalidSeq;
    std::uint32_t rasPtr = 0;
};

/** Per-branch resolution notice from the backend. */
struct BranchResolution
{
    FtqPos ftq = 0;
    unsigned slot = 0;
    CfiType type = CfiType::Br;
    bool taken = false;
    Addr target = kInvalidAddr;
    bool isCall = false;
    bool isRet = false;
    bool mispredicted = false;
    /** SFB-converted branch: resolve without training (§VI-C). */
    bool sfbConverted = false;
};

/**
 * The assembled predictor unit. Created from a Topology via the
 * composer; drop-in integrated into the core's frontend (paper
 * §IV-C).
 */
class BranchPredictorUnit
{
  public:
    BranchPredictorUnit(Topology topo, const BpuConfig& cfg);

    const BpuConfig& config() const { return cfg_; }
    ComposedPredictor& predictor() { return pred_; }
    const ComposedPredictor& predictor() const { return pred_; }
    unsigned maxLatency() const { return pred_.maxLatency(); }

    // ---- Frontend query interface -------------------------------------

    /** Begin a query at Fetch-0. */
    void beginQuery(QueryState& q, Addr pc, unsigned valid_slots);

    /**
     * Evaluate the composed bundle at stage @p d. Captures histories
     * at the Fetch-1/Fetch-2 boundary (paper §III-B, Fig. 2). The
     * bundle belongs to @p q and is rebuilt by the next call.
     */
    const PredictionBundle& stage(QueryState& q, unsigned d);

    /** True when a new history-file entry can be allocated. */
    bool canFinalize() const { return !hf_.full(); }

    /**
     * Capture histories for a query explicitly (the frontend calls
     * this at the end of Fetch-1, before the packet's own speculative
     * history push). Idempotent.
     */
    void
    captureHistory(QueryState& q)
    {
        if (!q.historyCaptured()) {
            q.captureHistory(ghist_.current(), lhist_.read(q.pc()),
                             phist_.current());
        }
    }

    /**
     * Finalize at Fetch-3: allocate the history file entry, deliver
     * fire events, and speculatively update the local history.
     * Requires canFinalize().
     */
    FtqPos finalize(QueryState& q, const FinalizeArgs& args);

    // ---- Speculative global history (mechanism only) -------------------

    const HistoryRegister& specGhist() const { return ghist_.current(); }
    void pushSpecGhist(bool taken) { ghist_.push(taken); }
    void restoreSpecGhist(const HistoryRegister& h) { ghist_.restore(h); }

    // ---- Backend interface ----------------------------------------------

    /**
     * Resolve one control-flow instruction. On a mispredict this
     * delivers the fast mispredict event, squashes younger history
     * file entries, and queues the repair walk.
     */
    void resolve(const BranchResolution& res);

    /** Mark the packet at @p pos fully committed (ready to update). */
    void commitPacket(FtqPos pos);

    /** Advance the update/repair state machine by one cycle (§IV-B2). */
    void tick();

    /**
     * True when tick() would do nothing: no repair walk is queued and
     * the history-file head can be neither dequeued nor updated. Only
     * a commit or a resolution from the backend ends it.
     */
    bool idle() const;

    /** True while the repair walk occupies the machine. */
    bool walkBusy() const { return !repairQueue_.empty(); }

    const HistoryFile& historyFile() const { return hf_; }
    HistoryFile& historyFile() { return hf_; }
    const LocalHistoryProvider& localHistory() const { return lhist_; }
    const PathHistoryProvider& pathHistory() const { return phist_; }

    // ---- Accounting -----------------------------------------------------

    /** Sub-component storage (Table I's per-design storage column). */
    std::uint64_t componentStorageBits() const
    {
        return pred_.storageBits();
    }

    /** Management-structure storage ("Meta" in Fig. 8). */
    std::uint64_t managementStorageBits() const;

    /** Full area breakdown across sub-components + Meta (Fig. 8). */
    phys::AreaReport areaReport(const phys::AreaModel& model) const;

    /**
     * Access-energy breakdown using this unit's recorded event counts
     * (queries drive predict-side reads, commit updates drive
     * writes) — the §VI-A future-work concern, modelled.
     */
    phys::EnergyReport energyReport(const phys::EnergyModel& model) const;

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /**
     * Checkpoint a quiesced BPU (empty history file, no repair walk
     * queued; the simulator checks): the histories, the query serial,
     * the history file's position, and every composed component (each
     * bracketed by a name-tagged section). Event counters round-trip
     * with the stat registry, not here.
     */
    void saveState(warp::StateWriter& w) const;
    void restoreState(warp::StateReader& r);

    /** Attach a CobraScope tracer (nullptr detaches; not owned). */
    void setTracer(scope::Tracer* t) { tracer_ = t; }

  private:
    /** True when @p e carries a branch or CFI that trains at commit;
     *  a committed entry without one drains for free. */
    static bool needsUpdate(const HistoryFileEntry& e);

    /** Build the common ResolveEvent payload from an entry. */
    ResolveEvent makeEvent(const HistoryFileEntry& e, FtqPos pos) const;

    /** Queue walk-repair jobs for entries (pos, tail), youngest first. */
    void queueRepairWalk(FtqPos after);

    BpuConfig cfg_;
    ComposedPredictor pred_;
    GlobalHistoryProvider ghist_;
    LocalHistoryProvider lhist_;
    PathHistoryProvider phist_;
    HistoryFile hf_;

    /** A squashed entry awaiting its repair event, with the position
     *  it occupied (so repair events carry a truthful ftqIdx). */
    struct RepairJob
    {
        HistoryFileEntry entry;
        FtqPos pos = 0;
    };

    /** Copies of squashed entries awaiting their repair event. */
    std::deque<RepairJob> repairQueue_;

    /** Monotonic query id handed to PredictContext::serial. */
    std::uint64_t querySerial_ = 0;

    scope::Tracer* tracer_ = nullptr;

    StatGroup stats_{"bpu"};
    Stat<Counter> queries_{stats_, "queries",
                           "prediction queries begun at Fetch-0"};
    Stat<Counter> finalized_{stats_, "finalized",
                             "queries finalized into history-file entries"};
    Stat<Counter> mispredicts_{stats_, "mispredicts",
                               "resolved mispredictions reaching the BPU"};
    Stat<Counter> repairWalks_{stats_, "repair_walks",
                               "repair walks queued after mispredicts"};
    Stat<Counter> repairEvents_{stats_, "repair_events",
                                "per-entry repair events delivered"};
    Stat<Counter> updates_{stats_, "updates",
                           "commit-time training updates issued"};
};

} // namespace cobra::bpu

#endif // COBRA_BPU_BPU_HPP
