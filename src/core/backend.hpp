/**
 * @file
 * The out-of-order backend: decode/dispatch (with the short-forwards-
 * branch predication pass of paper §VI-C), a ROB-based dataflow
 * scheduler with issue-port and queue-capacity limits per Table II,
 * out-of-order branch resolution with squash/redirect, and in-order
 * commit driving the predictor's commit-time updates.
 */

#ifndef COBRA_CORE_BACKEND_HPP
#define COBRA_CORE_BACKEND_HPP

#include <cassert>
#include <limits>
#include <unordered_map>
#include <vector>

#include "bpu/bpu.hpp"
#include "core/cache.hpp"
#include "core/frontend.hpp"
#include "exec/oracle.hpp"

namespace cobra::core {

/** Backend configuration (Table II). */
struct BackendConfig
{
    unsigned coreWidth = 4;     ///< Decode/rename/commit width.
    unsigned robEntries = 128;
    unsigned intIqEntries = 32;
    unsigned memIqEntries = 32;
    unsigned fpIqEntries = 32;
    unsigned ldqEntries = 32;
    unsigned stqEntries = 32;
    unsigned aluPorts = 4;
    unsigned memPorts = 2;
    unsigned fpPorts = 2;
    /** Cycles from dispatch to earliest issue (decode/rename depth). */
    unsigned decodeDelay = 3;

    /** Short-forwards-branch predication (paper §VI-C). */
    bool sfbEnabled = false;
    unsigned sfbMaxShadowBytes = 32;
};

/**
 * The execution engine. Consumes FetchedInsts from the frontend's
 * fetch buffer; resolves branches against the oracle outcomes carried
 * by each instruction.
 */
class Backend
{
  public:
    Backend(exec::Oracle& oracle, bpu::BranchPredictorUnit& bpu,
            Frontend& frontend, CacheHierarchy& caches,
            const BackendConfig& cfg);

    /** Advance one cycle (execute-complete, issue, commit, dispatch). */
    void tick(Cycle now);

    // ---- Idle-cycle skip (Simulator) -----------------------------------

    /**
     * First cycle at or after @p now at which tick() does more than
     * bump a dispatch-stall counter: @p now while the ROB head is done,
     * a ready bit is set or the fetch buffer's front instruction can
     * dispatch; otherwise the earlier of the next completion
     * (nextDoneCycle_) and the next unarmed entry's earliestIssue.
     */
    Cycle wakeCycle(Cycle now) const;

    /**
     * Credit the dispatch stall that @p n ticks bump while wakeCycle()
     * lies beyond them: the one the fetch buffer's front instruction
     * hits, if the buffer holds any.
     */
    void creditIdle(std::uint64_t n);

    std::size_t robSize() const { return robCount_; }

    /** Snapshot of the ROB head for the watchdog post-mortem. */
    struct RobHeadView
    {
        bool valid = false;
        Addr pc = kInvalidAddr;
        SeqNum seq = kInvalidSeq;
        std::uint64_t ftq = 0;
        const char* state = "empty"; ///< waiting / issued / done.
        bool wrongPath = false;
    };

    RobHeadView robHead() const;

    // ---- Metrics -------------------------------------------------------

    std::uint64_t committedInsts() const { return committedInsts_; }
    std::uint64_t committedBranches() const { return committedBranches_; }
    std::uint64_t committedCfis() const { return committedCfis_; }
    std::uint64_t condMispredicts() const { return condMispredicts_; }
    std::uint64_t jalrMispredicts() const { return jalrMispredicts_; }
    std::uint64_t sfbConversions() const { return sfbConversions_; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Attach a CobraScope tracer (nullptr detaches; not owned). */
    void setTracer(scope::Tracer* t) { tracer_ = t; }

    const BackendConfig& config() const { return cfg_; }

    /** The CFI type a resolution of @p op reports to the predictor
     *  (None for an instruction that is not control flow). */
    static bpu::CfiType cfiTypeOf(prog::OpClass op);

  private:
    enum class IqClass : std::uint8_t { Int = 0, Mem = 1, Fp = 2 };

    struct RobEntry
    {
        FetchedInst fi;
        enum class St : std::uint8_t { Waiting, Issued, Done };
        St st = St::Waiting;
        IqClass iq = IqClass::Int;
        Cycle earliestIssue = 0;
        Cycle doneCycle = 0;
        bool wasMispredict = false;
        bool sfbConverted = false; ///< Branch turned into set-flag.
        bool sfbShadow = false;    ///< Predicated shadow instruction.
        std::uint64_t sfbGuard = 0; ///< dynId of the guarding branch.
        /** Monotone dispatch id; wakeup links name consumers by it. */
        std::uint64_t robId = 0;
    };

    static constexpr std::uint64_t kNoRobId =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::uint32_t kNoSlot =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * Direct-mapped scoreboard of in-flight oracle seq numbers. Live
     * seqs span at most robEntries consecutive values, so a
     * power-of-two table of >= 2x that can never alias two live
     * entries. robSlot locates the producer's wakeup list.
     */
    struct SeqSlot
    {
        SeqNum seq = kInvalidSeq;
        std::uint8_t done = 0;
        std::uint32_t robSlot = kNoSlot;
    };

    void
    seqInsert(SeqNum seq, std::size_t slot)
    {
        SeqSlot& s = seqTable_[seq & seqMask_];
        assert(s.seq == kInvalidSeq || s.seq == seq);
        s = SeqSlot{seq, 0, static_cast<std::uint32_t>(slot)};
    }

    void
    seqErase(SeqNum seq)
    {
        SeqSlot& s = seqTable_[seq & seqMask_];
        if (s.seq == seq)
            s.seq = kInvalidSeq;
    }

    // ---- Wakeup and select ---------------------------------------------
    // Derived from the ROB, the seq scoreboard and the guard map.
    // Select is oldest first per IQ class: it issues what an
    // age-ordered scan of the Waiting entries would, and loads and
    // stores reach the caches in that same order.

    /** A consumer waiting on this slot's result (stale once its slot
     *  no longer holds robId). */
    struct WakeLink
    {
        std::uint32_t slot;
        std::uint64_t robId;
    };

    /** Per-ROB-slot wakeup state, apart from the fat RobEntry so a
     *  wakeup touches one small record. */
    struct SlotSched
    {
        std::uint64_t robId = kNoRobId; ///< Owner; kNoRobId when dead.
        std::uint8_t pending = 0; ///< Unready deps + unresolved guard.
        IqClass iq = IqClass::Int;
        std::vector<WakeLink> consumers; ///< Keeps its capacity.
    };

    /** One bit per ROB ring slot. */
    using SlotMask = std::vector<std::uint64_t>;

    /**
     * Visit the set bits of @p m oldest first, from the ROB head
     * around the ring, until @p f returns false. Bits are read a word
     * at a time, so @p f may clear the bit it is handed.
     */
    template <typename F>
    void forEachOldestFirst(const SlotMask& m, F&& f) const;

    /** Age position (0 = ROB head) of ring slot @p slot. */
    std::size_t
    positionOf(std::size_t slot) const
    {
        return (slot - robHeadIdx_) & robMask_;
    }

    /**
     * Give the entry at @p slot that slot's wakeup state and link it to
     * every producer it still awaits (@p guardSlot holds its SFB guard).
     */
    void linkSources(std::size_t slot, std::size_t guardSlot);
    /** A completing entry decrements its consumers' pending counts. */
    void wakeConsumers(std::size_t producer);
    static IqClass iqClassOf(prog::OpClass op);

    /** A dispatch-stall counter of this backend. */
    using StallCounter = Stat<Counter> Backend::*;

    /**
     * The counter @p fi bumps when it cannot dispatch this cycle (ROB,
     * issue queue, load queue, store queue, in that order), or nullptr
     * when it can. dispatch() and creditIdle() both classify through
     * it.
     */
    StallCounter dispatchStall(const FetchedInst& fi) const;

    void completeAndResolve(Cycle now);
    void issue(Cycle now);
    void commit(Cycle now);
    void dispatch(Cycle now);

    /** Resolve a CF instruction; true if it squashed the pipeline. */
    bool resolveCf(std::size_t idx, Cycle now);

    /** Squash ROB entries younger than index @p idx. */
    void squashYoungerThan(std::size_t idx);

    /** Execution latency for an instruction issued at @p now. */
    Cycle execLatency(const exec::DynInst& di);

    exec::Oracle& oracle_;
    bpu::BranchPredictorUnit& bpu_;
    Frontend& frontend_;
    CacheHierarchy& caches_;
    BackendConfig cfg_;

    // ---- ROB ring buffer ------------------------------------------------
    // A power-of-two ring: positions index with a mask, and an entry
    // keeps its ring slot while in flight, so the per-slot wakeup state
    // and bitmasks can name it.

    RobEntry& robAt(std::size_t i)
    {
        return robBuf_[(robHeadIdx_ + i) & robMask_];
    }
    const RobEntry& robAt(std::size_t i) const
    {
        return robBuf_[(robHeadIdx_ + i) & robMask_];
    }

    void
    robPopFront()
    {
        robHeadIdx_ = (robHeadIdx_ + 1) & robMask_;
        --robCount_;
    }

    void robPopBack() { --robCount_; }

    std::vector<RobEntry> robBuf_;
    std::size_t robHeadIdx_ = 0;
    std::size_t robCount_ = 0;
    std::size_t robMask_ = 0;

    /** Oracle seq -> in-flight state (dependence tracking). */
    std::vector<SeqSlot> seqTable_;
    std::size_t seqMask_ = 0;
    /** dynId -> done flag for SFB guards. */
    std::unordered_map<std::uint64_t, bool> sfbGuardDone_;

    std::vector<SlotSched> sched_;
    /** Waiting, operands ready and decode delay passed; per IQ class. */
    SlotMask ready_[3];
    /** Entries in St::Issued. */
    SlotMask issuedSlots_;
    /**
     * The oldest armed_ entries have passed earliestIssue (which is
     * monotone in ROB order); issue advances it each cycle.
     */
    std::size_t armed_ = 0;
    /** ROB slot of the active SFB region's guard. */
    std::size_t sfbActiveGuardSlot_ = 0;

    /** Entries currently in St::Issued. */
    unsigned issuedCount_ = 0;
    /** Lower bound on the earliest doneCycle among issued entries. */
    Cycle nextDoneCycle_ = 0;
    /** Next robId to assign at dispatch. */
    std::uint64_t robIdNext_ = 0;

    unsigned iqCount_[3] = {0, 0, 0};
    unsigned ldqCount_ = 0;
    unsigned stqCount_ = 0;

    /** Active SFB region during dispatch. */
    bool sfbActive_ = false;
    std::uint64_t sfbActiveGuard_ = 0;
    Addr sfbActiveTarget_ = 0;

    bpu::FtqPos lastCommittedFtq_ = 0;
    bool anyCommitted_ = false;

    std::uint64_t committedInsts_ = 0;
    std::uint64_t committedBranches_ = 0;
    std::uint64_t committedCfis_ = 0;
    std::uint64_t condMispredicts_ = 0;
    std::uint64_t jalrMispredicts_ = 0;
    std::uint64_t sfbConversions_ = 0;

    scope::Tracer* tracer_ = nullptr;

    // Registered stat handles (stats_ must precede them): per-cycle
    // paths increment the members directly.
    StatGroup stats_{"backend"};
    Stat<Counter> resolvedMispredicts_{
        stats_, "resolved_mispredicts",
        "mispredicts resolved at execute (incl. wrong-path)"};
    Stat<Counter> issued_{stats_, "issued", "instructions issued"};
    Stat<Counter> committed_{stats_, "committed",
                             "instructions committed"};
    Stat<Counter> stallRob_{stats_, "stall_rob",
                            "dispatch stalls on a full ROB"};
    Stat<Counter> stallIq_{stats_, "stall_iq",
                           "dispatch stalls on a full issue queue"};
    Stat<Counter> stallLdq_{stats_, "stall_ldq",
                            "dispatch stalls on a full load queue"};
    Stat<Counter> stallStq_{stats_, "stall_stq",
                            "dispatch stalls on a full store queue"};
    Stat<Counter> dispatched_{stats_, "dispatched",
                              "instructions dispatched into the ROB"};
};

} // namespace cobra::core

#endif // COBRA_CORE_BACKEND_HPP
