/**
 * @file
 * The instruction fetch unit (paper Fig. 6): a staged fetch pipeline
 * driving the COBRA-generated predictor. F0 selects a PC and queries
 * the predictor; histories are captured at the end of F1; stage-d
 * bundles can re-steer fetch (killing d-1 younger in-flight packets,
 * the composer's redirection logic of §IV-B); the final stage
 * pre-decodes the packet, resolves the next PC with RAS assistance,
 * allocates the history file entry, and delivers instructions to the
 * fetch buffer.
 *
 * The frontend owns the global-history speculation *policy*
 * (GhistRepairMode, the §VI-B experiment) and the fetch-serialization
 * ablation (§I's 15%-IPC claim).
 */

#ifndef COBRA_CORE_FRONTEND_HPP
#define COBRA_CORE_FRONTEND_HPP

#include <deque>
#include <memory>
#include <vector>

#include "bpu/bpu.hpp"
#include "common/small_vector.hpp"
#include "core/cache.hpp"
#include "core/ras.hpp"
#include "exec/oracle.hpp"
#include "program/program.hpp"
#include "scope/tracer.hpp"

namespace cobra::core {

/** One instruction delivered to the backend. */
struct FetchedInst
{
    exec::DynInst di;          ///< Truth (oracle) or wrong-path synth.
    bpu::FtqPos ftq = 0;       ///< History-file entry of the packet.
    unsigned slot = 0;         ///< Aligned slot within the packet.
    bool predTaken = false;    ///< Fetch-time direction used (CF only).
    Addr predNextPc = kInvalidAddr; ///< Fetch-time next-PC used.
    bool isPacketCfi = false;  ///< This was the packet's predicted CFI.
    std::uint64_t dynId = 0;   ///< Monotonic id across all fetched insts.
};

/** Frontend configuration. */
struct FrontendConfig
{
    unsigned fetchWidth = 4;        ///< Slots per aligned fetch packet.
    unsigned fetchBufferInsts = 32; ///< Fetch buffer capacity.
    unsigned rasEntries = 16;
    /** Serialize fetch behind branches (one branch per packet, §I). */
    bool serializeFetch = false;
};

/**
 * The fetch unit. Drives the oracle for correct-path instruction
 * content and synthesises wrong-path content after divergence
 * (DESIGN.md §4).
 */
class Frontend
{
  public:
    Frontend(const prog::Program& program, exec::Oracle& oracle,
             bpu::BranchPredictorUnit& bpu, CacheHierarchy& caches,
             const FrontendConfig& cfg);

    /** Advance one cycle. */
    void tick(Cycle now);

    // ---- Idle-cycle skip (Simulator) -----------------------------------

    /**
     * First cycle at or after @p now at which tick() does more than
     * bump stall counters: the oldest packet's I-cache fill cycle while
     * it waits on a miss; kNever while it waits at the final stage on
     * a full history file or fetch buffer, which only the backend or
     * the BPU can free; otherwise @p now.
     */
    Cycle wakeCycle(Cycle now) const;

    /**
     * Credit the counters that @p n ticks from @p now would bump while
     * wakeCycle(now) lies beyond them: fetch_bubbles, and the finalize
     * stall the oldest packet waits on.
     */
    void creditIdle(Cycle now, std::uint64_t n);

    // ---- Backend-facing fetch buffer ----------------------------------

    bool bufferEmpty() const { return buffer_.empty(); }
    std::size_t bufferSize() const { return buffer_.size(); }
    const FetchedInst& bufferFront() const { return buffer_.front(); }
    void popFront() { buffer_.pop_front(); }

    /**
     * Backend redirect after a mispredict: kill all in-flight fetch,
     * flush the fetch buffer, restore the RAS pointer, and resume at
     * @p pc. @p on_oracle_path tells the frontend whether @p pc is
     * back on the architectural path (the oracle cursor has been
     * rewound by the caller).
     */
    void redirect(Addr pc, bool on_oracle_path, std::uint32_t ras_ptr,
                  Cycle now = 0);

    /** True while fetch has diverged from the architectural path. */
    bool onOraclePath() const { return onOraclePath_; }

    ReturnAddressStack& ras() { return ras_; }

    // ---- Watchdog diagnostics (SimGuard post-mortem) ------------------

    /** PC the next fetch packet would start at. */
    Addr fetchPc() const { return nextFetchPc_; }

    /** Read-only view of one in-flight fetch packet. */
    struct PacketView
    {
        Addr pc = kInvalidAddr;
        unsigned stage = 0;
        Cycle stallUntil = 0;
    };

    /** In-flight packets, oldest first. */
    std::vector<PacketView> inFlightPackets() const;

    /** One recorded backend redirect. */
    struct RedirectRecord
    {
        Addr pc = kInvalidAddr;
        Cycle cycle = 0;
    };

    /** The last few backend redirects, newest last. */
    const std::deque<RedirectRecord>& recentRedirects() const
    {
        return redirects_;
    }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Attach a CobraScope tracer (nullptr detaches; not owned). */
    void setTracer(scope::Tracer* t) { tracer_ = t; }

    const FrontendConfig& config() const { return cfg_; }

    /**
     * Warp fast-forward and checkpoint restore: reset fetch to the
     * oracle's current PC with an empty pipeline (state as after
     * construction, but with whatever the RAS/histories learned
     * retained).
     */
    void resetFetchToOracle();

  private:
    /** One in-flight fetch packet in the F0..F3 pipeline. Packets are
     *  pooled: the pipeline holds pointers into a free list sized by
     *  the pipeline depth, so steady-state fetch recycles the same few
     *  objects (and the capacities inside their QueryStates) instead
     *  of constructing one per cycle. */
    struct Packet
    {
        Addr pc = kInvalidAddr;
        unsigned startSlot = 0;   ///< Aligned slot of pc.
        unsigned stage = 0;       ///< Last completed stage.
        Cycle stallUntil = 0;     ///< ICache miss modelling.
        bpu::QueryState query;
        Addr predNextPc = kInvalidAddr;
        /** Spec-ghist bits this packet pushed at F1 (re-pushed on
         *  re-steer). */
        SmallVector<bool, bpu::kMaxFetchWidth> pushedBits;
        /** Spec ghist value just after this packet's own pushes. */
        HistoryRegister ghistAfterPush{1};
        std::uint64_t wrongPathSalt = 0;
    };

    /** Take a recycled (or new) packet from the pool. */
    Packet* allocPacket();

    /** Return packets pipe_[first..last) to the pool and erase them. */
    void releaseRange(std::size_t first, std::size_t last);

    /** Block-aligned fallthrough address. */
    Addr fallthrough(Addr pc) const;
    unsigned slotOf(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) & (cfg_.fetchWidth - 1));
    }

    /**
     * First early-redirect target in @p b at or after @p start_slot:
     * requires a taken prediction with a known target and type.
     */
    Addr earlyNextPc(const Packet& p, const bpu::PredictionBundle& b) const;

    /** Push this packet's predicted outcome bits into spec ghist. */
    void pushGhistBits(Packet& p, const bpu::PredictionBundle& b);

    /** A stall counter of this frontend. */
    using StallCounter = Stat<Counter> Frontend::*;

    /**
     * The counter a packet at the final stage bumps when it cannot
     * finalize this cycle (history file, then fetch buffer), or
     * nullptr when it can. tick() and creditIdle() both classify
     * through it.
     */
    StallCounter finalizeStall() const;

    /**
     * Finalize pipe_[@p i] unless finalizeStall() holds it, then
     * release it, and everything younger on a steer. @p bundle is its
     * final-stage bundle when this cycle evaluated it; nullptr makes a
     * packet that waited evaluate it once it can leave. False if
     * stalled.
     */
    bool tryFinalize(std::size_t i, const bpu::PredictionBundle* bundle);

    /** Pre-decode, fire and deliver @p p with its final @p bundle. */
    void finalize(Packet& p, const bpu::PredictionBundle& bundle);

    /** Kill packets younger than index @p idx (exclusive). */
    void killYoungerThan(std::size_t idx);

    const prog::Program& prog_;
    exec::Oracle& oracle_;
    bpu::BranchPredictorUnit& bpu_;
    CacheHierarchy& caches_;
    FrontendConfig cfg_;
    unsigned finalStage_;

    std::deque<Packet*> pipe_; ///< Oldest first; owned by packetPool_.
    std::vector<std::unique_ptr<Packet>> packetPool_;
    std::vector<Packet*> freePackets_;
    std::deque<FetchedInst> buffer_;
    ReturnAddressStack ras_;

    /** Ring of recent backend redirects for the post-mortem. */
    static constexpr std::size_t kRedirectLog = 8;
    std::deque<RedirectRecord> redirects_;

    Addr nextFetchPc_;
    bool finalizeSteer_ = false;
    bool onOraclePath_ = true;
    std::uint64_t wrongPathEpoch_ = 0;
    std::uint64_t nextDynId_ = 1;

    scope::Tracer* tracer_ = nullptr;

    // Registered stat handles (stats_ must precede them): per-cycle
    // paths increment the members directly.
    StatGroup stats_{"frontend"};
    Stat<Counter> packetsKilled_{stats_, "packets_killed",
                                 "in-flight packets killed by steers"};
    Stat<Counter> stallHistfile_{stats_, "stall_histfile",
                                 "finalize stalls on a full history file"};
    Stat<Counter> stallFetchbuffer_{stats_, "stall_fetchbuffer",
                                    "finalize stalls on a full fetch buffer"};
    Stat<Counter> ghistReplays_{stats_, "ghist_replays",
                                "F3 ghist corrections forcing a replay"};
    Stat<Counter> oracleResyncs_{stats_, "oracle_resyncs",
                                 "wrong-path fetch reconvergences"};
    Stat<Counter> instsFetched_{stats_, "insts_fetched",
                                "instructions delivered to the buffer"};
    Stat<Counter> packetsFinalized_{stats_, "packets_finalized",
                                    "fetch packets finalized at F3"};
    Stat<Counter> packetsTaken_{stats_, "packets_taken",
                                "packets ending in a taken CFI"};
    Stat<Counter> resteers_{stats_, "resteers",
                            "intermediate-stage fetch re-steers"};
    Stat<Counter> icacheStallCycles_{stats_, "icache_stall_cycles",
                                     "cycles lost to icache misses"};
    Stat<Counter> fetchBubbles_{stats_, "fetch_bubbles",
                                "cycles no new packet entered F0"};
    Stat<Counter> redirectEvents_{stats_, "redirects",
                                  "backend redirects after mispredicts"};
};

} // namespace cobra::core

#endif // COBRA_CORE_FRONTEND_HPP
