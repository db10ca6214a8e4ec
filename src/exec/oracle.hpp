/**
 * @file
 * The oracle executor: architecturally executes a Program along the
 * correct path, producing the dynamic instruction stream the core
 * model consumes. Generation is strictly forward; the consumer reads
 * through a rewindable cursor, so squash/redirect never needs to
 * roll back behaviour state (DESIGN.md §4).
 *
 * The oracle also synthesises *wrong-path* instructions: when fetch
 * runs down a mispredicted path, instructions are materialised from
 * the static image with hash-deterministic outcomes. Wrong-path
 * execution never touches oracle state — it only pollutes the
 * predictor's speculative structures, which is the phenomenon the
 * paper's §VI-B studies.
 */

#ifndef COBRA_EXEC_ORACLE_HPP
#define COBRA_EXEC_ORACLE_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/bitutil.hpp"
#include "common/types.hpp"
#include "program/program.hpp"

namespace cobra::warp {
class StateWriter;
class StateReader;
} // namespace cobra::warp

namespace cobra::exec {

/** One dynamic instruction (correct-path or synthesised wrong-path). */
struct DynInst
{
    SeqNum seq = kInvalidSeq;     ///< Correct-path sequence number.
    Addr pc = kInvalidAddr;
    const prog::StaticInst* si = nullptr;

    bool taken = false;           ///< CF outcome (uncond CF: true).
    Addr nextPc = kInvalidAddr;   ///< Architectural next PC.
    Addr memAddr = kInvalidAddr;  ///< Effective address for ld/st.

    SeqNum dep1 = kInvalidSeq;    ///< Producer of src1, if in flight.
    SeqNum dep2 = kInvalidSeq;    ///< Producer of src2, if in flight.

    bool wrongPath = false;       ///< Synthesised beyond a mispredict.

    bool isCf() const { return si && prog::isControlFlow(si->op); }
    bool isCondBranch() const
    {
        return si && si->op == prog::OpClass::CondBranch;
    }
};

/**
 * Source of recorded committed control-flow outcomes for trace
 * replay. The oracle's synthetic stream is deterministic in exactly
 * two non-derivable inputs per instruction class: the direction of
 * each conditional branch and the target of each indirect jump/call
 * (everything else — dependences, call/return targets, memory
 * addresses, wrong-path synthesis — is a pure function of the static
 * image, the seed, and those outcomes). A bound CfSource supplies
 * those two streams in generation order, so a replayed oracle
 * reconstructs the execute-mode instruction stream bit-identically
 * without evaluating any behaviour hash.
 *
 * Implementations validate the site (@p pc) of every read and raise
 * guard::CheckpointError on mismatch or exhaustion — a desync means
 * the trace does not belong to this Program/seed.
 */
class CfSource
{
  public:
    virtual ~CfSource() = default;

    /** Direction of the next recorded conditional branch at @p pc. */
    virtual bool nextCond(Addr pc) = 0;

    /** Target of the next recorded indirect jump/call at @p pc. */
    virtual Addr nextIndirect(Addr pc) = 0;

    /** Reposition so record @p idx is read next (checkpoint restore). */
    virtual void seek(std::uint64_t idx) = 0;

    /** Index of the record the next read returns. */
    virtual std::uint64_t position() const = 0;
};

/**
 * Architectural executor with a rewindable output buffer.
 *
 * Usage:
 *  - peek(k): k-th not-yet-consumed correct-path instruction
 *    (generated on demand).
 *  - consume(): advance the cursor by one.
 *  - rewindTo(seq): reset the cursor so instruction `seq` is the next
 *    one consumed (used on squash).
 *  - retireUpTo(seq): drop retired instructions from the buffer.
 */
class Oracle
{
  public:
    explicit Oracle(const prog::Program& program,
                    std::uint64_t seed = 0xD15EA5E);

    /** Peek the k-th upcoming correct-path instruction. */
    const DynInst& peek(std::size_t k = 0);

    /** Consume (and return) the next correct-path instruction. */
    const DynInst& consume();

    /** Sequence number the cursor will produce next. */
    SeqNum nextSeq() const { return bufferBase_ + cursor_; }

    /** PC of the next correct-path instruction. */
    Addr nextPc() { return peek(0).pc; }

    /**
     * Rewind so that the instruction with sequence number @p seq is
     * produced by the next consume(). @p seq must not precede the
     * oldest retained instruction.
     */
    void rewindTo(SeqNum seq);

    /** Discard buffered instructions with seq <= @p seq (retired). */
    void retireUpTo(SeqNum seq);

    /**
     * Synthesise a wrong-path instruction at @p pc. Deterministic in
     * (pc, salt); does not disturb architectural state.
     */
    DynInst wrongPath(Addr pc, std::uint64_t salt) const;

    /**
     * Checkpoint the full architectural execution state, including
     * the rewindable output buffer (after a fast-forward it holds the
     * one instruction fetch has peeked).
     */
    void saveState(warp::StateWriter& w) const;
    void restoreState(warp::StateReader& r);

    /**
     * Bind a recorded control-flow source: subsequent generation
     * takes conditional directions and indirect targets from @p cf
     * instead of evaluating behaviour hashes, while every piece of
     * behaviour state (occurrence counters, loop trip state, local
     * and global history) is advanced exactly as execute mode would —
     * so checkpoints are byte-identical across modes and freely
     * interchangeable. The source is repositioned to this oracle's
     * current stream position (cfConsumed()) at bind and after every
     * restoreState(). Pass nullptr to unbind.
     */
    void bindCfSource(CfSource* cf);

    /** True when generation replays a bound CfSource. */
    bool replaying() const { return cf_ != nullptr; }

    /**
     * Control-flow records consumed so far: the number of conditional
     * branches plus indirect jumps/calls generated. Derived from the
     * per-site occurrence counters, so it needs no extra checkpoint
     * state — restoring any snapshot re-derives the replay position.
     */
    std::uint64_t cfConsumed() const;

  private:
    /** Generate one more correct-path instruction into the buffer. */
    void generateOne();

    /** Evaluate a conditional branch's architectural outcome. */
    bool evalDirection(const prog::StaticInst& si);

    /** Evaluate an indirect CF's architectural target. */
    Addr evalIndirect(const prog::StaticInst& si);

    /**
     * Apply evalDirection's behaviour-state side effects for a
     * replayed direction (occurrence, loop trip tracking, local
     * history) without evaluating the outcome hash.
     */
    void applyReplayDirection(const prog::StaticInst& si, bool taken);

    /** Evaluate a load/store effective address. */
    Addr evalMemAddr(const prog::StaticInst& si);

    /** Per-branch-site mutable behaviour state. */
    struct BranchState
    {
        std::uint64_t occurrence = 0; ///< Retired-path executions.
        unsigned loopCount = 0;       ///< Iterations in current loop run.
        unsigned curTrip = 1;         ///< Trip count of the current run.
        std::uint64_t localHist = 0;  ///< This branch's outcome history.
    };

    struct IndirectState
    {
        std::uint64_t occurrence = 0;
    };

    struct MemState
    {
        std::uint64_t occurrence = 0;
        Addr last = 0;
    };

    const prog::Program& prog_;
    std::uint64_t seed_;
    CfSource* cf_ = nullptr; ///< Replay source; nullptr = execute mode.

    // Architectural execution state (forward-only).
    Addr pc_;
    SeqNum genSeq_ = 0;
    std::vector<Addr> callStack_;
    std::uint64_t ghist_ = 0; ///< Conditional outcomes, bit 0 newest.
    std::vector<BranchState> branchState_;
    std::vector<IndirectState> indirectState_;
    std::vector<MemState> memState_;
    std::array<SeqNum, 32> lastWriter_{};

    // Output buffer with rewindable cursor.
    std::deque<DynInst> buffer_;
    SeqNum bufferBase_ = 0; ///< seq of buffer_[0].
    std::size_t cursor_ = 0;
};

} // namespace cobra::exec

#endif // COBRA_EXEC_ORACLE_HPP
