/**
 * @file
 * The history file (paper §IV-B1): a circular buffer tracking every
 * in-flight prediction. Entries carry the predict-time PC, history
 * snapshots, per-component metadata, and the finalized prediction;
 * the backend fills in resolved outcomes; entries are dequeued in
 * program order as branches commit, driving update events.
 *
 * Public indices are monotonically increasing 64-bit positions (never
 * recycled), so stale references are detectable; the storage itself
 * is a fixed-capacity ring, and capacity models real FTQ pressure —
 * when the file is full the frontend stalls.
 */

#ifndef COBRA_BPU_HISTORY_FILE_HPP
#define COBRA_BPU_HISTORY_FILE_HPP

#include <cassert>
#include <cstdint>
#include <vector>

#include "bpu/pred_types.hpp"
#include "phys/area_model.hpp"

namespace cobra::bpu {

/** Monotonic position of an entry in the history file. */
using FtqPos = std::uint64_t;

/** One in-flight prediction record. */
struct HistoryFileEntry
{
    Addr pc = kInvalidAddr;
    /** Number of instruction slots this packet actually fetched. */
    unsigned fetchedSlots = 0;

    /** Histories as provided to the predictors (§IV-B1). */
    HistoryRegister ghist{1};
    std::uint64_t lhist = 0;
    /** Path history as provided at predict time (§IV-B3 extension). */
    std::uint64_t phist = 0;
    /** Pre-fire lhist value, for walk repair of the local provider. */
    std::uint64_t lhistBefore = 0;

    /** Per-component metadata gathered at predict time (§III-D). */
    MetadataBundle metas;

    /** Finalized (Fetch-3) prediction for the packet. */
    PredictionBundle finalPred;

    /** Slots holding conditional branches (known at finalize). */
    std::array<bool, kMaxFetchWidth> brMask{};
    /** Speculative directions recorded at fire time. */
    std::array<bool, kMaxFetchWidth> specTakenMask{};

    /** Per-slot component index that provided the direction/target in
     *  the finalized prediction (CobraScope attribution; finalize
     *  always overwrites these from the query state). */
    std::array<std::uint8_t, kMaxFetchWidth> dirProvider{};
    std::array<std::uint8_t, kMaxFetchWidth> targetProvider{};

    /** RAS pointer snapshot for frontend repair. */
    std::uint32_t rasPtr = 0;

    /** Sequence number of the packet's first instruction. */
    SeqNum firstSeq = kInvalidSeq;

    // ---- Filled in by the backend at resolution ----------------------
    bool resolved = false;
    bool mispredicted = false;
    std::array<bool, kMaxFetchWidth> takenMask{};
    bool cfiValid = false;
    unsigned cfiIdx = 0;
    CfiType cfiType = CfiType::None;
    bool cfiTaken = false;
    bool cfiIsCall = false;
    bool cfiIsRet = false;
    Addr actualTarget = kInvalidAddr;

    /** Marked by the backend's SFB pass: do not train predictors. */
    std::array<bool, kMaxFetchWidth> sfbMask{};

    /** Ready to be dequeued (the packet's branches committed). */
    bool committed = false;
};

/**
 * Fixed-capacity circular buffer of HistoryFileEntry with monotonic
 * positions.
 */
class HistoryFile
{
  public:
    explicit HistoryFile(unsigned capacity = 32)
        : capacity_(capacity), ring_(capacity)
    {
        assert(capacity >= 2);
    }

    bool full() const { return tail_ - head_ >= capacity_; }
    bool empty() const { return tail_ == head_; }
    std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
    unsigned capacity() const { return capacity_; }

    /** Position of the oldest entry (only valid when !empty()). */
    FtqPos headPos() const { return head_; }
    /** One past the youngest entry. */
    FtqPos tailPos() const { return tail_; }

    /** True if @p pos currently addresses a live entry. */
    bool contains(FtqPos pos) const { return pos >= head_ && pos < tail_; }

    /** Enqueue a new entry; must not be full. Returns its position. */
    FtqPos
    enqueue(HistoryFileEntry entry)
    {
        assert(!full());
        ring_[tail_ % capacity_] = std::move(entry);
        return tail_++;
    }

    HistoryFileEntry&
    at(FtqPos pos)
    {
        assert(contains(pos));
        return ring_[pos % capacity_];
    }

    const HistoryFileEntry&
    at(FtqPos pos) const
    {
        assert(contains(pos));
        return ring_[pos % capacity_];
    }

    HistoryFileEntry& head() { return at(head_); }

    /** Dequeue the oldest entry (after its update has been issued). */
    void
    dequeueHead()
    {
        assert(!empty());
        ++head_;
    }

    /** Drop every entry younger than @p pos (exclusive). */
    void
    squashAfter(FtqPos pos)
    {
        assert(contains(pos));
        tail_ = pos + 1;
    }

    /** Empty the file and continue its positions at @p pos (the
     *  position a checkpointed empty file had). */
    void restartAt(FtqPos pos) { head_ = tail_ = pos; }

    /**
     * Storage accounting: per-entry cost is dominated by the ghist
     * snapshot, metadata, and prediction record (the "Meta" slice of
     * Fig. 8).
     */
    std::uint64_t
    storageBits(unsigned ghist_bits, unsigned meta_bits,
                unsigned width) const
    {
        const std::uint64_t perEntry =
            64 /* pc */ + ghist_bits + 64 /* lhist */ + meta_bits +
            static_cast<std::uint64_t>(width) * 4 /* masks */ +
            width * 2 /* pred dir bits */ + 64 /* target */ +
            16 /* bookkeeping */;
        return perEntry * capacity_;
    }

    phys::PhysicalCost
    physicalCost(unsigned ghist_bits, unsigned meta_bits,
                 unsigned width) const
    {
        phys::PhysicalCost c;
        // History files are commonly flop/latch arrays due to the
        // random-access repair walk; cost as flops.
        c.flopBits = storageBits(ghist_bits, meta_bits, width);
        c.logicGates = 2000;
        return c;
    }

  private:
    unsigned capacity_;
    FtqPos head_ = 0;
    FtqPos tail_ = 0;
    std::vector<HistoryFileEntry> ring_;
};

} // namespace cobra::bpu

#endif // COBRA_BPU_HISTORY_FILE_HPP
