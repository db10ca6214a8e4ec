/**
 * @file
 * Global history provider (paper §IV-B3): a speculatively updated
 * global history register with snapshot-based repair. Snapshots are
 * stored in the history file; policy (when to restore, whether to
 * replay fetch — the §VI-B experiment) lives in the frontend.
 */

#ifndef COBRA_BPU_GHIST_HPP
#define COBRA_BPU_GHIST_HPP

#include <optional>
#include <string_view>

#include "common/folded_history.hpp"
#include "phys/area_model.hpp"

namespace cobra::bpu {

/** Repair policy for speculative global history (paper §VI-B). */
enum class GhistRepairMode : std::uint8_t
{
    /** Strawman: never restore from snapshots (corrupted histories). */
    None,
    /**
     * Paper's original design: the register is repaired from
     * snapshots, but in-flight predictions formed from a corrupted
     * history are not replayed.
     */
    RepairOnly,
    /**
     * Paper's improved design: repairing the history also forces a
     * replay of instruction fetch with the corrected history.
     */
    RepairAndReplay,
};

/** Human-readable name of a repair mode. */
const char* ghistRepairModeName(GhistRepairMode m);

/**
 * The repair mode a cobra_sim `--ghist` value or a cobra_serve
 * `"ghist"` field names: none | repair | replay. Empty for any other
 * name; each caller reports that in its own words.
 */
std::optional<GhistRepairMode> ghistRepairModeFromName(
    std::string_view name);

/**
 * The speculative global history register. Bit 0 is the most recent
 * (speculated) conditional-branch outcome.
 */
class GlobalHistoryProvider
{
  public:
    explicit GlobalHistoryProvider(unsigned length = 64)
        : hist_(length)
    {}

    /** Current speculative history (read at the end of Fetch-1). */
    const HistoryRegister& current() const { return hist_; }

    /** Speculatively shift in a predicted outcome. */
    void push(bool taken) { hist_.push(taken); }

    /** Snapshot for the history file. */
    std::vector<std::uint64_t> snapshot() const { return hist_.snapshot(); }

    /** Restore from a history-file snapshot. */
    void
    restore(const std::vector<std::uint64_t>& snap)
    {
        hist_.restore(snap);
    }

    /** Restore directly from a register value. */
    void restore(const HistoryRegister& h) { hist_ = h; }

    unsigned length() const { return hist_.length(); }

    /** Register bits (flops) — snapshots are costed in the history file. */
    std::uint64_t storageBits() const { return hist_.length(); }

    phys::PhysicalCost
    physicalCost() const
    {
        phys::PhysicalCost c;
        c.flopBits = hist_.length();
        c.logicGates = 4 * hist_.length(); // shift/restore muxing
        return c;
    }

  private:
    HistoryRegister hist_;
};

} // namespace cobra::bpu

#endif // COBRA_BPU_GHIST_HPP
