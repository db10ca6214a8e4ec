/**
 * @file
 * Shared helpers for the test suite: micro-program construction and a
 * single-branch driver for exercising components through the full
 * COBRA event protocol without the core model.
 */

#ifndef COBRA_TESTS_TEST_UTIL_HPP
#define COBRA_TESTS_TEST_UTIL_HPP

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bpu/component.hpp"
#include "program/builder.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

namespace cobra::test {

/**
 * Drives one PredictorComponent through predict/update cycles for a
 * single branch at a fixed slot, maintaining a consistent global
 * history — the component-level contract of paper §III.
 */
class SingleBranchDriver
{
  public:
    SingleBranchDriver(bpu::PredictorComponent& comp, Addr pc,
                       unsigned slot, unsigned ghist_bits = 64)
        : comp_(comp), pc_(pc), slot_(slot), gh_(ghist_bits)
    {
    }

    /**
     * One predict/update round with architectural outcome @p actual.
     * Returns the component's prediction (pass-through base predicts
     * not-taken).
     */
    bool
    round(bool actual)
    {
        bpu::PredictContext ctx;
        ctx.pc = pc_;
        ctx.validSlots = comp_.fetchWidth();
        ctx.ghist = &gh_;
        ctx.lhist = lhist_;

        bpu::PredictionBundle b;
        b.width = comp_.fetchWidth();
        b.slots[slot_].valid = true;
        b.slots[slot_].taken = baseTaken_;
        bpu::Metadata meta{};
        comp_.predict(ctx, b, meta);
        const bool pred = b.slots[slot_].valid && b.slots[slot_].taken;

        bpu::ResolveEvent ev;
        ev.pc = pc_;
        ev.ghist = &gh_;
        ev.lhist = lhist_;
        ev.meta = &meta;
        ev.brMask[slot_] = true;
        ev.takenMask[slot_] = actual;
        ev.cfiValid = actual;
        ev.cfiIdx = slot_;
        ev.cfiType = bpu::CfiType::Br;
        ev.cfiTaken = actual;
        ev.target = actual ? pc_ + 0x100 : kInvalidAddr;
        ev.mispredicted = pred != actual;
        ev.predicted = &b;
        comp_.update(ev);

        gh_.push(actual);
        lhist_ = (lhist_ << 1) | (actual ? 1 : 0);
        return pred;
    }

    /**
     * Run @p outcomes through the driver, measuring accuracy over the
     * second half (the first half warms up).
     */
    double
    accuracy(const std::vector<bool>& outcomes)
    {
        std::size_t correct = 0;
        std::size_t measured = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const bool pred = round(outcomes[i]);
            if (i >= outcomes.size() / 2) {
                ++measured;
                if (pred == outcomes[i])
                    ++correct;
            }
        }
        return measured == 0 ? 0.0
                             : static_cast<double>(correct) / measured;
    }

    /** Set the pass-through base prediction direction. */
    void setBaseTaken(bool t) { baseTaken_ = t; }

    const HistoryRegister& ghist() const { return gh_; }

  private:
    bpu::PredictorComponent& comp_;
    Addr pc_;
    unsigned slot_;
    HistoryRegister gh_;
    std::uint64_t lhist_ = 0;
    bool baseTaken_ = false;
};

/** Outcome sequence for a counted loop (T^(trip-1) N repeating). */
inline std::vector<bool>
loopOutcomes(unsigned trip, std::size_t iterations)
{
    std::vector<bool> v;
    for (std::size_t i = 0; i < iterations; ++i)
        for (unsigned k = 0; k < trip; ++k)
            v.push_back(k + 1 < trip);
    return v;
}

/** Outcome sequence repeating a fixed bit pattern. */
inline std::vector<bool>
periodicOutcomes(std::uint64_t pattern, unsigned len, std::size_t n)
{
    std::vector<bool> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back((pattern >> (i % len)) & 1);
    return v;
}

/** Outcomes that are a hash function of the previous @p depth bits. */
inline std::vector<bool>
historyCorrelatedOutcomes(unsigned depth, std::size_t n,
                          std::uint64_t seed = 0x5eed)
{
    std::vector<bool> v;
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool bit = mix64(seed ^ (h & maskBits(depth))) & 1;
        v.push_back(bit);
        h = (h << 1) | (bit ? 1 : 0);
    }
    return v;
}

/**
 * A minimal single-branch infinite-loop program:
 *   top: <pad nops> ; br(behaviour) -> taken: skip 4; join; jmp top
 * Returns the program with its entry set.
 */
inline prog::Program
singleBranchProgram(const prog::BranchBehavior& b, unsigned pad = 5)
{
    prog::ProgramBuilder bld(1234);
    prog::CodeMix mix;
    mix.fLoad = 0;
    mix.fStore = 0;
    mix.fMul = 0;
    mix.fDiv = 0;
    mix.fFp = 0;
    const Addr top = bld.here();
    bld.emitStraightLine(pad, mix);
    bld.emitIfElse(b, 4, 4, mix);
    bld.emitJump(top);
    prog::Program p = bld.takeProgram();
    p.setEntry(top);
    return p;
}

/**
 * Shrink @p cfg's core until the scheduler is the bottleneck: a
 * 16-entry ROB, 4-entry issue and load/store queues, one port per
 * class and no decode delay. Runs then hit port contention, full-queue
 * stalls and same-cycle wakeup.
 */
inline void
useStressCore(sim::SimConfig& cfg)
{
    core::BackendConfig& b = cfg.backend;
    b.robEntries = 16;
    b.intIqEntries = b.memIqEntries = b.fpIqEntries = 4;
    b.ldqEntries = b.stqEntries = 4;
    b.aluPorts = b.memPorts = b.fpPorts = 1;
    b.decodeDelay = 0;
}

/**
 * Tourney's spec with one sizing field out of range each: an empty
 * RAS, then every capped field one past its cap (the power-of-two
 * fields, lhist_sets and the cache sizes, at the next power of two),
 * and an L3 of 2^50 bytes. Each spec comes with the field its
 * rejection must name. The tests only validate them: a model built
 * from the cache specs would allocate what they ask for.
 */
inline std::vector<std::pair<std::string, sim::DesignSpec>>
outOfRangeSizingSpecs()
{
    std::vector<std::pair<std::string, sim::DesignSpec>> out;
    const auto add = [&](const char* field, auto&& mutate) {
        sim::DesignSpec s = sim::presetSpec("tourney");
        mutate(s);
        out.emplace_back(field, std::move(s));
    };
    add("core.ras_entries", [](auto& s) { s.core.rasEntries = 0; });
    add("core.ras_entries", [](auto& s) { s.core.rasEntries = 4097; });
    add("core.rob_entries", [](auto& s) { s.core.robEntries = 4097; });
    add("bpu.history_file_entries",
        [](auto& s) { s.bpu.historyFileEntries = 4097; });
    add("bpu.lhist_sets", [](auto& s) { s.bpu.lhistSets = 131072; });
    add("core.l1i_bytes",
        [](auto& s) { s.core.l1iBytes = std::uint64_t{128} << 20; });
    add("core.l1d_bytes",
        [](auto& s) { s.core.l1dBytes = std::uint64_t{128} << 20; });
    add("core.l2_bytes",
        [](auto& s) { s.core.l2Bytes = std::uint64_t{128} << 20; });
    add("core.l3_bytes",
        [](auto& s) { s.core.l3Bytes = std::uint64_t{128} << 20; });
    add("core.l3_bytes",
        [](auto& s) { s.core.l3Bytes = std::uint64_t{1} << 50; });
    return out;
}

} // namespace cobra::test

#endif // COBRA_TESTS_TEST_UTIL_HPP
