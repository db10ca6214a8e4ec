/**
 * @file
 * Trace-driven evaluation substrate (paper §II-B). The paper's core
 * methodological argument is that trace-based simulators (ChampSim,
 * CBP) cannot model speculation, superscalar fetch, or update delay,
 * and therefore misestimate predictor accuracy. This module provides
 * exactly such an idealized trace-driven evaluator for the *same*
 * composed predictor pipelines the core model runs, so the modelling
 * error can be measured directly (bench_trace_vs_execution).
 */

#ifndef COBRA_TRACE_TRACE_HPP
#define COBRA_TRACE_TRACE_HPP

#include <cstdint>
#include <vector>

#include "bpu/composer.hpp"
#include "program/program.hpp"
#include "trace/replay.hpp"

namespace cobra::trace {

/**
 * Record the committed conditional-branch stream of a program by
 * running the oracle executor directly (this is what a hardware
 * trace-capture or a functional simulator would produce). The trace
 * holds conditional records only and is tagged External with no
 * instruction guarantee (sourceInsts = 0), so validateReplayMeta
 * rejects it as a full-core replay source.
 */
DecodedTrace recordTrace(const prog::Program& program,
                         std::size_t num_branches,
                         std::uint64_t seed = 0xD15EA5E);

/** Former name of the recorded-trace type, kept only because the
 *  perfbench harness still names it. */
using BranchTrace = DecodedTrace;

/** Results of a trace-driven evaluation. */
struct TraceResult
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    double
    accuracy() const
    {
        return branches == 0
                   ? 1.0
                   : 1.0 - static_cast<double>(mispredicts) / branches;
    }
};

/**
 * Idealized trace-driven evaluator: one branch at a time, histories
 * updated instantly and perfectly, updates applied immediately after
 * each prediction, no wrong-path pollution, no update delay, no
 * superscalar packet effects — the CBP-style methodology the paper
 * contrasts against.
 */
class TraceDrivenEvaluator
{
  public:
    /**
     * @param pred      The composed pipeline to evaluate (single-use).
     * @param ghistBits Global history length for the idealized run.
     */
    TraceDrivenEvaluator(bpu::ComposedPredictor pred,
                         unsigned ghist_bits = 64,
                         unsigned lhist_bits = 32);

    /**
     * Evaluate the conditional-branch records of @p trace; other
     * records (a captured trace's indirect jumps and calls) are
     * skipped, so a captured trace evaluates exactly like the
     * recordTrace stream of the same workload. The first @p warmup
     * conditional records train but are not measured.
     */
    TraceResult evaluate(const DecodedTrace& trace,
                         std::size_t warmup = 0);

  private:
    /** One idealized predict/update step; counts when @p measured. */
    void step(Addr pc, unsigned slot, bool taken, Addr target,
              bool measured, TraceResult& res);

    bpu::ComposedPredictor pred_;
    HistoryRegister ghist_;
    unsigned lhistBits_;
    std::vector<std::uint64_t> lhist_;

    // Hoisted per-record scratch: QueryState::reset() reuses its
    // component-result storage across records, so the stream loop
    // stops constructing/allocating per branch.
    unsigned numComps_;
    bpu::QueryState q_;
};

} // namespace cobra::trace

#endif // COBRA_TRACE_TRACE_HPP
