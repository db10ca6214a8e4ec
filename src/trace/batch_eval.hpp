/**
 * @file
 * Batch trace evaluation. The §II-B trace-driven evaluator
 * (trace/trace.hpp) is the search tiers' cheap screening metric, and
 * the search driver needs it for many candidate designs over the same
 * recorded trace. Each candidate is one lane: its own
 * TraceDrivenEvaluator walking the whole trace, run as one
 * SweepEngine::runTasks task. Lanes share nothing but the read-only
 * trace, so every lane's TraceResult is bit-identical to a solo run
 * at any worker count (tests/test_batch_eval.cpp), and results come
 * back in lane submission order.
 */

#ifndef COBRA_TRACE_BATCH_EVAL_HPP
#define COBRA_TRACE_BATCH_EVAL_HPP

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "bpu/composer.hpp"
#include "trace/trace.hpp"

namespace cobra::trace {

/** One candidate-design lane of a batched evaluation. */
struct BatchLane
{
    /** Label echoed into the lane's result (candidate id). */
    std::string label;

    /**
     * Builds the lane's composed pipeline. Called once per
     * evaluate(), on the worker thread that runs the lane —
     * construction cost parallelizes with the pool.
     */
    std::function<bpu::ComposedPredictor()> predictor;

    /** Idealized history lengths (TraceDrivenEvaluator ctor args). */
    unsigned ghistBits = 64;
    unsigned lhistBits = 32;
};

/** Per-lane outcome, in lane submission order. */
struct BatchLaneResult
{
    std::string label;
    TraceResult result;
    /** "specialized" or "generic" — which loop the lane took. */
    std::string loop;
    /** Set when the lane failed; result is then meaningless. */
    std::string error;
    /** guard::errorClassOf taxonomy class for a failed lane. */
    std::string errorClass;
    /** The original exception of a failed lane, for rethrowing. */
    std::exception_ptr exception;

    bool ok() const { return error.empty(); }
};

/**
 * Batched multi-design trace evaluator: add lanes, then evaluate
 * them all over one trace. A failing lane (bad topology factory,
 * mid-stream contract violation) is captured in its own result slot
 * and does not disturb the other lanes.
 */
class BatchTraceEvaluator
{
  public:
    /** @param jobs SweepEngine worker count; 0 means defaultJobs(). */
    explicit BatchTraceEvaluator(unsigned jobs = 1);

    /** Queue a lane; returns its index in the results vector. */
    std::size_t addLane(BatchLane lane);

    /** Lanes queued for the next evaluate(). */
    std::size_t pending() const { return lanes_.size(); }

    /**
     * Evaluate every queued lane over @p trace, skipping the first
     * @p warmup conditional records exactly like
     * TraceDrivenEvaluator::evaluate, and clear the lane set. Each
     * lane binds its devirtualized loop when its tuple is registered
     * (bpu/specialize.hpp); results are bit-identical either way.
     */
    std::vector<BatchLaneResult> evaluate(const DecodedTrace& trace,
                                          std::size_t warmup = 0);

  private:
    std::vector<BatchLane> lanes_;
    unsigned jobs_;
};

} // namespace cobra::trace

#endif // COBRA_TRACE_BATCH_EVAL_HPP
