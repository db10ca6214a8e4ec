#include "trace/batch_eval.hpp"

#include "guard/errors.hpp"
#include "sim/sweep.hpp"

namespace cobra::trace {

BatchTraceEvaluator::BatchTraceEvaluator(unsigned jobs) : jobs_(jobs)
{
}

std::size_t
BatchTraceEvaluator::addLane(BatchLane lane)
{
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
}

std::vector<BatchLaneResult>
BatchTraceEvaluator::evaluate(const DecodedTrace& trace,
                              std::size_t warmup)
{
    std::vector<BatchLane> lanes = std::move(lanes_);
    lanes_.clear();
    std::vector<BatchLaneResult> out(lanes.size());
    // Each task writes only its own lane's slot.
    sim::SweepEngine(jobs_).runTasks(lanes.size(), [&](std::size_t k) {
        BatchLaneResult& o = out[k];
        o.label = lanes[k].label;
        try {
            TraceDrivenEvaluator ev(lanes[k].predictor(),
                                    lanes[k].ghistBits,
                                    lanes[k].lhistBits);
            o.result = ev.evaluate(trace, warmup);
        } catch (...) {
            o.exception = std::current_exception();
            guard::captureCurrentException(o.error, o.errorClass);
        }
    });
    return out;
}

} // namespace cobra::trace
