/**
 * @file
 * Warp functional fast-forward: advances a Simulator's architectural
 * program state (the oracle's execution cursor) without running the
 * detailed pipeline, warming the predictors, caches, and RAS in a
 * cheap update-only mode along the way.
 *
 * Warming drives the real BPU query/finalize/resolve/commit protocol
 * one fetch packet at a time with perfect (architectural) outcomes,
 * so every composed component trains through exactly the code path it
 * trains through in detailed simulation — just without the cycle
 * accounting around it. After a fast-forward the pipeline is empty
 * and fetch is re-pointed at the oracle, so the simulator is in a
 * quiesced state suitable for checkpointing and interval simulation.
 */

#ifndef COBRA_WARP_FASTFORWARD_HPP
#define COBRA_WARP_FASTFORWARD_HPP

#include <cstdint>

namespace cobra::sim {
class Simulator;
} // namespace cobra::sim

namespace cobra::warp {

struct FastForwardResult
{
    std::uint64_t insts = 0;   ///< Instructions advanced.
    std::uint64_t packets = 0; ///< Fetch packets warmed.
};

/**
 * Advance @p s by @p insts architectural instructions, then quiesce:
 * drain pending predictor updates and reset fetch to the oracle's
 * PC. Throws guard::CheckpointError if the predictor fails to drain
 * (which would leave un-checkpointable in-flight state).
 */
FastForwardResult fastForward(sim::Simulator& s, std::uint64_t insts);

} // namespace cobra::warp

#endif // COBRA_WARP_FASTFORWARD_HPP
