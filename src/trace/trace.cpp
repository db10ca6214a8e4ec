#include "trace/trace.hpp"

namespace cobra::trace {

DecodedTrace
recordTrace(const prog::Program& program, std::size_t num_branches,
            std::uint64_t seed)
{
    exec::Oracle oracle(program, seed);
    DecodedTrace trace;
    trace.meta.name = program.name();
    trace.pc.reserve(num_branches);
    trace.target.reserve(num_branches);
    trace.rmeta.reserve(num_branches);
    const unsigned width = trace.meta.fetchWidth;
    while (trace.size() < num_branches) {
        const exec::DynInst& di = oracle.consume();
        if (di.isCondBranch()) {
            TraceRecord r;
            r.pc = di.pc;
            // Packet-align the PC the way the fetch unit would.
            r.slot = static_cast<std::uint8_t>((di.pc >> 2) & (width - 1));
            r.taken = di.taken;
            r.target = di.taken ? di.nextPc : kInvalidAddr;
            trace.pc.push_back(r.pc);
            trace.target.push_back(r.target);
            trace.rmeta.push_back(DecodedBlock::packMeta(r));
        }
        oracle.retireUpTo(di.seq);
    }
    trace.meta.recordCount = trace.meta.condCount = trace.size();
    return trace;
}

TraceDrivenEvaluator::TraceDrivenEvaluator(bpu::ComposedPredictor pred,
                                           unsigned ghist_bits,
                                           unsigned lhist_bits)
    : pred_(std::move(pred)), ghist_(ghist_bits),
      lhistBits_(lhist_bits), lhist_(256, 0),
      numComps_(static_cast<unsigned>(pred_.components().size()))
{
}

void
TraceDrivenEvaluator::step(Addr pc, unsigned slot_idx, bool taken,
                           Addr target, bool measured, TraceResult& res)
{
    const std::size_t lidx = (pc >> 4) % lhist_.size();

    // Idealized predict: perfect, instantly-updated histories.
    q_.reset(pc, pred_.width(), numComps_, pred_.width());
    q_.captureHistory(ghist_, lhist_[lidx]);
    for (unsigned d = 1; d < pred_.maxLatency(); ++d)
        pred_.evaluateStage(q_, d);
    const bpu::PredictionBundle& bundle =
        pred_.evaluateStage(q_, pred_.maxLatency());

    const auto& slot = bundle.slots[slot_idx];
    const bool mispredicted = (slot.valid && slot.taken) != taken;
    if (measured) {
        ++res.branches;
        res.mispredicts += mispredicted;
    }

    // Immediate, in-order update — no speculation, no delay.
    bpu::ResolveEvent ev;
    ev.pc = pc;
    ev.ghist = &q_.ghist();
    ev.lhist = q_.lhist();
    ev.brMask[slot_idx] = true;
    ev.takenMask[slot_idx] = taken;
    ev.cfiValid = taken;
    ev.cfiIdx = slot_idx;
    ev.cfiType = bpu::CfiType::Br;
    ev.cfiTaken = taken;
    ev.target = target;
    ev.mispredicted = mispredicted;
    ev.predicted = &bundle;

    // Fire (speculative components like the loop predictor count
    // at query time, and in a trace model speculation is perfect).
    // The query's own metadata carries the events: the next step's
    // reset clears it.
    bpu::FireEvent fev;
    fev.pc = pc;
    fev.finalPred = &bundle;
    fev.ghist = &q_.ghist();
    fev.lhist = q_.lhist();
    bpu::MetadataBundle& metas = q_.metadata();
    pred_.fire(fev, metas);
    if (mispredicted) {
        // Immediate resolution: the fast mispredict event fires
        // right away (perfect repair, zero delay).
        pred_.mispredict(ev, metas);
    }
    pred_.update(ev, metas);

    ghist_.push(taken);
    lhist_[lidx] = ((lhist_[lidx] << 1) | (taken ? 1 : 0)) &
                   maskBits(lhistBits_);
}

TraceResult
TraceDrivenEvaluator::evaluate(const DecodedTrace& trace,
                               std::size_t warmup)
{
    TraceResult res;
    std::size_t cond = 0;
    for (std::size_t n = 0; n < trace.size(); ++n) {
        if (trace.typeAt(n) != RecordType::Cond)
            continue;
        step(trace.pc[n], trace.slotAt(n), trace.takenAt(n),
             trace.target[n], cond >= warmup, res);
        ++cond;
    }
    return res;
}

} // namespace cobra::trace
