#include "components/bim.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/bitutil.hpp"
#include "warp/state_util.hpp"

namespace cobra::comps {

const char*
indexModeName(IndexMode m)
{
    switch (m) {
      case IndexMode::Pc: return "pc";
      case IndexMode::GlobalHist: return "ghist";
      case IndexMode::LocalHist: return "lhist";
      case IndexMode::GshareHash: return "gshare";
      case IndexMode::LshareHash: return "lshare";
      case IndexMode::PathHash: return "path";
    }
    return "?";
}

Hbim::Hbim(std::string name, const HbimParams& p)
    : PredictorComponent(std::move(name), p.latency, p.fetchWidth),
      params_(p)
{
    assert(isPow2(p.sets));
    assert(p.mode == IndexMode::Pc || p.latency >= 2);
    // Initialise counters to weakly-taken-adjacent midpoint so cold
    // predictions are weak in both directions.
    table_.assign(static_cast<std::size_t>(p.sets) * p.fetchWidth,
                  SatCounter(p.ctrBits, (1u << p.ctrBits) / 2));
}

std::size_t
Hbim::indexOf(Addr pc, const bpu::PredictContext*,
              const HistoryRegister* ghist, std::uint64_t lhist,
              std::uint64_t phist) const
{
    const unsigned idxBits = ceilLog2(params_.sets);
    // Packet-granularity indexing: drop the slot-offset bits.
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    std::uint64_t idx = 0;
    switch (params_.mode) {
      case IndexMode::Pc:
        idx = pcBits;
        break;
      case IndexMode::GlobalHist:
        assert(ghist != nullptr);
        idx = ghist->folded(params_.histBits, idxBits);
        break;
      case IndexMode::LocalHist:
        idx = foldXor(lhist & maskBits(params_.histBits), idxBits);
        break;
      case IndexMode::GshareHash:
        assert(ghist != nullptr);
        idx = pcBits ^ ghist->folded(params_.histBits, idxBits);
        break;
      case IndexMode::LshareHash:
        idx = pcBits ^ foldXor(lhist & maskBits(params_.histBits),
                               idxBits);
        break;
      case IndexMode::PathHash:
        idx = pcBits ^ foldXor(phist & maskBits(params_.histBits),
                               idxBits);
        break;
    }
    return static_cast<std::size_t>(idx & maskBits(idxBits));
}

void
Hbim::predict(const bpu::PredictContext& ctx, bpu::PredictionBundle& inout,
              bpu::Metadata& meta)
{
    const bool needsHist = params_.mode != IndexMode::Pc;
    const HistoryRegister* gh = nullptr;
    if (needsHist && (params_.mode == IndexMode::GlobalHist ||
                      params_.mode == IndexMode::GshareHash)) {
        gh = &requireGhist(ctx);
    }
    const std::size_t set = indexOf(ctx.pc, &ctx, gh, ctx.lhist,
                                    ctx.phist);

    for (unsigned i = 0; i < ctx.validSlots && i < inout.width; ++i) {
        const SatCounter& c = table_[set * fetchWidth() + i];
        inout.slots[i].valid = true;
        inout.slots[i].taken = c.taken();
        // Stash the read counter in metadata (§III-D) so update never
        // re-reads the table.
        meta[0] |= static_cast<std::uint64_t>(c.value())
                   << (i * params_.ctrBits);
    }
}

void
Hbim::update(const bpu::ResolveEvent& ev)
{
    const HistoryRegister* gh =
        (params_.mode == IndexMode::GlobalHist ||
         params_.mode == IndexMode::GshareHash)
            ? ev.ghist
            : nullptr;
    const std::size_t set = indexOf(ev.pc, nullptr, gh, ev.lhist,
                                    ev.phist);
    for (unsigned i = 0; i < fetchWidth(); ++i) {
        if (!ev.brMask[i])
            continue;
        table_[set * fetchWidth() + i].train(ev.takenMask[i]);
    }
}

std::string
Hbim::describe() const
{
    std::ostringstream oss;
    oss << name() << ": " << params_.sets << "x" << fetchWidth() << " "
        << params_.ctrBits << "-bit counters, " << indexModeName(params_.mode)
        << "-indexed";
    if (params_.mode != IndexMode::Pc)
        oss << " (" << params_.histBits << "b hist)";
    oss << ", latency " << latency();
    return oss.str();
}

void
Hbim::saveState(warp::StateWriter& w) const
{
    warp::saveSatVec(w, table_);
}

void
Hbim::restoreState(warp::StateReader& r)
{
    warp::loadSatVec(r, table_);
}

} // namespace cobra::comps
