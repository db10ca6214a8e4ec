#include "components/gtag.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/bitutil.hpp"
#include "warp/state_util.hpp"

namespace cobra::comps {

Gtag::Gtag(std::string name, const GtagParams& p)
    : PredictorComponent(std::move(name), p.latency, p.fetchWidth),
      params_(p)
{
    assert(isPow2(p.sets));
    assert(p.latency >= 2);
    const std::size_t n = static_cast<std::size_t>(p.sets) * p.fetchWidth;
    valids_.assign(n, 0);
    tags_.assign(n, 0);
    ctrs_.assign(n, SatCounter(p.ctrBits, (1u << p.ctrBits) / 2));
}

std::size_t
Gtag::indexOf(Addr pc, const HistoryRegister& gh) const
{
    const unsigned idxBits = ceilLog2(params_.sets);
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    return static_cast<std::size_t>(
        (pcBits ^ gh.folded(params_.histBits, idxBits)) &
        maskBits(idxBits));
}

std::uint32_t
Gtag::tagOf(Addr pc, const HistoryRegister& gh) const
{
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    return static_cast<std::uint32_t>(
        hashCombine(pcBits, gh.folded(params_.histBits, params_.tagBits)) &
        maskBits(params_.tagBits));
}

void
Gtag::predict(const bpu::PredictContext& ctx, bpu::PredictionBundle& inout,
              bpu::Metadata& meta)
{
    const HistoryRegister& gh = requireGhist(ctx);
    const std::size_t base = indexOf(ctx.pc, gh) * fetchWidth();
    const std::uint32_t tag = tagOf(ctx.pc, gh);

    // Per-counter partial tags ("2K partially tagged counters"): each
    // slot hits independently; misses pass predict_in through.
    for (unsigned i = 0; i < ctx.validSlots && i < inout.width; ++i) {
        const bool hit = valids_[base + i] != 0 && tags_[base + i] == tag;
        if (!hit)
            continue;
        inout.slots[i].valid = true;
        inout.slots[i].taken = ctrs_[base + i].taken();
        meta[0] |= 1ull << i; // hit mask
        meta[0] |= static_cast<std::uint64_t>(ctrs_[base + i].value())
                   << (8 + i * params_.ctrBits);
    }
}

void
Gtag::update(const bpu::ResolveEvent& ev)
{
    assert(ev.ghist != nullptr);
    const std::size_t base = indexOf(ev.pc, *ev.ghist) * fetchWidth();
    const std::uint32_t tag = tagOf(ev.pc, *ev.ghist);

    for (unsigned i = 0; i < fetchWidth(); ++i) {
        if (!ev.brMask[i])
            continue;
        const bool taken = ev.takenMask[i];
        const bool hit = valids_[base + i] != 0 && tags_[base + i] == tag;
        if (hit) {
            ctrs_[base + i].train(taken);
            continue;
        }
        // Allocate on a direction mispredict (the cheaper predictors
        // below this one got it wrong) — including not-taken
        // mispredicts, which carry no taken CFI.
        if (ev.slotMispredicted(i)) {
            valids_[base + i] = 1;
            tags_[base + i] = tag;
            const unsigned mid = (1u << params_.ctrBits) / 2;
            ctrs_[base + i] =
                SatCounter(params_.ctrBits, taken ? mid : mid - 1);
        }
    }
}

std::string
Gtag::describe() const
{
    std::ostringstream oss;
    oss << name() << ": " << params_.sets * fetchWidth()
        << " partially tagged counters (" << params_.tagBits << "b tag, "
        << params_.histBits << "b ghist), latency " << latency();
    return oss.str();
}

void
Gtag::saveState(warp::StateWriter& w) const
{
    w.u64(valids_.size());
    for (std::uint8_t v : valids_)
        w.boolean(v != 0);
    for (std::uint32_t t : tags_)
        w.u32(t);
    warp::saveSatVec(w, ctrs_);
}

void
Gtag::restoreState(warp::StateReader& r)
{
    if (r.u64() != valids_.size())
        r.fail("GTAG entry count does not match");
    for (std::uint8_t& v : valids_)
        v = r.boolean() ? 1 : 0;
    for (std::uint32_t& t : tags_)
        t = r.u32();
    warp::loadSatVec(r, ctrs_);
}

} // namespace cobra::comps
