#include "components/btb.hpp"

#include <cassert>
#include <sstream>

#include "common/bitutil.hpp"
#include "warp/state_util.hpp"

namespace cobra::comps {

// ---------------------------------------------------------------------
// Set-associative BTB
// ---------------------------------------------------------------------

Btb::Btb(std::string name, const BtbParams& p)
    : PredictorComponent(std::move(name), p.latency, p.fetchWidth),
      params_(p), rng_(0xB7B)
{
    assert(isPow2(p.sets));
    ways_.resize(static_cast<std::size_t>(p.sets) * p.ways);
    slots_.assign(static_cast<std::size_t>(p.sets) * p.ways * p.fetchWidth,
                  SlotEntry{});
}

std::size_t
Btb::setOf(Addr pc) const
{
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    return static_cast<std::size_t>(pcBits & maskBits(
        ceilLog2(params_.sets)));
}

std::uint64_t
Btb::tagOf(Addr pc) const
{
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    return (pcBits >> ceilLog2(params_.sets)) & maskBits(params_.tagBits);
}

void
Btb::predict(const bpu::PredictContext& ctx, bpu::PredictionBundle& inout,
             bpu::Metadata& meta)
{
    const std::size_t set = setOf(ctx.pc);
    const std::uint64_t tag = tagOf(ctx.pc);

    unsigned hitWay = 0;
    bool hit = false;
    unsigned victim = 0;
    std::uint32_t oldest = UINT32_MAX;
    for (unsigned w = 0; w < params_.ways; ++w) {
        Way& way = ways_[set * params_.ways + w];
        if (way.valid && way.tag == tag) {
            hit = true;
            hitWay = w;
            way.lruStamp = ++stamp_;
            break;
        }
        const std::uint32_t age = way.valid ? way.lruStamp : 0;
        if (age < oldest) {
            oldest = age;
            victim = w;
        }
    }

    // Metadata (§III-D): hit flag, hit way, victim way for allocation.
    const unsigned wayBits = ceilLog2(params_.ways);
    meta[0] = (hit ? 1u : 0u) |
              (static_cast<std::uint64_t>(hitWay) << 1) |
              (static_cast<std::uint64_t>(victim) << (1 + wayBits));

    if (!hit)
        return; // Pass the incoming prediction through (Fig. 3).

    const SlotEntry* waySlots =
        &slots_[(set * params_.ways + hitWay) * fetchWidth()];
    for (unsigned i = 0; i < ctx.validSlots && i < inout.width; ++i) {
        const SlotEntry& se = waySlots[i];
        if (!se.valid)
            continue;
        auto& out = inout.slots[i];
        // Augment the incoming prediction with target and type; the
        // direction for conditional branches is left to predict_in.
        out.targetValid = true;
        out.target = se.target;
        out.type = se.type;
        out.isCall = se.isCall;
        out.isRet = se.isRet;
        if (se.type != bpu::CfiType::Br) {
            // Unconditional CF: always redirects.
            out.valid = true;
            out.taken = true;
        } else if (!out.valid) {
            // A known branch with no direction prediction yet: weakly
            // predict taken (the BTB only learned it because it was
            // taken at least once).
            out.valid = true;
            out.taken = true;
        }
    }
}

void
Btb::update(const bpu::ResolveEvent& ev)
{
    // The BTB learns taken control-flow instructions.
    if (!ev.cfiValid || !ev.cfiTaken || ev.target == kInvalidAddr)
        return;

    const std::size_t set = setOf(ev.pc);
    const std::uint64_t tag = tagOf(ev.pc);
    const unsigned wayBits = ceilLog2(params_.ways);
    const bool hadHit = (*ev.meta)[0] & 1;
    const unsigned hitWay = static_cast<unsigned>(
        ((*ev.meta)[0] >> 1) & maskBits(wayBits));
    const unsigned victim = static_cast<unsigned>(
        ((*ev.meta)[0] >> (1 + wayBits)) & maskBits(wayBits));

    unsigned w = hadHit ? hitWay : victim;
    // Re-probe in case the set changed since predict time.
    for (unsigned i = 0; i < params_.ways; ++i) {
        const Way& cand = ways_[set * params_.ways + i];
        if (cand.valid && cand.tag == tag) {
            w = i;
            break;
        }
    }

    Way& way = ways_[set * params_.ways + w];
    SlotEntry* waySlots = &slots_[(set * params_.ways + w) * fetchWidth()];
    if (!way.valid || way.tag != tag) {
        way.valid = true;
        way.tag = tag;
        for (unsigned i = 0; i < fetchWidth(); ++i)
            waySlots[i] = SlotEntry{};
    }
    way.lruStamp = ++stamp_;

    if (ev.cfiIdx < fetchWidth()) {
        SlotEntry& se = waySlots[ev.cfiIdx];
        se.valid = true;
        se.target = ev.target;
        se.type = ev.cfiType;
        se.isCall = ev.cfiIsCall;
        se.isRet = ev.cfiIsRet;
    }
}

std::uint64_t
Btb::storageBits() const
{
    // Per way: tag + valid; per slot: valid + type(2) + call/ret(2) +
    // target offset (we store 30 target bits, a common compression).
    const std::uint64_t perSlot = 1 + 2 + 2 + 30;
    const std::uint64_t perWay = params_.tagBits + 1 +
                                 perSlot * fetchWidth();
    return perWay * params_.sets * params_.ways;
}

std::string
Btb::describe() const
{
    std::ostringstream oss;
    oss << name() << ": " << params_.sets * params_.ways * fetchWidth()
        << "-entry BTB (" << params_.sets << " sets x " << params_.ways
        << " ways x " << fetchWidth() << " slots), latency " << latency();
    return oss.str();
}

// ---------------------------------------------------------------------
// Micro-BTB
// ---------------------------------------------------------------------

MicroBtb::MicroBtb(std::string name, const MicroBtbParams& p)
    : PredictorComponent(std::move(name), /*latency=*/1, p.fetchWidth),
      params_(p)
{
    entries_.resize(p.entries);
    for (auto& e : entries_)
        e.ctr = SatCounter(p.ctrBits, (1u << p.ctrBits) - 1);
}

MicroBtb::Entry*
MicroBtb::lookup(Addr pc)
{
    for (auto& e : entries_)
        if (e.valid && e.pc == pc)
            return &e;
    return nullptr;
}

void
MicroBtb::predict(const bpu::PredictContext& ctx,
                  bpu::PredictionBundle& inout, bpu::Metadata& meta)
{
    // 1-cycle component: PC only, never touches ctx.ghist (§III-B).
    Entry* e = lookup(ctx.pc);
    meta[0] = 0;
    if (e == nullptr)
        return;
    e->lruStamp = ++stamp_;
    meta[0] = 1u | (static_cast<std::uint64_t>(e - entries_.data()) << 1);
    if (!e->ctr.taken() || e->slot >= ctx.validSlots)
        return;
    auto& out = inout.slots[e->slot];
    out.valid = true;
    out.taken = true;
    out.targetValid = true;
    out.target = e->target;
    out.type = e->type;
    out.isCall = e->isCall;
    out.isRet = e->isRet;
}

void
MicroBtb::update(const bpu::ResolveEvent& ev)
{
    Entry* e = lookup(ev.pc);
    if (ev.cfiValid && ev.cfiTaken && ev.target != kInvalidAddr) {
        if (e == nullptr) {
            // Allocate the LRU entry.
            Entry* victim = &entries_[0];
            for (auto& cand : entries_) {
                if (!cand.valid) {
                    victim = &cand;
                    break;
                }
                if (cand.lruStamp < victim->lruStamp)
                    victim = &cand;
            }
            e = victim;
            e->valid = true;
            e->pc = ev.pc;
            e->ctr = SatCounter(params_.ctrBits,
                                (1u << params_.ctrBits) - 1);
        }
        e->slot = ev.cfiIdx;
        e->target = ev.target;
        e->type = ev.cfiType;
        e->isCall = ev.cfiIsCall;
        e->isRet = ev.cfiIsRet;
        e->ctr.increment();
        e->lruStamp = ++stamp_;
    } else if (e != nullptr) {
        // The remembered CFI did not redirect this time; decay.
        e->ctr.decrement();
    }
}

std::uint64_t
MicroBtb::storageBits() const
{
    // Full tag (46b of PC), slot index, 30b target, type/call/ret, ctr.
    const std::uint64_t perEntry = 46 + ceilLog2(fetchWidth()) + 30 + 4 +
                                   params_.ctrBits + 1;
    return perEntry * params_.entries;
}

phys::PhysicalCost
MicroBtb::physicalCost() const
{
    phys::PhysicalCost c;
    c.camBits = 46ull * params_.entries;
    c.flopBits = storageBits() - c.camBits;
    c.logicGates = 50 * params_.entries;
    return c;
}

std::string
MicroBtb::describe() const
{
    std::ostringstream oss;
    oss << name() << ": " << params_.entries
        << "-entry fully-associative uBTB, latency 1";
    return oss.str();
}

void
Btb::saveState(warp::StateWriter& w) const
{
    w.u64(ways_.size());
    for (std::size_t wi = 0; wi < ways_.size(); ++wi) {
        const Way& way = ways_[wi];
        w.boolean(way.valid);
        w.u64(way.tag);
        w.u32(way.lruStamp);
        w.u64(fetchWidth());
        for (unsigned i = 0; i < fetchWidth(); ++i) {
            const SlotEntry& s = slots_[wi * fetchWidth() + i];
            w.boolean(s.valid);
            w.u64(s.target);
            w.u8(static_cast<std::uint8_t>(s.type));
            w.boolean(s.isCall);
            w.boolean(s.isRet);
        }
    }
    w.u32(stamp_);
    warp::saveRng(w, rng_);
}

void
Btb::restoreState(warp::StateReader& r)
{
    if (r.u64() != ways_.size())
        r.fail("BTB way count does not match");
    for (std::size_t wi = 0; wi < ways_.size(); ++wi) {
        Way& way = ways_[wi];
        way.valid = r.boolean();
        way.tag = r.u64();
        way.lruStamp = r.u32();
        if (r.u64() != fetchWidth())
            r.fail("BTB slot count does not match");
        for (unsigned i = 0; i < fetchWidth(); ++i) {
            SlotEntry& s = slots_[wi * fetchWidth() + i];
            s.valid = r.boolean();
            s.target = r.u64();
            s.type = static_cast<bpu::CfiType>(r.u8());
            s.isCall = r.boolean();
            s.isRet = r.boolean();
        }
    }
    stamp_ = r.u32();
    warp::loadRng(r, rng_);
}

void
MicroBtb::saveState(warp::StateWriter& w) const
{
    w.u64(entries_.size());
    for (const Entry& e : entries_) {
        w.boolean(e.valid);
        w.u64(e.pc);
        w.u32(e.slot);
        w.u64(e.target);
        w.u8(static_cast<std::uint8_t>(e.type));
        w.boolean(e.isCall);
        w.boolean(e.isRet);
        warp::saveSat(w, e.ctr);
        w.u32(e.lruStamp);
    }
    w.u32(stamp_);
}

void
MicroBtb::restoreState(warp::StateReader& r)
{
    if (r.u64() != entries_.size())
        r.fail("uBTB entry count does not match");
    for (Entry& e : entries_) {
        e.valid = r.boolean();
        e.pc = r.u64();
        e.slot = r.u32();
        e.target = r.u64();
        e.type = static_cast<bpu::CfiType>(r.u8());
        e.isCall = r.boolean();
        e.isRet = r.boolean();
        warp::loadSat(r, e.ctr);
        e.lruStamp = r.u32();
    }
    stamp_ = r.u32();
}

} // namespace cobra::comps
