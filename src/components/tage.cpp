#include "components/tage.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/bitutil.hpp"
#include "warp/state_util.hpp"

namespace cobra::comps {

namespace {

/** Per-slot metadata layout (12 bits per slot). */
constexpr unsigned kSlotMetaBits = 12;

/** Upper bound on tagged tables; lets predict/update use fixed
 *  stack arrays instead of per-call heap vectors. The provider field
 *  in the slot metadata is 4 bits (table + 1), so 15 is also the
 *  metadata format's limit. */
constexpr unsigned kMaxTables = 15;
constexpr unsigned kProviderShift = 0; // 4 bits, value = table + 1.
constexpr unsigned kCtrShift = 4;      // 3 bits.
constexpr unsigned kAltTakenShift = 7;
constexpr unsigned kAltValidShift = 8;
constexpr unsigned kUsedAltShift = 9;
constexpr unsigned kFinalShift = 10;
constexpr unsigned kNewAllocShift = 11;

// Four slots per 64-bit word so no slot straddles a word boundary.
std::uint64_t
getSlotMeta(const bpu::Metadata& m, unsigned slot)
{
    const unsigned word = slot / 4;
    const unsigned off = (slot % 4) * kSlotMetaBits;
    return (m[word] >> off) & maskBits(kSlotMetaBits);
}

void
setSlotMeta(bpu::Metadata& m, unsigned slot, std::uint64_t v)
{
    const unsigned word = slot / 4;
    const unsigned off = (slot % 4) * kSlotMetaBits;
    m[word] &= ~(maskBits(kSlotMetaBits) << off);
    m[word] |= (v & maskBits(kSlotMetaBits)) << off;
}

} // namespace

TageParams
TageParams::tageL(unsigned fetch_width)
{
    TageParams p;
    p.fetchWidth = fetch_width;
    p.latency = 3;
    // Geometric history lengths over a 64-bit global history,
    // mirroring the paper's 7-table TAGE-L (Table I).
    const unsigned lens[7] = {4, 7, 12, 20, 32, 48, 64};
    for (unsigned i = 0; i < 7; ++i) {
        TageTableParams t;
        t.sets = 512;
        t.histLen = lens[i];
        t.tagBits = 9 + i / 3; // 9..11-bit tags, longer for long hist.
        p.tables.push_back(t);
    }
    return p;
}

Tage::Tage(std::string name, const TageParams& p)
    : PredictorComponent(std::move(name), p.latency, p.fetchWidth),
      params_(p), rng_(0x7A6E)
{
    assert(!p.tables.empty());
    assert(p.tables.size() <= kMaxTables);
    assert(p.latency >= 2);
    assert(p.ctrBits >= 2 && p.ctrBits <= 4);
    for (const auto& tp : p.tables) {
        assert(isPow2(tp.sets));
        Table t;
        t.p = tp;
        t.rows.resize(tp.sets);
        t.ctrs.assign(static_cast<std::size_t>(tp.sets) * p.fetchWidth,
                      SatCounter(p.ctrBits, (1u << p.ctrBits) / 2));
        tables_.push_back(std::move(t));
    }
}

unsigned
Tage::metaBits() const
{
    return fetchWidth() * kSlotMetaBits;
}

phys::AccessProfile
Tage::predictAccess() const
{
    phys::AccessProfile a;
    for (const auto& t : tables_) {
        a.sramReadBits += 1 + t.p.tagBits + params_.uBits +
                          fetchWidth() * params_.ctrBits;
    }
    return a;
}

phys::AccessProfile
Tage::updateAccess() const
{
    phys::AccessProfile a;
    // Provider training + (occasional) allocation: ~1-2 row writes.
    a.sramWriteBits = 2 * (1 + tables_.back().p.tagBits + params_.uBits +
                           fetchWidth() * params_.ctrBits);
    return a;
}

unsigned
Tage::maxHistLen() const
{
    unsigned m = 0;
    for (const auto& t : tables_)
        m = std::max(m, t.p.histLen);
    return m;
}

bool
Tage::flipStateBit(std::uint64_t rand)
{
    if (tables_.empty())
        return false;
    Table& t = tables_[rand % tables_.size()];
    if (t.rows.empty())
        return false;
    const std::size_t ri = (rand >> 8) % t.rows.size();
    Row& r = t.rows[ri];
    const std::uint64_t pick = rand >> 32;
    if (t.p.tagBits > 0 && (fetchWidth() == 0 || (pick & 1) != 0)) {
        // Tag bit: the row now misses (or aliases) for its branch.
        r.tag ^= 1u << ((pick >> 1) % t.p.tagBits);
        return true;
    }
    if (fetchWidth() == 0)
        return false;
    SatCounter& c =
        t.ctrs[ri * fetchWidth() + (pick >> 1) % fetchWidth()];
    const unsigned bit = static_cast<unsigned>((pick >> 16) % c.numBits());
    c.set(c.value() ^ (1u << bit));
    return true;
}

std::size_t
Tage::indexOf(const Table& t, Addr pc, const HistoryRegister& gh) const
{
    const unsigned idxBits = ceilLog2(t.p.sets);
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    const std::uint64_t folded = gh.folded(t.p.histLen, idxBits);
    return static_cast<std::size_t>(
        (pcBits ^ (pcBits >> idxBits) ^ folded) & maskBits(idxBits));
}

std::uint32_t
Tage::tagOf(const Table& t, Addr pc, const HistoryRegister& gh) const
{
    const std::uint64_t pcBits = pc >> (2 + ceilLog2(fetchWidth()));
    // A second, differently folded hash decorrelates tag from index.
    const std::uint64_t folded = gh.folded(t.p.histLen, t.p.tagBits) ^
                                 (gh.folded(t.p.histLen, t.p.tagBits - 1)
                                  << 1);
    return static_cast<std::uint32_t>(
        (pcBits ^ folded ^ (pcBits >> 7)) & maskBits(t.p.tagBits));
}

void
Tage::predict(const bpu::PredictContext& ctx, bpu::PredictionBundle& inout,
              bpu::Metadata& meta)
{
    const HistoryRegister& gh = requireGhist(ctx);
    const unsigned n = static_cast<unsigned>(tables_.size());

    bool hit[kMaxTables];
    std::size_t idx[kMaxTables];
    for (unsigned t = 0; t < n; ++t) {
        idx[t] = indexOf(tables_[t], ctx.pc, gh);
        const Row& row = tables_[t].rows[idx[t]];
        hit[t] = row.valid && row.tag == tagOf(tables_[t], ctx.pc, gh);
    }

    for (unsigned i = 0; i < ctx.validSlots && i < inout.width; ++i) {
        int provider = -1;
        int alt = -1;
        for (int t = static_cast<int>(n) - 1; t >= 0; --t) {
            if (!hit[t])
                continue;
            if (provider < 0) {
                provider = t;
            } else {
                alt = t;
                break;
            }
        }

        std::uint64_t m = 0;
        if (provider >= 0) {
            const Table& ptab = tables_[provider];
            const Row& prow = ptab.rows[idx[provider]];
            const SatCounter& ctr =
                ptab.ctrs[idx[provider] * fetchWidth() + i];
            const bool providerTaken = ctr.taken();
            const unsigned mid = (1u << params_.ctrBits) / 2;
            const bool weak = ctr.value() == mid || ctr.value() == mid - 1;
            const bool newAlloc = prow.u == 0 && weak;

            bool altValid = false;
            bool altTaken = false;
            if (alt >= 0) {
                altValid = true;
                altTaken = tables_[alt]
                               .ctrs[idx[alt] * fetchWidth() + i]
                               .taken();
            } else if (inout.slots[i].valid) {
                // The base predictor below TAGE is the alternate.
                altValid = true;
                altTaken = inout.slots[i].taken;
            }

            const bool useAlt =
                newAlloc && useAltOnNa_.positive() && altValid;
            const bool finalTaken = useAlt ? altTaken : providerTaken;

            if (!(useAlt && alt < 0)) {
                // Unless we defer to predict_in itself, override.
                inout.slots[i].valid = true;
                inout.slots[i].taken = finalTaken;
            }

            m |= (static_cast<std::uint64_t>(provider + 1)
                  << kProviderShift);
            m |= (static_cast<std::uint64_t>(ctr.value()) << kCtrShift);
            m |= (altTaken ? 1ull : 0ull) << kAltTakenShift;
            m |= (altValid ? 1ull : 0ull) << kAltValidShift;
            m |= (useAlt ? 1ull : 0ull) << kUsedAltShift;
            m |= (finalTaken ? 1ull : 0ull) << kFinalShift;
            m |= (newAlloc ? 1ull : 0ull) << kNewAllocShift;
        }
        setSlotMeta(meta, i, m);
    }
}

void
Tage::update(const bpu::ResolveEvent& ev)
{
    assert(ev.ghist != nullptr);
    const HistoryRegister& gh = *ev.ghist;
    const unsigned n = static_cast<unsigned>(tables_.size());

    std::size_t idx[kMaxTables];
    std::uint32_t tag[kMaxTables];
    for (unsigned t = 0; t < n; ++t) {
        idx[t] = indexOf(tables_[t], ev.pc, gh);
        tag[t] = tagOf(tables_[t], ev.pc, gh);
    }

    for (unsigned i = 0; i < fetchWidth(); ++i) {
        if (!ev.brMask[i])
            continue;
        const bool taken = ev.takenMask[i];
        const std::uint64_t m = getSlotMeta(*ev.meta, i);
        const unsigned providerPlus1 = static_cast<unsigned>(
            (m >> kProviderShift) & 0xf);
        const unsigned pctr = static_cast<unsigned>((m >> kCtrShift) & 0x7);
        const bool altTaken = (m >> kAltTakenShift) & 1;
        const bool altValid = (m >> kAltValidShift) & 1;
        const bool finalTaken = (m >> kFinalShift) & 1;
        const bool newAlloc = (m >> kNewAllocShift) & 1;
        const unsigned mid = (1u << params_.ctrBits) / 2;
        const bool providerTaken = pctr >= mid;

        int provider = static_cast<int>(providerPlus1) - 1;
        bool providerValidNow = false;
        if (provider >= 0) {
            Table& ptab = tables_[provider];
            Row& prow = ptab.rows[idx[provider]];
            providerValidNow = prow.valid && prow.tag == tag[provider];
            if (providerValidNow) {
                ptab.ctrs[idx[provider] * fetchWidth() + i].train(taken);
                // Useful bit: provider disagreed with alternate and
                // was right (or wrong).
                if (altValid && providerTaken != altTaken) {
                    if (providerTaken == taken) {
                        if (prow.u < maskBits(params_.uBits))
                            ++prow.u;
                    } else if (prow.u > 0) {
                        --prow.u;
                    }
                }
            }
            // Track whether newly allocated entries should be trusted.
            if (newAlloc && altValid && providerTaken != altTaken)
                useAltOnNa_.train(altTaken == taken);
        }

        // Allocate a longer-history entry when the overall TAGE
        // prediction (what this component emitted) was wrong. With no
        // provider the pass-through (base) prediction was effective.
        const bool hadPrediction = providerPlus1 != 0;
        const bool mispredHere = hadPrediction
                                     ? (finalTaken != taken)
                                     : ev.slotMispredicted(i);
        const unsigned start = static_cast<unsigned>(provider + 1);
        if (mispredHere && start < n) {
            // Gather u==0 candidates among longer tables.
            unsigned numFree = 0;
            for (unsigned t = start; t < n; ++t)
                if (tables_[t].rows[idx[t]].u == 0)
                    ++numFree;
            if (numFree == 0) {
                for (unsigned t = start; t < n; ++t) {
                    Row& r = tables_[t].rows[idx[t]];
                    if (r.u > 0)
                        --r.u;
                }
            } else {
                // Prefer shorter tables with probability 1/2 per skip
                // (Seznec's randomized allocation).
                unsigned pick = 0;
                unsigned seen = 0;
                for (unsigned t = start; t < n; ++t) {
                    if (tables_[t].rows[idx[t]].u != 0)
                        continue;
                    pick = t;
                    ++seen;
                    if (seen == numFree || !rng_.chance(0.5))
                        break;
                }
                Table& at = tables_[pick];
                Row& r = at.rows[idx[pick]];
                r.valid = true;
                r.tag = tag[pick];
                r.u = 0;
                SatCounter* rowCtrs = &at.ctrs[idx[pick] * fetchWidth()];
                for (unsigned s = 0; s < fetchWidth(); ++s)
                    rowCtrs[s] = SatCounter(params_.ctrBits, mid);
                rowCtrs[i] = SatCounter(params_.ctrBits,
                                        taken ? mid : mid - 1);
            }
        }

        if (++updateCount_ % params_.uDecayPeriod == 0)
            decayUseful();
    }
}

void
Tage::decayUseful()
{
    for (auto& t : tables_)
        for (auto& r : t.rows)
            r.u >>= 1;
}

std::uint64_t
Tage::storageBits() const
{
    std::uint64_t bits = 0;
    for (const auto& t : tables_) {
        const std::uint64_t perRow =
            1 + t.p.tagBits + params_.uBits +
            static_cast<std::uint64_t>(fetchWidth()) * params_.ctrBits;
        bits += perRow * t.p.sets;
    }
    return bits;
}

std::string
Tage::describe() const
{
    std::ostringstream oss;
    oss << name() << ": " << tables_.size() << " tagged tables (";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (i)
            oss << ",";
        oss << tables_[i].p.histLen;
    }
    oss << "b hist), latency " << latency();
    return oss.str();
}

// Each table travels as one block. Per row: the bytes of
// boolean(valid), u32(tag), u8(u), u64(fetchWidth), then fetchWidth
// u32 counter values.
constexpr std::size_t kRowHeadBytes = 1 + 4 + 1 + 8;

void
Tage::saveState(warp::StateWriter& w) const
{
    const std::size_t fw = fetchWidth();
    const std::size_t rowBytes = kRowHeadBytes + 4 * fw;
    w.u64(tables_.size());
    for (const Table& t : tables_) {
        w.u64(t.rows.size());
        std::uint8_t* p = w.block(t.rows.size() * rowBytes);
        for (std::size_t ri = 0; ri < t.rows.size(); ++ri) {
            const Row& row = t.rows[ri];
            p[0] = row.valid ? 1 : 0;
            warp::storeLE(p + 1, row.tag);
            p[5] = row.u;
            warp::storeLE<std::uint64_t>(p + 6, fw);
            for (std::size_t s = 0; s < fw; ++s) {
                warp::storeLE<std::uint32_t>(p + kRowHeadBytes + 4 * s,
                                             t.ctrs[ri * fw + s].value());
            }
            p += rowBytes;
        }
    }
    warp::saveSigned(w, useAltOnNa_);
    w.u64(updateCount_);
    warp::saveRng(w, rng_);
}

void
Tage::restoreState(warp::StateReader& r)
{
    const std::size_t fw = fetchWidth();
    const std::size_t rowBytes = kRowHeadBytes + 4 * fw;
    if (r.u64() != tables_.size())
        r.fail("TAGE table count does not match");
    for (Table& t : tables_) {
        if (r.u64() != t.rows.size())
            r.fail("TAGE row count does not match");
        const std::uint8_t* p = r.block(t.rows.size() * rowBytes);
        for (std::size_t ri = 0; ri < t.rows.size(); ++ri) {
            Row& row = t.rows[ri];
            row.valid = r.checkedBool(p[0]);
            row.tag = warp::loadLE<std::uint32_t>(p + 1);
            row.u = p[5];
            if (warp::loadLE<std::uint64_t>(p + 6) != fw)
                r.fail("TAGE counter count does not match");
            for (std::size_t s = 0; s < fw; ++s) {
                warp::setSat(r, t.ctrs[ri * fw + s],
                             warp::loadLE<std::uint32_t>(
                                 p + kRowHeadBytes + 4 * s));
            }
            p += rowBytes;
        }
    }
    warp::loadSigned(r, useAltOnNa_);
    updateCount_ = r.u64();
    warp::loadRng(r, rng_);
}

} // namespace cobra::comps
