/**
 * @file
 * Branch target buffers (paper §III-G2): a large 2-cycle
 * set-associative BTB and a small 1-cycle fully-associative micro-BTB
 * (uBTB). Both are *partial* predictors in the sense of §III-F /
 * Fig. 3: they provide targets and CFI types, passing the incoming
 * direction prediction through (the BTB), or provide a complete
 * next-line prediction (the uBTB). The set-associativity is enabled
 * by the metadata field, which carries the hit way to update time.
 */

#ifndef COBRA_COMPONENTS_BTB_HPP
#define COBRA_COMPONENTS_BTB_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/random.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of the set-associative BTB. */
struct BtbParams
{
    unsigned sets = 256;     ///< Sets; total entries = sets*ways*width.
    unsigned ways = 2;
    unsigned tagBits = 20;
    unsigned latency = 2;
    unsigned fetchWidth = 4;
};

/**
 * Set-associative BTB indexed by fetch-packet PC; each way holds a
 * tag and per-slot target records.
 */
class Btb final : public bpu::PredictorComponent
{
  public:
    Btb(std::string name, const BtbParams& p);

    unsigned metaBits() const override
    {
        // Hit-way + hit-valid + victim way (§III-D).
        return ceilLog2(params_.ways) * 2 + 1;
    }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    std::uint64_t storageBits() const override;

    std::string describe() const override;

    const BtbParams& params() const { return params_; }

    phys::AccessProfile
    predictAccess() const override
    {
        phys::AccessProfile a;
        a.sramReadBits = storageBits() / params_.sets; // one set
        return a;
    }

    phys::AccessProfile
    updateAccess() const override
    {
        phys::AccessProfile a;
        a.sramWriteBits =
            storageBits() / params_.sets / params_.ways; // one way
        return a;
    }

    /** Fault injection: flip a way-tag or stored-target bit. */
    bool
    flipStateBit(std::uint64_t rand) override
    {
        if (ways_.empty())
            return false;
        const std::size_t wi = rand % ways_.size();
        Way& w = ways_[wi];
        const std::uint64_t pick = rand >> 32;
        if ((pick & 1) != 0) {
            SlotEntry& s =
                slots_[wi * fetchWidth() + (rand >> 16) % fetchWidth()];
            if (s.valid && s.target != kInvalidAddr) {
                s.target ^= 1ull << ((pick >> 1) % 32);
                return true;
            }
        }
        // Tag corruption: the way now misses (or aliases).
        w.tag ^= 1ull << ((pick >> 1) % 48);
        return true;
    }

  private:
    /** One slot record within a way. */
    struct SlotEntry
    {
        bool valid = false;
        Addr target = kInvalidAddr;
        bpu::CfiType type = bpu::CfiType::None;
        bool isCall = false;
        bool isRet = false;
    };

    /** Way control state; the slot payloads live in the flat slots_
     *  array so a set probe touches one dense tag strip (SoA). */
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint32_t lruStamp = 0;
    };

    std::size_t setOf(Addr pc) const;
    std::uint64_t tagOf(Addr pc) const;

    BtbParams params_;
    std::vector<Way> ways_;        ///< sets * ways, row-major.
    /** Slot payloads, sets * ways * fetchWidth; way w's slots are the
     *  contiguous run [w*fetchWidth, (w+1)*fetchWidth). */
    std::vector<SlotEntry> slots_;
    std::uint32_t stamp_ = 0;
    Rng rng_;
};

/** Parameters of the micro-BTB. */
struct MicroBtbParams
{
    unsigned entries = 32;
    unsigned ctrBits = 2;   ///< Hysteresis on next-line predictions.
    unsigned fetchWidth = 4;
};

/**
 * Fully-associative 1-cycle uBTB: caches taken CFIs and provides a
 * complete early prediction (direction + target + type) for the slot
 * it remembers. PC-only: it responds before histories are available.
 */
class MicroBtb final : public bpu::PredictorComponent
{
  public:
    MicroBtb(std::string name, const MicroBtbParams& p);

    unsigned metaBits() const override
    {
        return ceilLog2(params_.entries) + 1;
    }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    std::uint64_t storageBits() const override;

    /** Fully-associative: tags are CAM bits, payload is flops. */
    phys::PhysicalCost physicalCost() const override;

    phys::AccessProfile
    predictAccess() const override
    {
        phys::AccessProfile a;
        a.camSearchBits = 46ull * params_.entries;
        a.sramReadBits = storageBits() / params_.entries;
        return a;
    }

    phys::AccessProfile
    updateAccess() const override
    {
        phys::AccessProfile a;
        a.sramWriteBits = storageBits() / params_.entries;
        return a;
    }

    std::string describe() const override;

    /** Fault injection: flip a hysteresis-counter or target bit. */
    bool
    flipStateBit(std::uint64_t rand) override
    {
        if (entries_.empty())
            return false;
        Entry& e = entries_[rand % entries_.size()];
        const std::uint64_t pick = rand >> 32;
        if (e.valid && (pick & 1) != 0 && e.target != kInvalidAddr) {
            e.target ^= 1ull << ((pick >> 1) % 32);
        } else {
            const unsigned bit = static_cast<unsigned>(
                (pick >> 1) % e.ctr.numBits());
            e.ctr.set(e.ctr.value() ^ (1u << bit));
        }
        return true;
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = kInvalidAddr;      ///< Fetch-packet PC (full tag).
        unsigned slot = 0;
        Addr target = kInvalidAddr;
        bpu::CfiType type = bpu::CfiType::None;
        bool isCall = false;
        bool isRet = false;
        SatCounter ctr;              ///< Taken hysteresis.
        std::uint32_t lruStamp = 0;
    };

    Entry* lookup(Addr pc);

    MicroBtbParams params_;
    std::vector<Entry> entries_;
    std::uint32_t stamp_ = 0;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_BTB_HPP
