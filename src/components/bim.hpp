/**
 * @file
 * HBIM: bimodal counter tables with parameterised indexing
 * (paper §III-G1): PC, global history, local history, or a hashed
 * combination (gshare-style). Superscalar: each row holds fetchWidth
 * counters so adjacent branches in a packet do not alias (§III-C).
 * The metadata field stores the counters read at predict time to
 * avoid re-reading the table at update time (§III-D).
 */

#ifndef COBRA_COMPONENTS_BIM_HPP
#define COBRA_COMPONENTS_BIM_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Index-generation mode for a counter table. */
enum class IndexMode : std::uint8_t
{
    Pc,           ///< PC bits only (classic bimodal).
    GlobalHist,   ///< Global history bits only.
    LocalHist,    ///< Local history bits only.
    GshareHash,   ///< PC xor folded global history.
    LshareHash,   ///< PC xor folded local history.
    PathHash,     ///< PC xor folded path history (§IV-B3 extension).
};

const char* indexModeName(IndexMode m);

/** Parameters of an HBIM instance. */
struct HbimParams
{
    unsigned sets = 4096;     ///< Rows (each row = fetchWidth counters).
    unsigned ctrBits = 2;     ///< Counter width.
    IndexMode mode = IndexMode::Pc;
    unsigned histBits = 10;   ///< History bits folded into the index.
    unsigned latency = 2;
    unsigned fetchWidth = 4;
};

/**
 * History-indexed bimodal counter table.
 */
class Hbim final : public bpu::PredictorComponent
{
  public:
    Hbim(std::string name, const HbimParams& p);

    unsigned metaBits() const override
    {
        return fetchWidth() * params_.ctrBits;
    }

    bool
    usesLocalHistory() const override
    {
        return params_.mode == IndexMode::LocalHist ||
               params_.mode == IndexMode::LshareHash;
    }

    phys::AccessProfile
    predictAccess() const override
    {
        phys::AccessProfile a;
        a.sramReadBits = fetchWidth() * params_.ctrBits;
        return a;
    }

    phys::AccessProfile
    updateAccess() const override
    {
        phys::AccessProfile a;
        a.sramWriteBits = fetchWidth() * params_.ctrBits;
        return a;
    }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    std::uint64_t
    storageBits() const override
    {
        return static_cast<std::uint64_t>(params_.sets) * fetchWidth() *
               params_.ctrBits;
    }

    std::string describe() const override;

    const HbimParams& params() const { return params_; }

    /** Raw counter access for tests. */
    const SatCounter& counterAt(std::size_t set, unsigned slot) const
    {
        return table_[set * fetchWidth() + slot];
    }

    /** Fault injection: flip one bit of one saturating counter. */
    bool
    flipStateBit(std::uint64_t rand) override
    {
        if (table_.empty())
            return false;
        SatCounter& c = table_[rand % table_.size()];
        const unsigned bit =
            static_cast<unsigned>((rand >> 32) % c.numBits());
        c.set(c.value() ^ (1u << bit));
        return true;
    }

  private:
    std::size_t indexOf(Addr pc, const bpu::PredictContext* ctx,
                        const HistoryRegister* ghist,
                        std::uint64_t lhist,
                        std::uint64_t phist) const;

    HbimParams params_;
    std::vector<SatCounter> table_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_BIM_HPP
