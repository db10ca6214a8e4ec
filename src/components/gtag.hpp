/**
 * @file
 * GTAG: a single partially tagged, global-history-indexed counter
 * table — the backing direction predictor of the paper's "B2" design
 * (a model of the original BOOM predictor: 2K partially tagged
 * counters over a 16-bit global history).
 */

#ifndef COBRA_COMPONENTS_GTAG_HPP
#define COBRA_COMPONENTS_GTAG_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters for the GTAG table. */
struct GtagParams
{
    unsigned sets = 512;     ///< Rows; entries = sets * fetchWidth.
    unsigned ctrBits = 2;
    unsigned tagBits = 7;    ///< Partial tag.
    unsigned histBits = 16;  ///< Global history folded into the index.
    unsigned latency = 3;
    unsigned fetchWidth = 4;
};

/**
 * Partially tagged gshare-style table with per-counter tags: each
 * counter predicts only on its own tag hit, passing predict_in
 * through on a miss; counters are allocated on direction mispredicts.
 */
class Gtag final : public bpu::PredictorComponent
{
  public:
    Gtag(std::string name, const GtagParams& p);

    unsigned metaBits() const override
    {
        // Per-slot hit mask + counters read.
        return 8 + fetchWidth() * params_.ctrBits;
    }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    phys::AccessProfile
    predictAccess() const override
    {
        phys::AccessProfile a;
        a.sramReadBits = fetchWidth() *
                         (params_.tagBits + 1 + params_.ctrBits);
        return a;
    }

    phys::AccessProfile
    updateAccess() const override
    {
        phys::AccessProfile a;
        a.sramWriteBits = fetchWidth() *
                          (params_.tagBits + 1 + params_.ctrBits);
        return a;
    }

    std::uint64_t
    storageBits() const override
    {
        // Per counter: tag + valid + counter.
        return static_cast<std::uint64_t>(params_.sets) * fetchWidth() *
               (params_.tagBits + 1 + params_.ctrBits);
    }

    std::string describe() const override;

    const GtagParams& params() const { return params_; }

  private:
    std::size_t indexOf(Addr pc, const HistoryRegister& gh) const;
    std::uint32_t tagOf(Addr pc, const HistoryRegister& gh) const;

    GtagParams params_;
    /** SoA strips, sets * fetchWidth each: entry (row r, slot i) is
     *  index r*fetchWidth+i. A probe touches one dense run per strip
     *  instead of chasing three per-row heap vectors. */
    std::vector<std::uint8_t> valids_;
    std::vector<std::uint32_t> tags_;
    std::vector<SatCounter> ctrs_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_GTAG_HPP
