/**
 * @file
 * Tournament selector (paper §III-G3): an arbitration scheme with a
 * 2-bit counter table indexed by global history that selects the
 * winning sub-predictor. The metadata field tracks the predictions
 * made by both sub-predictors so the counter update can be computed
 * at commit time (§III-D).
 */

#ifndef COBRA_COMPONENTS_TOURNEY_HPP
#define COBRA_COMPONENTS_TOURNEY_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of the tournament selector. */
struct TourneyParams
{
    unsigned sets = 1024;   ///< Choice counters.
    unsigned ctrBits = 2;
    unsigned histBits = 10; ///< Global-history bits indexing the table.
    unsigned latency = 3;
    unsigned fetchWidth = 4;
};

/**
 * Chooses between two predict_in inputs (conventionally: input 0 =
 * the global-history predictor, input 1 = the local-history
 * predictor; counter high = trust input 0).
 */
class Tourney final : public bpu::PredictorComponent
{
  public:
    Tourney(std::string name, const TourneyParams& p);

    bool isArbiter() const override { return true; }

    unsigned metaBits() const override
    {
        // Per slot: both inputs' (valid, taken) + counter read.
        return fetchWidth() * (4 + params_.ctrBits);
    }

    void
    predict(const bpu::PredictContext&, bpu::PredictionBundle&,
            bpu::Metadata&) override
    {
        assert(!"tournament selector must be placed at an arb node");
    }

    void arbitrate(const bpu::PredictContext& ctx,
                   std::span<const bpu::PredictionBundle> inputs,
                   bpu::PredictionBundle& inout,
                   bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    phys::AccessProfile
    predictAccess() const override
    {
        phys::AccessProfile a;
        a.sramReadBits = params_.ctrBits;
        return a;
    }

    phys::AccessProfile
    updateAccess() const override
    {
        phys::AccessProfile a;
        a.sramWriteBits = params_.ctrBits;
        return a;
    }

    std::uint64_t
    storageBits() const override
    {
        return static_cast<std::uint64_t>(params_.sets) * params_.ctrBits;
    }

    std::string describe() const override;

    const TourneyParams& params() const { return params_; }

  private:
    std::size_t indexOf(const HistoryRegister& gh) const;

    TourneyParams params_;
    std::vector<SatCounter> table_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_TOURNEY_HPP
