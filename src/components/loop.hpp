/**
 * @file
 * Loop predictor (paper §III-G5): corrects periodic mispredictions of
 * a base predictor by counting loop iterations. Unlike commit-updated
 * components it updates speculatively at query/fire time and must be
 * repaired immediately on mispredicts; the metadata field carries the
 * pre-update counter contents so repair can restore them (§III-D/E).
 */

#ifndef COBRA_COMPONENTS_LOOP_HPP
#define COBRA_COMPONENTS_LOOP_HPP

#include <vector>

#include "bpu/component.hpp"

namespace cobra::comps {

/** Parameters of the loop predictor. */
struct LoopParams
{
    unsigned entries = 256;  ///< Direct-mapped entries.
    unsigned tagBits = 10;
    unsigned countBits = 10; ///< Trip/iteration counter width.
    unsigned confMax = 15;   ///< Confidence saturation.
    unsigned confThreshold = 6; ///< Min confidence to override.
    unsigned minTrip = 3;    ///< Don't track trivially short loops.
    unsigned latency = 3;
    unsigned fetchWidth = 4;
};

/**
 * Direct-mapped loop predictor tracking one loop branch per entry
 * (it learns the slot within the fetch packet, §III-C).
 */
class LoopPredictor final : public bpu::PredictorComponent
{
  public:
    LoopPredictor(std::string name, const LoopParams& p);

    unsigned metaBits() const override
    {
        // matched flag + pre-fire speculative count (restore state).
        return 1 + params_.countBits;
    }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    /** Speculative iteration-count advance ("updated at query time"). */
    void fire(const bpu::FireEvent& ev) override;

    /** Immediate restore + corrective update on mispredict. */
    void mispredict(const bpu::ResolveEvent& ev) override;

    /** Forwards-walk restore of the speculative count. */
    void repair(const bpu::ResolveEvent& ev) override;

    /** Commit-time training of trip counts and confidence. */
    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    phys::AccessProfile
    predictAccess() const override
    {
        phys::AccessProfile a;
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

    std::uint64_t storageBits() const override;

    std::string describe() const override;

    const LoopParams& params() const { return params_; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        unsigned slot = 0;        ///< Fetch-packet slot of the branch.
        std::uint32_t trip = 0;   ///< Learned trip count (0 = unknown).
        std::uint32_t specCount = 0; ///< Speculative iteration count.
        std::uint32_t archCount = 0; ///< Committed iteration count.
        unsigned conf = 0;
    };

    std::size_t indexOf(Addr pc) const;
    std::uint32_t tagOf(Addr pc) const;

    LoopParams params_;
    std::vector<Entry> table_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_LOOP_HPP
