/**
 * @file
 * Perceptron predictor (Jiménez & Lin), included to demonstrate that
 * the COBRA interface accommodates predictors that "might only be
 * able to provide a single prediction per cycle" (paper §III-C): the
 * perceptron learns the index into the fetch packet at which to
 * provide its prediction.
 */

#ifndef COBRA_COMPONENTS_PERCEPTRON_HPP
#define COBRA_COMPONENTS_PERCEPTRON_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of the perceptron table. */
struct PerceptronParams
{
    unsigned entries = 256;  ///< Direct-mapped perceptrons.
    unsigned histBits = 24;  ///< Weights per perceptron (+ bias).
    unsigned weightBits = 8;
    unsigned latency = 3;
    unsigned fetchWidth = 4;
    /** Training threshold theta ~= 1.93*h + 14 (Jiménez). */
    int theta() const
    {
        return static_cast<int>(1.93 * histBits + 14);
    }
};

/**
 * Global-history perceptron providing one prediction per packet, at
 * the learned slot.
 */
class Perceptron final : public bpu::PredictorComponent
{
  public:
    Perceptron(std::string name, const PerceptronParams& p);

    unsigned metaBits() const override
    {
        // Learned slot + |output| magnitude (clamped to 16 bits).
        return ceilLog2(fetchWidth()) + 1 + 16;
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
        const std::uint64_t perEntry =
            static_cast<std::uint64_t>(params_.histBits + 1) *
                params_.weightBits +
            ceilLog2(fetchWidth());
        return perEntry * params_.entries;
    }

    std::string describe() const override;

  private:
    struct Entry
    {
        std::vector<SignedSatCounter> weights; ///< [0] = bias.
        unsigned slot = 0; ///< Learned fetch-packet slot.
    };

    std::size_t indexOf(Addr pc) const;
    int dot(const Entry& e, const HistoryRegister& gh) const;

    PerceptronParams params_;
    std::vector<Entry> table_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_PERCEPTRON_HPP
