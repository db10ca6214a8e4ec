/**
 * @file
 * Statistical corrector (library extension; the paper's §III-G notes
 * that a statistical corrector [40]/[41] "may be implemented
 * similarly" to the provided sub-components, and the TAGE-L design is
 * described as TAGE-SC-L "only with no statistical corrector").
 *
 * The corrector sits above TAGE in a topology and learns, per
 * (PC, history, incoming-prediction) context, whether the incoming
 * prediction is statistically untrustworthy — reverting it when a
 * confident negative vote accumulates. A dynamic threshold tunes how
 * aggressive reversion is (Seznec's TAGE-SC-L mechanism, simplified).
 */

#ifndef COBRA_COMPONENTS_STAT_CORRECTOR_HPP
#define COBRA_COMPONENTS_STAT_CORRECTOR_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of the statistical corrector. */
struct StatCorrectorParams
{
    unsigned sets = 256;       ///< Rows per table.
    unsigned numTables = 3;    ///< Tables with geometric history.
    unsigned baseHistLen = 4;  ///< Table t uses baseHistLen << t bits.
    unsigned ctrBits = 6;      ///< Signed counter width.
    unsigned initialThreshold = 5;
    unsigned latency = 3;
    unsigned fetchWidth = 4;
};

/**
 * Confidence-voted corrector over the incoming prediction.
 */
class StatCorrector final : public bpu::PredictorComponent
{
  public:
    StatCorrector(std::string name, const StatCorrectorParams& p);

    unsigned metaBits() const override { return fetchWidth() * 16; }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    std::uint64_t storageBits() const override;

    std::string describe() const override;

    const StatCorrectorParams& params() const { return params_; }

    /** Current dynamic reversion threshold (for tests). */
    int threshold() const { return useThreshold_.value(); }

  private:
    struct Table
    {
        unsigned histLen = 4;
        std::vector<SignedSatCounter> ctrs;
    };

    std::size_t indexOf(const Table& t, Addr pc,
                        const HistoryRegister& gh, unsigned slot,
                        bool pred) const;
    int vote(Addr pc, const HistoryRegister& gh, unsigned slot,
             bool pred) const;

    StatCorrectorParams params_;
    std::vector<Table> tables_;
    SatCounter useThreshold_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_STAT_CORRECTOR_HPP
