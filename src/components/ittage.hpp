/**
 * @file
 * ITTAGE-style indirect-target predictor (library extension). The
 * base library predicts indirect targets only through the BTB's last
 * seen target; this component adds history-tagged target tables so
 * polymorphic indirect jumps (switch dispatch, virtual calls — the
 * §III-G "other predictor types may be implemented similarly" case)
 * get history-correlated targets. It overrides only the target field
 * of Jalr slots (a partial prediction, §III-F).
 */

#ifndef COBRA_COMPONENTS_ITTAGE_HPP
#define COBRA_COMPONENTS_ITTAGE_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/random.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of the indirect-target predictor. */
struct IttageParams
{
    unsigned sets = 128;      ///< Rows per table.
    unsigned numTables = 3;
    unsigned baseHistLen = 4; ///< Table t uses baseHistLen * 2^t bits.
    unsigned tagBits = 9;
    unsigned confBits = 2;
    unsigned latency = 3;
    unsigned fetchWidth = 4;
};

/**
 * History-tagged indirect target tables with provider selection.
 */
class Ittage final : public bpu::PredictorComponent
{
  public:
    Ittage(std::string name, const IttageParams& p);

    unsigned metaBits() const override
    {
        // Per-packet: provider table id + hit flag (the CFI slot is
        // recovered from the resolution event).
        return 4;
    }

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    std::uint64_t storageBits() const override;

    std::string describe() const override;

  private:
    struct Row
    {
        bool valid = false;
        std::uint32_t tag = 0;
        Addr target = kInvalidAddr;
        SatCounter conf;
    };

    struct Table
    {
        unsigned histLen = 4;
        std::vector<Row> rows;
    };

    std::size_t indexOf(const Table& t, Addr pc,
                        const HistoryRegister& gh) const;
    std::uint32_t tagOf(const Table& t, Addr pc,
                        const HistoryRegister& gh) const;

    IttageParams params_;
    std::vector<Table> tables_;
    Rng rng_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_ITTAGE_HPP
