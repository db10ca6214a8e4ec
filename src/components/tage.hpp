/**
 * @file
 * TAGE (paper §III-G4): a set of global-history tagged tables managed
 * per Seznec's "A new case for the TAGE branch predictor" [40] —
 * geometric history lengths, provider/alternate selection, useful
 * counters with periodic decay, and allocate-on-mispredict. The
 * metadata field tracks the provider table and read counters so
 * update needs no second read (§III-D); indices are regenerated at
 * update time from the histories the interface provides back.
 *
 * Superscalar: each row holds fetchWidth 3-bit counters under one
 * tag, so every slot of a fetch packet gets a direction (§III-C).
 */

#ifndef COBRA_COMPONENTS_TAGE_HPP
#define COBRA_COMPONENTS_TAGE_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/random.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of one tagged table. */
struct TageTableParams
{
    unsigned sets = 512;
    unsigned histLen = 8;
    unsigned tagBits = 9;
};

/** Parameters of the whole TAGE component. */
struct TageParams
{
    std::vector<TageTableParams> tables;
    unsigned ctrBits = 3;
    unsigned uBits = 2;
    unsigned latency = 3;
    unsigned fetchWidth = 4;
    /** Updates between useful-bit decay sweeps. */
    std::uint64_t uDecayPeriod = 1 << 18;

    /**
     * The paper's TAGE-L configuration: 7 tables over a 64-bit global
     * history with geometric history lengths.
     */
    static TageParams tageL(unsigned fetch_width = 4);
};

/**
 * The TAGE sub-component. Provides a direction only when a tagged
 * table hits (otherwise predict_in — the base predictor below it in
 * the topology — passes through, §III-F).
 */
class Tage final : public bpu::PredictorComponent
{
  public:
    Tage(std::string name, const TageParams& p);

    unsigned metaBits() const override;

    void predict(const bpu::PredictContext& ctx,
                 bpu::PredictionBundle& inout,
                 bpu::Metadata& meta) override;

    void update(const bpu::ResolveEvent& ev) override;

    void saveState(warp::StateWriter& w) const override;
    void restoreState(warp::StateReader& r) override;

    phys::AccessProfile predictAccess() const override;
    phys::AccessProfile updateAccess() const override;

    std::uint64_t storageBits() const override;

    std::string describe() const override;

    const TageParams& params() const { return params_; }

    /** Longest history length across tables (needs ghist >= this). */
    unsigned maxHistLen() const;

    /** Fault injection: flip a tagged-table counter or tag bit. */
    bool flipStateBit(std::uint64_t rand) override;

  private:
    /** Row control state; counters live in the table's flat ctrs
     *  strip (SoA) so tag probes scan a dense header array. */
    struct Row
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint8_t u = 0;
    };

    struct Table
    {
        TageTableParams p;
        unsigned idxBits = 0;       ///< ceilLog2(p.sets).
        std::uint64_t histMask = 0; ///< The p.histLen newest bits (<= 64).
        std::vector<Row> rows;
        /** sets * fetchWidth counters; row r's run starts at
         *  r*fetchWidth. */
        std::vector<SatCounter> ctrs;
    };

    /** Index and tag hashes; @p hist is the newest 64 history bits
     *  (HistoryRegister::low(64)), read once for every table. */
    std::size_t indexOf(const Table& t, Addr pc, std::uint64_t hist) const;
    std::uint32_t tagOf(const Table& t, Addr pc, std::uint64_t hist) const;

    /** Decay all useful counters (periodic aging). */
    void decayUseful();

    TageParams params_;
    /** Fetch-packet offset bits dropped from the PC before hashing. */
    unsigned pcShift_;
    std::vector<Table> tables_;
    SignedSatCounter useAltOnNa_{4, 0};
    std::uint64_t updateCount_ = 0;
    Rng rng_;
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_TAGE_HPP
