/**
 * @file
 * YAGS ("Yet Another Global Scheme", Eden & Mudge) — a library
 * extension demonstrating another §II history-based design: a
 * PC-indexed choice PHT provides the bias, and two small *tagged*
 * exception caches (a taken-cache and a not-taken-cache) store only
 * the branches that deviate from their bias — trading the Tournament
 * design's untagged aliasing for small tagged structures.
 */

#ifndef COBRA_COMPONENTS_YAGS_HPP
#define COBRA_COMPONENTS_YAGS_HPP

#include <vector>

#include "bpu/component.hpp"
#include "common/sat_counter.hpp"

namespace cobra::comps {

/** Parameters of the YAGS predictor. */
struct YagsParams
{
    unsigned choiceSets = 4096;  ///< PC-indexed choice PHT rows.
    unsigned cacheSets = 512;    ///< Each exception cache's rows.
    unsigned tagBits = 8;
    unsigned ctrBits = 2;
    unsigned histBits = 12;      ///< History in the cache index.
    unsigned latency = 2;
    unsigned fetchWidth = 4;
};

/**
 * Choice PHT + tagged direction caches.
 */
class Yags final : public bpu::PredictorComponent
{
  public:
    Yags(std::string name, const YagsParams& p);

    unsigned metaBits() const override
    {
        // Per slot: choice bit + cache-hit bit.
        return fetchWidth() * 2;
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
    struct CacheEntry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        SatCounter ctr;
    };

    std::size_t choiceIndex(Addr pc, unsigned slot) const;
    std::size_t cacheIndex(Addr pc, const HistoryRegister& gh,
                           unsigned slot) const;
    std::uint32_t cacheTag(Addr pc, unsigned slot) const;

    YagsParams params_;
    std::vector<SatCounter> choice_;
    std::vector<CacheEntry> takenCache_;   ///< Exceptions to not-taken.
    std::vector<CacheEntry> notTakenCache_; ///< Exceptions to taken.
};

} // namespace cobra::comps

#endif // COBRA_COMPONENTS_YAGS_HPP
