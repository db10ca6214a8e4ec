/**
 * @file
 * Feature extraction for the composition-search surrogate (tier 0 of
 * the autopilot, docs/SEARCH.md). Two families:
 *
 *  - WorkloadFeatures: branch-behaviour statistics of one workload,
 *    measured on a short recorded trace (trace/recordTrace) in a
 *    single pass — taken-rate, per-static-branch outcome entropy,
 *    bias, alias pressure in hashed tables of two sizes, and the
 *    accuracy of tiny idealized reference predictors (per-PC 2-bit
 *    counters, gshare at several history lengths). These proxy "how
 *    hard is this workload and what history depth pays off".
 *
 *  - DesignFeatures: static properties of a candidate DesignSpec —
 *    log2 storage/area, pipeline depth, deepest history folded in,
 *    table counts, and component-presence indicators.
 *
 * The ridge surrogate (search/surrogate.hpp) is fit on concatenated
 * (design ++ workload) vectors; pairFeatureNames() documents the
 * layout in frontier artifacts.
 */

#ifndef COBRA_SEARCH_FEATURES_HPP
#define COBRA_SEARCH_FEATURES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "phys/area_model.hpp"
#include "sim/design_spec.hpp"
#include "trace/trace.hpp"

namespace cobra::search {

/** Branch-behaviour statistics of one workload trace. */
struct WorkloadFeatures
{
    std::string workload;
    std::uint64_t branches = 0;       ///< Measured (post-warmup) records.
    std::uint64_t staticBranches = 0; ///< Distinct (pc, slot) sites.
    double takenRate = 0.0;
    /** Frequency-weighted per-static-branch outcome entropy (bits). */
    double entropyBits = 0.0;
    /** Dynamic fraction executed by statics biased >= 95% one way. */
    double biasedFrac = 0.0;
    /** Conflict rate in a 1K-entry hashed site table. */
    double alias10 = 0.0;
    /** Conflict rate in a 16K-entry hashed site table. */
    double alias14 = 0.0;
    /** Accuracy of idealized per-PC 2-bit counters. */
    double bimAccuracy = 0.0;
    /** Accuracy of idealized 4K-entry 2-bit gshare at history h. */
    double gshareAcc8 = 0.0;
    double gshareAcc16 = 0.0;
    double gshareAcc32 = 0.0;
    double gshareAcc64 = 0.0;

    /** Surrogate-input vector; parallel to names(). */
    std::vector<double> vec() const;
    static std::vector<std::string> names();
};

/**
 * Single-pass feature measurement over the conditional records of
 * @p tr (other records are skipped, as TraceDrivenEvaluator does).
 * The first @p warmup of them train the reference tables but are not
 * measured.
 */
WorkloadFeatures workloadFeatures(const std::string& name,
                                  const trace::DecodedTrace& tr,
                                  std::size_t warmup);

/** Static properties of one candidate design. */
struct DesignFeatures
{
    double log2StorageBits = 0.0;
    double log2AreaUm2 = 0.0;
    double latency = 0.0;     ///< Pipeline depth (max component latency).
    double maxHistBits = 0.0; ///< Deepest history any component folds.
    double tageTables = 0.0;
    double log2BtbEntries = 0.0;
    double hasLoop = 0.0;
    double hasTage = 0.0;
    double hasGtag = 0.0;
    double hasTourney = 0.0;
    double hasUbtb = 0.0;

    std::vector<double> vec() const;
    static std::vector<std::string> names();
};

DesignFeatures designFeatures(const sim::DesignSpec& spec,
                              const phys::AreaModel& model);

/** Concatenated design ++ workload surrogate input row. */
std::vector<double> pairFeatures(const DesignFeatures& d,
                                 const WorkloadFeatures& w);
std::vector<std::string> pairFeatureNames();

} // namespace cobra::search

#endif // COBRA_SEARCH_FEATURES_HPP
