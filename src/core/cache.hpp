/**
 * @file
 * Cache hierarchy model per the paper's Table II: 32 KB 8-way L1I and
 * L1D, 512 KB 8-way L2, and a 4 MB LLC standing in for the FASED L3
 * model, over a fixed-latency DRAM stand-in for the FASED DDR3 timing
 * model (see DESIGN.md §1 on the substitution).
 */

#ifndef COBRA_CORE_CACHE_HPP
#define COBRA_CORE_CACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "phys/area_model.hpp"

namespace cobra::warp {
class StateWriter;
class StateReader;
} // namespace cobra::warp

namespace cobra::core {

/**
 * Largest cache level a configuration may ask for: 4x REF-BIG's 16 MiB
 * L3. Serve admits inline specs, so this caps what a request can make
 * the daemon allocate.
 */
constexpr std::uint64_t kMaxCacheBytes = std::uint64_t{64} << 20;

/** Parameters of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = 64;
    Cycle hitLatency = 1;
};

/**
 * A single set-associative, write-allocate, LRU cache level.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams& p);

    /** Probe and update state; true on hit (allocates on miss). */
    bool access(Addr addr);

    /** Probe only (no allocation). */
    bool probe(Addr addr) const;

    const CacheParams& params() const { return params_; }
    Cycle hitLatency() const { return params_.hitLatency; }

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Registered stat handles (named after the level, e.g. "L1I"). */
    const StatGroup& stats() const { return stats_; }

    /** Bits of data + tag storage. */
    std::uint64_t storageBits() const;

    phys::PhysicalCost physicalCost() const;

    /**
     * Checkpoint tag/LRU state (counters ride the stat registry): a
     * bitmap of the valid lines, then those lines only.
     */
    void saveState(warp::StateWriter& w) const;
    void restoreState(warp::StateReader& r);

  private:
    /**
     * A line is valid iff its stamp is nonzero: a fill stamps
     * `++stamp_` and nothing invalidates a line.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setOf(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;

    CacheParams params_;
    unsigned sets_;
    std::vector<Line> lines_;
    std::uint64_t stamp_ = 0;

    StatGroup stats_;
    Stat<Counter> accesses_{stats_, "accesses", "total probes"};
    Stat<Counter> misses_{stats_, "misses", "probes that missed"};
};

/** Latency parameters of the full hierarchy. */
struct HierarchyParams
{
    CacheParams l1i{"L1I", 32 * 1024, 8, 64, 1};
    CacheParams l1d{"L1D", 32 * 1024, 8, 64, 3};
    CacheParams l2{"L2", 512 * 1024, 8, 64, 12};
    CacheParams l3{"L3", 4 * 1024 * 1024, 8, 64, 38};
    Cycle memLatency = 120;
};

/**
 * L1I + L1D over a shared L2/L3/memory path. Returns access latencies
 * in cycles; a next-line prefetcher covers sequential instruction
 * fetch (Table II lists one).
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams& p = HierarchyParams{});

    /** Instruction fetch at @p addr; returns total latency. */
    Cycle fetchAccess(Addr addr);

    /** Data load at @p addr; returns total latency. */
    Cycle loadAccess(Addr addr);

    /** Data store at @p addr; returns occupancy latency. */
    Cycle storeAccess(Addr addr);

    const Cache& l1i() const { return l1i_; }
    const Cache& l1d() const { return l1d_; }
    const Cache& l2() const { return l2_; }
    const Cache& l3() const { return l3_; }

    const HierarchyParams& params() const { return params_; }

    /** Checkpoint all four levels plus the prefetch tracker. */
    void saveState(warp::StateWriter& w) const;
    void restoreState(warp::StateReader& r);

  private:
    /** Walk L2 -> L3 -> memory; returns added latency beyond L1. */
    Cycle walkBeyondL1(Addr addr);

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    Addr lastFetchLine_ = kInvalidAddr;
};

} // namespace cobra::core

#endif // COBRA_CORE_CACHE_HPP
