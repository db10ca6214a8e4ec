/**
 * @file
 * cobra_serve warm-state cache: a content-addressed store of warp
 * fast-forward snapshots under `spool/warm/`, so repeated warp
 * requests over the same (workload, config) pair skip the functional
 * fast-forward pass entirely.
 *
 * Keying is defense-in-depth. The file name is the content address —
 * (workload, config-hash, interval count, interval index) — but a hit
 * is only trusted after the snapshot file's own validation chain
 * (magic, version, FNV-1a checksum) passes AND warp::runWarps
 * re-checks the live simulator fingerprint and interval placement.
 * A corrupt, truncated, or stale entry is therefore a miss (and is
 * evicted), never wrong simulation state.
 */

#ifndef COBRA_SERVE_WARM_CACHE_HPP
#define COBRA_SERVE_WARM_CACHE_HPP

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "warp/snapshot.hpp"

namespace cobra::serve {

class WarmCache
{
  public:
    /** Opens (creating if needed) the cache directory @p dir. */
    explicit WarmCache(std::string dir);

    /**
     * Content-address one snapshot slot. @p config_hash must cover
     * every request field that affects simulator state (the daemon
     * hashes the full run-option block).
     */
    std::string keyPath(const std::string& workload,
                        std::uint64_t config_hash, unsigned intervals,
                        unsigned idx) const;

    /**
     * Look up one slot. On a valid entry, fills @p out and returns
     * true. A missing file is a miss; a corrupt or unreadable file
     * (guard::CheckpointError from the snapshot decoder) is counted
     * as `rejected`, evicted from disk, and reported as a miss.
     */
    bool lookup(const std::string& path, warp::Snapshot& out);

    /** Store one slot (atomic write-then-rename; best-effort). */
    void store(const std::string& path, const warp::Snapshot& snap);

    /** CobraScope stats (register under "serve.warm_cache"). */
    const StatGroup& stats() const { return stats_; }

  private:
    std::string dir_;

    StatGroup stats_{"warm_cache"};
    Stat<Counter> hits_{stats_, "hits", "valid snapshot cache hits"};
    Stat<Counter> misses_{stats_, "misses", "absent cache entries"};
    Stat<Counter> rejected_{stats_, "rejected",
                            "corrupt or invalid entries evicted"};
    Stat<Counter> stores_{stats_, "stores", "snapshots written"};
};

} // namespace cobra::serve

#endif // COBRA_SERVE_WARM_CACHE_HPP
