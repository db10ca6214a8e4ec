/**
 * @file
 * Warp checkpoints: a Snapshot packages one Simulator's complete
 * mid-flight state (the StateWriter byte stream) behind a header that
 * makes restores safe — a magic/version pair, the configuration
 * fingerprint of the producing simulator, and an FNV-1a payload
 * checksum. Restoring verifies all three before a single payload byte
 * is decoded, so a corrupted, truncated, or mismatched checkpoint is
 * a structured guard::CheckpointError, never undefined behaviour.
 *
 * Snapshots round-trip through memory (the warp driver hands them
 * between intervals) and through files (`cobra_sim --checkpoint-dir`),
 * with an identical validation path for both.
 */

#ifndef COBRA_WARP_SNAPSHOT_HPP
#define COBRA_WARP_SNAPSHOT_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace cobra::sim {
class Simulator;
} // namespace cobra::sim

namespace cobra::warp {

/** One checkpoint: validated header metadata plus the state payload. */
struct Snapshot
{
    /** Configuration fingerprint of the producing simulator. */
    std::uint64_t fingerprint = 0;
    /** Simulation cycle at capture. */
    std::uint64_t cycle = 0;
    /** Committed instructions at capture. */
    std::uint64_t insts = 0;
    /** The serialized simulator state (StateWriter stream). */
    std::vector<std::uint8_t> payload;

    static constexpr std::uint32_t kMagic = 0x43574152u; ///< "RAWC".
    static constexpr std::uint32_t kVersion = 2;
};

/** Capture the full state of @p s into a validated Snapshot. */
Snapshot captureSnapshot(sim::Simulator& s);

/**
 * Restore @p snap into @p s. The simulator must be configured
 * identically to the producer (checked via the fingerprint); the
 * payload must be intact (checked structurally during decode).
 * Throws guard::CheckpointError on any mismatch.
 */
void restoreSnapshot(sim::Simulator& s, const Snapshot& snap);

/**
 * Serialize @p snap (header + checksummed payload) to one flat byte
 * buffer — the on-disk format.
 */
std::vector<std::uint8_t> encodeSnapshot(const Snapshot& snap);

/**
 * Decode and validate a byte buffer produced by encodeSnapshot.
 * Throws guard::CheckpointError naming the failing header field on
 * bad magic, unsupported version, truncation, or checksum mismatch.
 */
Snapshot decodeSnapshot(const std::vector<std::uint8_t>& bytes);

/** Write @p snap to @p path; throws guard::CheckpointError on I/O. */
void writeSnapshotFile(const Snapshot& snap, const std::string& path);

/** Read and validate a snapshot file written by writeSnapshotFile. */
Snapshot readSnapshotFile(const std::string& path);

} // namespace cobra::warp

#endif // COBRA_WARP_SNAPSHOT_HPP
