#include "warp/snapshot.hpp"

#include <filesystem>
#include <fstream>

#include "sim/simulator.hpp"
#include "warp/state_io.hpp"

namespace cobra::warp {

Snapshot
captureSnapshot(sim::Simulator& s)
{
    Snapshot snap;
    snap.fingerprint = s.stateFingerprint();
    snap.cycle = s.cycles();
    snap.insts = s.backend().committedInsts();
    StateWriter w;
    s.saveState(w);
    snap.payload = w.take();
    return snap;
}

void
restoreSnapshot(sim::Simulator& s, const Snapshot& snap)
{
    if (snap.fingerprint != s.stateFingerprint()) {
        throw guard::CheckpointError(
            "header", "configuration fingerprint mismatch: this "
                      "checkpoint was produced by a differently-"
                      "configured simulator (program image, predictor "
                      "composition, or core geometry differ)");
    }
    StateReader r(snap.payload);
    s.restoreState(r);
    r.expectEnd();
}

std::vector<std::uint8_t>
encodeSnapshot(const Snapshot& snap)
{
    StateWriter w;
    w.u32(Snapshot::kMagic);
    w.u32(Snapshot::kVersion);
    w.u64(snap.fingerprint);
    w.u64(snap.cycle);
    w.u64(snap.insts);
    w.u64(fnv1a(snap.payload.data(), snap.payload.size()));
    w.u64(snap.payload.size());
    std::vector<std::uint8_t> out = w.take();
    out.insert(out.end(), snap.payload.begin(), snap.payload.end());
    return out;
}

Snapshot
decodeSnapshot(const std::vector<std::uint8_t>& bytes)
{
    StateReader r(bytes);
    if (r.remaining() < 48)
        r.fail("snapshot header truncated");
    if (r.u32() != Snapshot::kMagic)
        r.fail("bad magic: not a warp snapshot");
    const std::uint32_t version = r.u32();
    if (version != Snapshot::kVersion) {
        r.fail("unsupported snapshot version " + std::to_string(version) +
               " (this build reads version " +
               std::to_string(Snapshot::kVersion) + ")");
    }
    Snapshot snap;
    snap.fingerprint = r.u64();
    snap.cycle = r.u64();
    snap.insts = r.u64();
    const std::uint64_t checksum = r.u64();
    const std::uint64_t payloadSize = r.u64();
    if (payloadSize != r.remaining())
        r.fail("payload size disagrees with the container");
    snap.payload.assign(bytes.end() - static_cast<std::ptrdiff_t>(
                                          payloadSize),
                        bytes.end());
    if (fnv1a(snap.payload.data(), snap.payload.size()) != checksum)
        r.fail("payload checksum mismatch: the snapshot is corrupted");
    return snap;
}

void
writeSnapshotFile(const Snapshot& snap, const std::string& path)
{
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw guard::CheckpointError(path, "cannot open for writing");
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os)
        throw guard::CheckpointError(path, "write failed");
}

Snapshot
readSnapshotFile(const std::string& path)
{
    // Only a regular file has a size to read: a directory opens as a
    // stream whose end offset is no size, and a FIFO would block.
    std::error_code ec;
    if (std::filesystem::exists(path, ec) &&
        !std::filesystem::is_regular_file(path, ec))
        throw guard::CheckpointError(path, "not a regular file");
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        throw guard::CheckpointError(path, "cannot open for reading");
    const std::streamsize size = is.tellg();
    is.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!is)
        throw guard::CheckpointError(path, "read failed");
    try {
        return decodeSnapshot(bytes);
    } catch (const guard::CheckpointError& e) {
        throw guard::CheckpointError(path, e.what());
    }
}

} // namespace cobra::warp

