/**
 * @file
 * The COBRA binary branch-trace container (ROADMAP item 2): a compact
 * on-disk format for committed control-flow streams — conditional
 * branch outcomes and indirect targets — that capture mode freezes
 * from the synthetic oracle and trace_convert imports from course
 * traces (CBP-style text records, bzip2'd Alpha traces).
 *
 * Layout: a fixed checksummed header, the source name, a run of
 * delta-encoded blocks (zigzag-varint PC deltas, one packed meta byte
 * per record, optional per-block deflate when the build has zlib),
 * and a seekable block index at the tail. Every structural field is
 * validated on open — magic, version, checksums over header, payload
 * and index — and every malformed byte raises guard::CheckpointError
 * (the warp snapshot discipline) instead of decoding garbage. The
 * reader maps the file and decodes whole blocks into SoA record
 * strips; random access goes through the block index, so a seek never
 * decodes more than one block.
 */

#ifndef COBRA_TRACE_FORMAT_HPP
#define COBRA_TRACE_FORMAT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cobra::trace {

/** What kind of control-flow record this is. */
enum class RecordType : std::uint8_t
{
    Cond = 0,         ///< Conditional branch (direction recorded).
    IndirectJump = 1, ///< Register-target jump (target recorded).
    IndirectCall = 2, ///< Register-target call (target recorded).
};

/** One decoded control-flow record. */
struct TraceRecord
{
    Addr pc = kInvalidAddr;     ///< Instruction address.
    Addr target = kInvalidAddr; ///< Taken target; kInvalidAddr if none.
    RecordType type = RecordType::Cond;
    std::uint8_t slot = 0;      ///< Fetch-packet slot of pc.
    bool taken = false;

    bool operator==(const TraceRecord&) const = default;
};

/** Provenance of a trace file. */
enum class TraceKind : std::uint8_t
{
    CapturedOracle = 1, ///< Frozen committed stream of a synthetic Program.
    External = 2,       ///< Imported (trace_convert); no Program attached.
};

/** Header metadata of a trace file. */
struct TraceMeta
{
    TraceKind kind = TraceKind::External;
    unsigned fetchWidth = 4;   ///< Packet width slots were derived from.
    std::uint64_t oracleSeed = 0;         ///< CapturedOracle only.
    std::uint64_t programFingerprint = 0; ///< CapturedOracle only.
    /**
     * Committed-instruction budget this capture guarantees: replaying
     * the same Program for up to this many committed instructions
     * cannot exhaust the trace (capture records slack beyond it for
     * the frontend's speculative overrun). 0 for imported traces.
     */
    std::uint64_t sourceInsts = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t condCount = 0; ///< Cond records (rest are indirect).
    std::string name;            ///< Workload / source name.
};

/** Container constants, shared by writer, reader and tests. */
struct TraceFile
{
    static constexpr std::uint32_t kMagic = 0x52544243u; ///< "CBTR".
    static constexpr std::uint32_t kVersion = 1;
    static constexpr std::size_t kHeaderBytes = 96;
    /** Records per block (the unit of decode and of seek). */
    static constexpr std::uint32_t kBlockRecords = 4096;
    /** Header flag: at least one block is deflate-compressed. */
    static constexpr std::uint32_t kFlagDeflate = 1u << 0;
    /** Per-block codec ids. */
    static constexpr std::uint8_t kCodecRaw = 0;
    static constexpr std::uint8_t kCodecDeflate = 1;
};

/** True when this build can compress/decompress deflate blocks. */
bool deflateAvailable();

/**
 * Streaming writer. Records are buffered into blocks and flushed as
 * each block fills; finalize() writes the block index and patches the
 * header (record counts, index offset, checksums). The file is not a
 * valid trace until finalize() returns. Write failures raise
 * guard::CheckpointError; an unfinalized writer removes its partial
 * file on destruction so crashes cannot leave plausible droppings.
 */
class TraceWriter
{
  public:
    /** @p meta counts are ignored; they are computed while writing. */
    TraceWriter(const std::string& path, const TraceMeta& meta);
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    void add(const TraceRecord& r);

    /** Flush, write the index, patch and checksum the header. */
    void finalize();

    std::uint64_t recordCount() const { return recordCount_; }

    /** Written metadata; counts are final once finalize() returned. */
    const TraceMeta& meta() const { return meta_; }

  private:
    void flushBlock();

    struct IndexEntry
    {
        std::uint64_t offset = 0;      ///< File offset of the block.
        std::uint64_t firstRecord = 0; ///< Global index of record 0.
        std::uint32_t records = 0;
    };

    std::string path_;
    TraceMeta meta_;
    void* file_ = nullptr; ///< std::FILE*, kept out of the header.
    bool finalized_ = false;
    std::uint64_t recordCount_ = 0;
    std::uint64_t condCount_ = 0;
    std::uint64_t payloadChecksum_ = 0;
    std::uint32_t flags_ = 0;
    std::vector<TraceRecord> pending_;
    std::vector<IndexEntry> index_;
    std::vector<std::uint8_t> scratch_; ///< Encode buffer, reused.
};

/** One block decoded into SoA strips. */
struct DecodedBlock
{
    std::uint64_t firstRecord = 0;
    std::vector<Addr> pc;
    std::vector<Addr> target;
    /** Packed per-record meta byte (see packMeta/unpack helpers). */
    std::vector<std::uint8_t> meta;

    std::size_t size() const { return pc.size(); }

    /** Packed meta byte: bits 0-1 type, 2 taken, 3 has-target (target
     *  != kInvalidAddr), 4-6 slot. */
    static std::uint8_t packMeta(const TraceRecord& r);

    static RecordType typeOf(std::uint8_t m)
    {
        return static_cast<RecordType>(m & 0x3);
    }
    static bool takenOf(std::uint8_t m) { return (m >> 2) & 1; }
    static unsigned slotOf(std::uint8_t m) { return (m >> 4) & 0x7; }

    TraceRecord record(std::size_t i) const;
};

/**
 * mmap-backed reader. Construction maps the file and validates header
 * and index (magic, version, all three checksums); any mismatch is a
 * guard::CheckpointError naming the file. Block payloads are verified
 * by checksum as they are decoded, so corruption is always caught at
 * the first touched block.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string& path);
    ~TraceReader();

    TraceReader(const TraceReader&) = delete;
    TraceReader& operator=(const TraceReader&) = delete;

    const TraceMeta& meta() const { return meta_; }
    const std::string& path() const { return path_; }

    std::uint64_t recordCount() const { return meta_.recordCount; }
    std::size_t blockCount() const { return index_.size(); }

    std::uint64_t blockFirstRecord(std::size_t b) const
    {
        return index_[b].firstRecord;
    }

    /** Decode block @p b into @p out (strips are overwritten). */
    void decodeBlock(std::size_t b, DecodedBlock& out) const;

    /** FNV-1a over the whole file: the content-addressed cache key. */
    std::uint64_t contentDigest() const { return digest_; }

  private:
    struct IndexEntry
    {
        std::uint64_t offset = 0;
        std::uint64_t firstRecord = 0;
        std::uint32_t records = 0;
    };

    [[noreturn]] void fail(const std::string& detail) const;

    std::string path_;
    const std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
    TraceMeta meta_;
    std::uint32_t flags_ = 0;
    std::uint64_t digest_ = 0;
    std::vector<IndexEntry> index_;
};

} // namespace cobra::trace

#endif // COBRA_TRACE_FORMAT_HPP
