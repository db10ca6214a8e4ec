#include "trace/format.hpp"

#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "guard/errors.hpp"
#include "warp/state_io.hpp"

#ifdef COBRA_HAVE_ZLIB
#include <zlib.h>
#endif

namespace cobra::trace {

namespace {

// ---- little-endian scalar access into raw byte buffers ----------------
// The warp checkpoint codec's helpers: both formats are little-endian.

constexpr auto& putU32 = warp::storeLE<std::uint32_t>;
constexpr auto& putU64 = warp::storeLE<std::uint64_t>;
constexpr auto& getU32 = warp::loadLE<std::uint32_t>;
constexpr auto& getU64 = warp::loadLE<std::uint64_t>;

// ---- varint / zigzag ---------------------------------------------------

void
putVarint(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Header field offsets (see format.hpp for the layout contract). */
enum HeaderOffset : std::size_t
{
    kOffMagic = 0,
    kOffVersion = 4,
    kOffFlags = 8,
    kOffKind = 12,
    kOffFetchWidth = 13,
    kOffNameLen = 14,
    kOffOracleSeed = 16,
    kOffProgramFp = 24,
    kOffSourceInsts = 32,
    kOffRecordCount = 40,
    kOffCondCount = 48,
    kOffBlockCount = 56,
    kOffIndexOffset = 64,
    kOffPayloadChecksum = 72,
    kOffIndexChecksum = 80,
    kOffHeaderChecksum = 88,
};

constexpr std::size_t kIndexEntryBytes = 8 + 8 + 4 + 4;
constexpr std::size_t kBlockHeaderBytes = 4 + 4 + 4 + 4 + 8;

} // namespace

bool
deflateAvailable()
{
#ifdef COBRA_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

std::uint8_t
DecodedBlock::packMeta(const TraceRecord& r)
{
    return static_cast<std::uint8_t>(
        (static_cast<unsigned>(r.type) & 0x3) |
        (static_cast<unsigned>(r.taken) << 2) |
        (static_cast<unsigned>(r.target != kInvalidAddr) << 3) |
        ((r.slot & 0x7u) << 4));
}

TraceRecord
DecodedBlock::record(std::size_t i) const
{
    TraceRecord r;
    r.pc = pc[i];
    r.target = target[i];
    const std::uint8_t m = meta[i];
    r.type = typeOf(m);
    r.taken = takenOf(m);
    r.slot = static_cast<std::uint8_t>(slotOf(m));
    return r;
}

// ---- TraceWriter -------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta)
    : path_(path), meta_(meta)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        throw guard::CheckpointError("trace " + path,
                                     "cannot open for writing");
    }
    file_ = f;

    if (meta_.name.size() > 0xFFFF) {
        std::fclose(f);
        file_ = nullptr;
        std::remove(path_.c_str());
        throw guard::CheckpointError("trace " + path,
                                     "source name longer than 65535 bytes");
    }

    // Placeholder header + the name; finalize() rewrites the header.
    std::uint8_t hdr[TraceFile::kHeaderBytes] = {};
    if (std::fwrite(hdr, 1, sizeof(hdr), f) != sizeof(hdr) ||
        (!meta_.name.empty() &&
         std::fwrite(meta_.name.data(), 1, meta_.name.size(), f) !=
             meta_.name.size())) {
        std::fclose(f);
        file_ = nullptr;
        std::remove(path_.c_str());
        throw guard::CheckpointError("trace " + path, "write failed");
    }
    pending_.reserve(TraceFile::kBlockRecords);

    // Name bytes are part of the payload checksum span.
    payloadChecksum_ = warp::fnv1a(
        reinterpret_cast<const std::uint8_t*>(meta_.name.data()),
        meta_.name.size());
}

TraceWriter::~TraceWriter()
{
    if (file_ != nullptr) {
        std::fclose(static_cast<std::FILE*>(file_));
        file_ = nullptr;
        if (!finalized_)
            std::remove(path_.c_str());
    }
}

void
TraceWriter::add(const TraceRecord& r)
{
    if (finalized_) {
        throw guard::CheckpointError("trace " + path_,
                                     "add() after finalize()");
    }
    pending_.push_back(r);
    ++recordCount_;
    if (r.type == RecordType::Cond)
        ++condCount_;
    if (pending_.size() >= TraceFile::kBlockRecords)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    if (pending_.empty())
        return;
    auto* f = static_cast<std::FILE*>(file_);

    // Encode the raw (pre-compression) payload: per record a meta
    // byte, a zigzag-varint pc delta, and — when a target is attached
    // — a zigzag-varint target delta relative to pc.
    scratch_.clear();
    Addr prev_pc = 0;
    for (const TraceRecord& r : pending_) {
        const bool has_target = r.target != kInvalidAddr;
        scratch_.push_back(DecodedBlock::packMeta(r));
        putVarint(scratch_, zigzag(static_cast<std::int64_t>(
                                r.pc - prev_pc)));
        if (has_target) {
            putVarint(scratch_, zigzag(static_cast<std::int64_t>(
                                    r.target - r.pc)));
        }
        prev_pc = r.pc;
    }

    const std::uint8_t* stored = scratch_.data();
    std::size_t stored_bytes = scratch_.size();
    std::uint8_t codec = TraceFile::kCodecRaw;
    [[maybe_unused]] std::vector<std::uint8_t> deflated;
#ifdef COBRA_HAVE_ZLIB
    {
        uLongf bound = compressBound(static_cast<uLong>(scratch_.size()));
        deflated.resize(bound);
        if (compress2(deflated.data(), &bound, scratch_.data(),
                      static_cast<uLong>(scratch_.size()),
                      Z_BEST_SPEED) == Z_OK &&
            bound < scratch_.size()) {
            stored = deflated.data();
            stored_bytes = static_cast<std::size_t>(bound);
            codec = TraceFile::kCodecDeflate;
            flags_ |= TraceFile::kFlagDeflate;
        }
    }
#endif

    IndexEntry e;
    const long pos = std::ftell(f);
    if (pos < 0)
        throw guard::CheckpointError("trace " + path_, "ftell failed");
    e.offset = static_cast<std::uint64_t>(pos);
    e.firstRecord = recordCount_ - pending_.size();
    e.records = static_cast<std::uint32_t>(pending_.size());

    std::uint8_t bh[kBlockHeaderBytes];
    putU32(bh + 0, e.records);
    putU32(bh + 4, codec);
    putU32(bh + 8, static_cast<std::uint32_t>(scratch_.size()));
    putU32(bh + 12, static_cast<std::uint32_t>(stored_bytes));
    putU64(bh + 16, warp::fnv1a(stored, stored_bytes));
    if (std::fwrite(bh, 1, sizeof(bh), f) != sizeof(bh) ||
        std::fwrite(stored, 1, stored_bytes, f) != stored_bytes) {
        throw guard::CheckpointError("trace " + path_, "write failed");
    }

    // Running payload checksum: extend over the bytes just written.
    auto extend = [this](const std::uint8_t* p, std::size_t n) {
        std::uint64_t h = payloadChecksum_;
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
        payloadChecksum_ = h;
    };
    extend(bh, sizeof(bh));
    extend(stored, stored_bytes);

    index_.push_back(e);
    pending_.clear();
}

void
TraceWriter::finalize()
{
    if (finalized_)
        return;
    auto* f = static_cast<std::FILE*>(file_);
    flushBlock();

    const long index_pos = std::ftell(f);
    if (index_pos < 0)
        throw guard::CheckpointError("trace " + path_, "ftell failed");

    std::vector<std::uint8_t> idx;
    idx.reserve(index_.size() * kIndexEntryBytes);
    for (const IndexEntry& e : index_) {
        std::uint8_t buf[kIndexEntryBytes] = {};
        putU64(buf + 0, e.offset);
        putU64(buf + 8, e.firstRecord);
        putU32(buf + 16, e.records);
        idx.insert(idx.end(), buf, buf + sizeof(buf));
    }
    if (!idx.empty() &&
        std::fwrite(idx.data(), 1, idx.size(), f) != idx.size()) {
        throw guard::CheckpointError("trace " + path_, "write failed");
    }

    std::uint8_t hdr[TraceFile::kHeaderBytes] = {};
    putU32(hdr + kOffMagic, TraceFile::kMagic);
    putU32(hdr + kOffVersion, TraceFile::kVersion);
    putU32(hdr + kOffFlags, flags_);
    hdr[kOffKind] = static_cast<std::uint8_t>(meta_.kind);
    hdr[kOffFetchWidth] = static_cast<std::uint8_t>(meta_.fetchWidth);
    hdr[kOffNameLen] = static_cast<std::uint8_t>(meta_.name.size());
    hdr[kOffNameLen + 1] =
        static_cast<std::uint8_t>(meta_.name.size() >> 8);
    putU64(hdr + kOffOracleSeed, meta_.oracleSeed);
    putU64(hdr + kOffProgramFp, meta_.programFingerprint);
    putU64(hdr + kOffSourceInsts, meta_.sourceInsts);
    putU64(hdr + kOffRecordCount, recordCount_);
    putU64(hdr + kOffCondCount, condCount_);
    putU64(hdr + kOffBlockCount, index_.size());
    putU64(hdr + kOffIndexOffset, static_cast<std::uint64_t>(index_pos));
    putU64(hdr + kOffPayloadChecksum, payloadChecksum_);
    putU64(hdr + kOffIndexChecksum, warp::fnv1a(idx.data(), idx.size()));
    putU64(hdr + kOffHeaderChecksum,
           warp::fnv1a(hdr, kOffHeaderChecksum));

    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fwrite(hdr, 1, sizeof(hdr), f) != sizeof(hdr) ||
        std::fflush(f) != 0) {
        throw guard::CheckpointError("trace " + path_,
                                     "header patch failed");
    }
    std::fclose(f);
    file_ = nullptr;
    meta_.recordCount = recordCount_;
    meta_.condCount = condCount_;
    finalized_ = true;
}

// ---- TraceReader -------------------------------------------------------

void
TraceReader::fail(const std::string& detail) const
{
    throw guard::CheckpointError("trace " + path_, detail);
}

TraceReader::TraceReader(const std::string& path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail("cannot open");
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail("stat failed");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < TraceFile::kHeaderBytes) {
        ::close(fd);
        fail("file shorter than the header");
    }
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        fail("mmap failed");
    data_ = static_cast<const std::uint8_t*>(map);

    const std::uint8_t* h = data_;
    if (getU32(h + kOffMagic) != TraceFile::kMagic)
        fail("bad magic (not a COBRA trace)");
    const std::uint32_t version = getU32(h + kOffVersion);
    if (version != TraceFile::kVersion) {
        fail("unsupported version " + std::to_string(version) +
             " (expected " + std::to_string(TraceFile::kVersion) + ")");
    }
    if (getU64(h + kOffHeaderChecksum) !=
        warp::fnv1a(h, kOffHeaderChecksum)) {
        fail("header checksum mismatch");
    }

    flags_ = getU32(h + kOffFlags);
    if ((flags_ & TraceFile::kFlagDeflate) != 0 && !deflateAvailable())
        fail("file has deflate blocks but this build has no zlib");

    const std::uint8_t kind = h[kOffKind];
    if (kind != static_cast<std::uint8_t>(TraceKind::CapturedOracle) &&
        kind != static_cast<std::uint8_t>(TraceKind::External)) {
        fail("unknown trace kind " + std::to_string(kind));
    }
    meta_.kind = static_cast<TraceKind>(kind);
    meta_.fetchWidth = h[kOffFetchWidth];
    if (meta_.fetchWidth == 0 || meta_.fetchWidth > 8)
        fail("fetch width out of range");
    const std::size_t name_len =
        h[kOffNameLen] | (static_cast<std::size_t>(h[kOffNameLen + 1]) << 8);
    meta_.oracleSeed = getU64(h + kOffOracleSeed);
    meta_.programFingerprint = getU64(h + kOffProgramFp);
    meta_.sourceInsts = getU64(h + kOffSourceInsts);
    meta_.recordCount = getU64(h + kOffRecordCount);
    meta_.condCount = getU64(h + kOffCondCount);
    const std::uint64_t block_count = getU64(h + kOffBlockCount);
    const std::uint64_t index_offset = getU64(h + kOffIndexOffset);

    if (TraceFile::kHeaderBytes + name_len > size_)
        fail("name field exceeds the file");
    meta_.name.assign(
        reinterpret_cast<const char*>(data_ + TraceFile::kHeaderBytes),
        name_len);

    if (meta_.condCount > meta_.recordCount)
        fail("cond count exceeds record count");
    if (index_offset < TraceFile::kHeaderBytes + name_len ||
        index_offset > size_) {
        fail("index offset outside the file");
    }
    if (block_count > (size_ - index_offset) / kIndexEntryBytes)
        fail("index truncated");

    const std::uint8_t* idx = data_ + index_offset;
    const std::size_t idx_bytes =
        static_cast<std::size_t>(block_count) * kIndexEntryBytes;
    if (getU64(h + kOffIndexChecksum) != warp::fnv1a(idx, idx_bytes))
        fail("index checksum mismatch");
    if (getU64(h + kOffPayloadChecksum) !=
        warp::fnv1a(data_ + TraceFile::kHeaderBytes,
                    static_cast<std::size_t>(index_offset) -
                        TraceFile::kHeaderBytes)) {
        fail("payload checksum mismatch");
    }

    index_.reserve(static_cast<std::size_t>(block_count));
    std::uint64_t expect_first = 0;
    for (std::uint64_t b = 0; b < block_count; ++b) {
        const std::uint8_t* e = idx + b * kIndexEntryBytes;
        IndexEntry ie;
        ie.offset = getU64(e + 0);
        ie.firstRecord = getU64(e + 8);
        ie.records = getU32(e + 16);
        if (ie.firstRecord != expect_first)
            fail("index records are not contiguous");
        if (ie.records == 0 || ie.records > TraceFile::kBlockRecords)
            fail("index block record count out of range");
        if (ie.offset < TraceFile::kHeaderBytes + name_len ||
            ie.offset + kBlockHeaderBytes > index_offset) {
            fail("index block offset outside the payload");
        }
        expect_first += ie.records;
        index_.push_back(ie);
    }
    if (expect_first != meta_.recordCount)
        fail("index record total disagrees with the header");

    digest_ = warp::fnv1a(data_, size_);
}

TraceReader::~TraceReader()
{
    if (data_ != nullptr)
        ::munmap(const_cast<std::uint8_t*>(data_), size_);
}

void
TraceReader::decodeBlock(std::size_t b, DecodedBlock& out) const
{
    if (b >= index_.size())
        fail("block index out of range");
    const IndexEntry& e = index_[b];
    const std::uint8_t* bh = data_ + e.offset;

    const std::uint32_t records = getU32(bh + 0);
    const std::uint32_t codec = getU32(bh + 4);
    const std::uint32_t raw_bytes = getU32(bh + 8);
    const std::uint32_t stored_bytes = getU32(bh + 12);
    const std::uint64_t checksum = getU64(bh + 16);

    if (records != e.records)
        fail("block record count disagrees with the index");
    const std::uint8_t* stored = bh + kBlockHeaderBytes;
    if (e.offset + kBlockHeaderBytes + stored_bytes > size_)
        fail("block payload exceeds the file");
    if (warp::fnv1a(stored, stored_bytes) != checksum)
        fail("block checksum mismatch (corrupt payload)");

    std::vector<std::uint8_t> inflated;
    const std::uint8_t* raw = stored;
    if (codec == TraceFile::kCodecDeflate) {
#ifdef COBRA_HAVE_ZLIB
        inflated.resize(raw_bytes);
        uLongf got = raw_bytes;
        if (uncompress(inflated.data(), &got, stored, stored_bytes) !=
                Z_OK ||
            got != raw_bytes) {
            fail("block inflate failed");
        }
        raw = inflated.data();
#else
        fail("block uses deflate but this build has no zlib");
#endif
    } else if (codec == TraceFile::kCodecRaw) {
        if (stored_bytes != raw_bytes)
            fail("raw block stored/raw byte count mismatch");
    } else {
        fail("unknown block codec " + std::to_string(codec));
    }

    out.firstRecord = e.firstRecord;
    out.pc.clear();
    out.target.clear();
    out.meta.clear();
    out.pc.reserve(records);
    out.target.reserve(records);
    out.meta.reserve(records);

    std::size_t pos = 0;
    auto varint = [&]() -> std::uint64_t {
        std::uint64_t v = 0;
        unsigned shift = 0;
        while (true) {
            if (pos >= raw_bytes)
                fail("block payload truncated mid-varint");
            const std::uint8_t byte = raw[pos++];
            if (shift >= 64)
                fail("varint longer than 64 bits");
            v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                return v;
            shift += 7;
        }
    };

    Addr prev_pc = 0;
    for (std::uint32_t i = 0; i < records; ++i) {
        if (pos >= raw_bytes)
            fail("block payload shorter than its record count");
        const std::uint8_t m = raw[pos++];
        if ((m & 0x3) > 2)
            fail("record type out of range");
        const Addr pc = prev_pc + static_cast<Addr>(unzigzag(varint()));
        Addr target = kInvalidAddr;
        if ((m >> 3) & 1)
            target = pc + static_cast<Addr>(unzigzag(varint()));
        out.pc.push_back(pc);
        out.target.push_back(target);
        out.meta.push_back(static_cast<std::uint8_t>(m & 0x77));
        prev_pc = pc;
    }
    if (pos != raw_bytes)
        fail("trailing bytes after the block's last record");
}

} // namespace cobra::trace
