/**
 * @file
 * Binary trace container (trace/format.hpp) and importer
 * (trace/convert.hpp) tests: write/read round trips across block
 * boundaries, the seekable index, cursor walks and seeks, structured
 * rejection of every corruption class, content-addressed digests, and
 * golden-fixture round trips for the CBP text and bzip2'd Alpha
 * import formats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "guard/errors.hpp"
#include "trace/convert.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"

using namespace cobra;

namespace {

std::string
scratchDir(const char* leaf)
{
    // ctest runs each test as its own process; keep scratch paths
    // per-process so parallel tests never clobber each other's files.
    const std::filesystem::path p =
        std::filesystem::temp_directory_path() /
        (std::string(leaf) + "." + std::to_string(::getpid()));
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

/** Deterministic pseudo-random record stream, branch-trace shaped. */
std::vector<trace::TraceRecord>
syntheticRecords(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<trace::TraceRecord> out;
    out.reserve(n);
    Addr pc = 0x1000;
    for (std::size_t i = 0; i < n; ++i) {
        trace::TraceRecord r;
        // Mostly small forward deltas, occasionally a far jump — the
        // shape the zigzag-varint encoder is tuned for.
        pc += (rng() % 64 == 0) ? (rng() % (1u << 20)) * 4
                                : 4 + (rng() % 8) * 4;
        r.pc = pc;
        const unsigned kind = rng() % 16;
        if (kind == 0) {
            r.type = trace::RecordType::IndirectJump;
            r.taken = true;
            r.target = pc + 4 + (rng() % 1024) * 4;
        } else if (kind == 1) {
            r.type = trace::RecordType::IndirectCall;
            r.taken = true;
            r.target = pc + 4 + (rng() % 1024) * 4;
        } else {
            r.type = trace::RecordType::Cond;
            r.taken = (rng() & 1) != 0;
            r.target = r.taken ? pc + 8 + (rng() % 64) * 4
                               : kInvalidAddr;
        }
        r.slot = static_cast<std::uint8_t>((pc / kInstBytes) & 3);
        out.push_back(r);
    }
    return out;
}

std::string
writeTrace(const std::string& path,
           const std::vector<trace::TraceRecord>& recs,
           const std::string& name = "synthetic")
{
    trace::TraceMeta meta;
    meta.kind = trace::TraceKind::External;
    meta.fetchWidth = 4;
    meta.name = name;
    trace::TraceWriter w(path, meta);
    for (const trace::TraceRecord& r : recs)
        w.add(r);
    w.finalize();
    return path;
}

std::vector<std::uint8_t>
readFileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string& path,
               const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

TEST(TraceFormat, RoundTripsRecordsAcrossBlockBoundaries)
{
    const std::string dir = scratchDir("cobra_fmt_rt");
    // > 2 blocks, with a non-full tail block.
    const auto recs = syntheticRecords(
        2 * trace::TraceFile::kBlockRecords + 1234, 0xAB);
    const std::string path = writeTrace(dir + "/t.cbtr", recs);

    trace::TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), recs.size());
    EXPECT_EQ(reader.blockCount(), 3u);
    EXPECT_EQ(reader.meta().name, "synthetic");
    EXPECT_EQ(reader.meta().kind, trace::TraceKind::External);

    std::size_t i = 0;
    trace::DecodedBlock blk;
    for (std::size_t b = 0; b < reader.blockCount(); ++b) {
        reader.decodeBlock(b, blk);
        EXPECT_EQ(blk.firstRecord, reader.blockFirstRecord(b));
        for (std::size_t k = 0; k < blk.size(); ++k, ++i) {
            const trace::TraceRecord got = blk.record(k);
            ASSERT_LT(i, recs.size());
            EXPECT_EQ(got.pc, recs[i].pc) << "record " << i;
            EXPECT_EQ(got.target, recs[i].target) << "record " << i;
            EXPECT_EQ(got.type, recs[i].type) << "record " << i;
            EXPECT_EQ(got.taken, recs[i].taken) << "record " << i;
            EXPECT_EQ(got.slot, recs[i].slot) << "record " << i;
        }
    }
    EXPECT_EQ(i, recs.size());
}

TEST(TraceFormat, DecodedTraceMatchesBlockDecode)
{
    const std::string dir = scratchDir("cobra_fmt_dec");
    const auto recs = syntheticRecords(5000, 0xCD);
    const std::string path = writeTrace(dir + "/t.cbtr", recs);

    const auto dec = trace::loadTrace(path);
    ASSERT_EQ(dec->size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(dec->pc[i], recs[i].pc);
        EXPECT_EQ(dec->target[i], recs[i].target);
        EXPECT_EQ(dec->typeAt(i), recs[i].type);
        EXPECT_EQ(dec->takenAt(i), recs[i].taken);
        EXPECT_EQ(dec->slotAt(i), recs[i].slot);
    }
}

TEST(TraceFormat, EmptyTraceRoundTrips)
{
    const std::string dir = scratchDir("cobra_fmt_empty");
    const std::string path =
        writeTrace(dir + "/t.cbtr", {}, "nothing");
    trace::TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_EQ(reader.blockCount(), 0u);
    EXPECT_EQ(trace::loadTrace(path)->size(), 0u);
}

TEST(TraceFormat, TraceCursorWalksAndSeeksAcrossBlocks)
{
    const std::string dir = scratchDir("cobra_fmt_cur");
    const auto recs = syntheticRecords(
        2 * trace::TraceFile::kBlockRecords + 99, 0x11);
    trace::TraceCursor c(
        trace::loadTrace(writeTrace(dir + "/t.cbtr", recs)));

    auto pump = [&](std::size_t i) {
        if (recs[i].type == trace::RecordType::Cond)
            return c.nextCond(recs[i].pc) == recs[i].taken;
        return c.nextIndirect(recs[i].pc) == recs[i].target;
    };
    // Forward walk across the first block boundary.
    for (std::size_t i = 0; i < 6000; ++i) {
        EXPECT_TRUE(pump(i)) << i;
        EXPECT_EQ(c.position(), i + 1);
    }
    // Seek backwards across a block boundary (the warp-restore path)
    // and to the tail.
    const std::uint64_t kBlk = trace::TraceFile::kBlockRecords;
    for (std::uint64_t s : {std::uint64_t(10), kBlk + 3,
                            std::uint64_t(recs.size() - 4)}) {
        c.seek(s);
        for (std::size_t i = s; i < s + 3; ++i)
            EXPECT_TRUE(pump(i)) << i;
        EXPECT_EQ(c.position(), s + 3);
    }
}

TEST(TraceFormat, CursorDetectsDesyncAndExhaustion)
{
    const std::string dir = scratchDir("cobra_fmt_desync");
    std::vector<trace::TraceRecord> recs;
    trace::TraceRecord r;
    r.pc = 0x1000;
    r.type = trace::RecordType::Cond;
    r.taken = true;
    r.target = 0x2000;
    recs.push_back(r);
    const auto dec =
        trace::loadTrace(writeTrace(dir + "/t.cbtr", recs));

    {
        trace::TraceCursor c(dec);
        // Wrong site: the replayed program asks about a different pc.
        EXPECT_THROW((void)c.nextCond(0x9999),
                     guard::CheckpointError);
    }
    {
        trace::TraceCursor c(dec);
        // Wrong record type at the right pc.
        EXPECT_THROW((void)c.nextIndirect(0x1000),
                     guard::CheckpointError);
    }
    {
        trace::TraceCursor c(dec);
        EXPECT_TRUE(c.nextCond(0x1000));
        // Past the end: exhaustion names the capture budget.
        EXPECT_THROW((void)c.nextCond(0x1004),
                     guard::CheckpointError);
    }
}

// ---------------------------------------------------------------------
// Corruption classes
// ---------------------------------------------------------------------

namespace {

/** Write a valid trace, mutate it with @p mutate, expect rejection. */
void
expectRejected(const char* leaf,
               const std::function<void(std::vector<std::uint8_t>&)>&
                   mutate,
               bool at_decode = false)
{
    const std::string dir = scratchDir(leaf);
    const auto recs = syntheticRecords(6000, 0x77);
    const std::string path = writeTrace(dir + "/t.cbtr", recs);
    auto bytes = readFileBytes(path);
    mutate(bytes);
    const std::string bad = dir + "/bad.cbtr";
    writeFileBytes(bad, bytes);
    if (at_decode) {
        // Header/index still validate; the damage is caught at the
        // first decode of the touched block.
        EXPECT_THROW(
            {
                trace::TraceReader reader(bad);
                trace::DecodedBlock blk;
                for (std::size_t b = 0; b < reader.blockCount(); ++b)
                    reader.decodeBlock(b, blk);
            },
            guard::CheckpointError);
    } else {
        EXPECT_THROW(trace::TraceReader reader(bad),
                     guard::CheckpointError);
    }
}

} // namespace

TEST(TraceFormat, RejectsBadMagic)
{
    expectRejected("cobra_fmt_magic",
                   [](std::vector<std::uint8_t>& b) { b[0] ^= 0xFF; });
}

TEST(TraceFormat, RejectsVersionSkew)
{
    // A future version must be refused up front, not misparsed.
    expectRejected("cobra_fmt_ver",
                   [](std::vector<std::uint8_t>& b) { b[4] += 1; });
}

TEST(TraceFormat, RejectsHeaderTampering)
{
    // Flip a bit inside the checksummed header region (record count).
    expectRejected("cobra_fmt_hdr",
                   [](std::vector<std::uint8_t>& b) { b[40] ^= 1; });
}

TEST(TraceFormat, RejectsTruncation)
{
    expectRejected("cobra_fmt_trunc",
                   [](std::vector<std::uint8_t>& b) {
                       b.resize(b.size() / 2);
                   });
}

TEST(TraceFormat, RejectsShortHeader)
{
    expectRejected("cobra_fmt_short",
                   [](std::vector<std::uint8_t>& b) { b.resize(10); });
}

TEST(TraceFormat, RejectsPayloadCorruption)
{
    // A flipped payload byte fails the whole-payload checksum at open.
    expectRejected("cobra_fmt_pay",
                   [](std::vector<std::uint8_t>& b) {
                       b[trace::TraceFile::kHeaderBytes + 40] ^= 0x10;
                   });
}

TEST(TraceFormat, RejectsIndexCorruption)
{
    // The index sits at the tail; damage its last entry.
    expectRejected("cobra_fmt_idx",
                   [](std::vector<std::uint8_t>& b) {
                       b[b.size() - 3] ^= 0x40;
                   });
}

TEST(TraceFormat, RejectsMissingFile)
{
    EXPECT_THROW(trace::TraceReader r("no-such-trace.cbtr"),
                 guard::CheckpointError);
}

TEST(TraceFormat, UnfinalizedWriterLeavesNoFile)
{
    const std::string dir = scratchDir("cobra_fmt_unfin");
    const std::string path = dir + "/partial.cbtr";
    {
        trace::TraceMeta meta;
        meta.kind = trace::TraceKind::External;
        trace::TraceWriter w(path, meta);
        for (const auto& r : syntheticRecords(5000, 0x3))
            w.add(r);
        // No finalize(): simulate a crash mid-capture.
    }
    EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------

TEST(TraceFormat, ContentDigestFollowsBytesNotPaths)
{
    const std::string dir = scratchDir("cobra_fmt_digest");
    const auto recs = syntheticRecords(3000, 0x55);
    const std::string p1 = writeTrace(dir + "/a.cbtr", recs);
    const std::string p2 = dir + "/copy.cbtr";
    std::filesystem::copy_file(p1, p2);
    const std::string p3 =
        writeTrace(dir + "/other.cbtr", syntheticRecords(3000, 0x56));

    trace::TraceReader r1(p1), r2(p2), r3(p3);
    EXPECT_EQ(r1.contentDigest(), r2.contentDigest());
    EXPECT_NE(r1.contentDigest(), r3.contentDigest());
}

// ---------------------------------------------------------------------
// CBP text import (golden fixtures)
// ---------------------------------------------------------------------

namespace {

/** The canonical fixture: every outcome spelling, comments, blanks. */
const char* kCbpFixture =
    "# CBP-style conditional branch trace\n"
    "0x1000 T\n"
    "0x1008 N\n"
    "\n"
    "1010 t\n"
    "1018 n\n"
    "0x1000 1\n"
    "0x1008 0\n";

} // namespace

TEST(TraceConvert, CbpTextGoldenRoundTrip)
{
    const std::string dir = scratchDir("cobra_cvt_cbp");
    const std::string in = dir + "/fix.cbp";
    {
        std::ofstream out(in);
        out << kCbpFixture;
    }
    const trace::ImportStats st =
        trace::convertCbpFile(in, dir + "/fix.cbtr", "fix");
    EXPECT_EQ(st.lines, 6u);
    EXPECT_EQ(st.records, 6u);
    EXPECT_EQ(st.taken, 3u);

    const auto dec = trace::loadTrace(dir + "/fix.cbtr");
    ASSERT_EQ(dec->size(), 6u);
    EXPECT_EQ(dec->meta.kind, trace::TraceKind::External);
    EXPECT_EQ(dec->meta.name, "fix");
    EXPECT_EQ(dec->meta.condCount, 6u);
    const Addr wantPc[] = {0x1000, 0x1008, 0x1010,
                           0x1018, 0x1000, 0x1008};
    const bool wantTaken[] = {true, false, true, false, true, false};
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(dec->pc[i], wantPc[i]) << i;
        EXPECT_EQ(dec->takenAt(i), wantTaken[i]) << i;
        EXPECT_EQ(dec->typeAt(i), trace::RecordType::Cond);
        // Slots derive from the pc exactly as capture mode does.
        EXPECT_EQ(dec->slotAt(i),
                  unsigned((wantPc[i] / kInstBytes) & 3));
    }
}

TEST(TraceConvert, MalformedCbpLinesAreStructuredErrors)
{
    trace::TraceRecord r;
    EXPECT_FALSE(trace::parseCbpLine("", 1, 4, r));
    EXPECT_FALSE(trace::parseCbpLine("# comment", 2, 4, r));
    EXPECT_THROW(trace::parseCbpLine("zzzz T", 3, 4, r),
                 guard::CheckpointError);
    EXPECT_THROW(trace::parseCbpLine("0x1000 X", 4, 4, r),
                 guard::CheckpointError);
    EXPECT_THROW(trace::parseCbpLine("0x1000", 5, 4, r),
                 guard::CheckpointError);
    EXPECT_THROW(trace::parseCbpLine("0x1000 T extra", 6, 4, r),
                 guard::CheckpointError);
    try {
        trace::parseCbpLine("0x1000 X", 42, 4, r);
        FAIL() << "expected CheckpointError";
    } catch (const guard::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("42"), std::string::npos)
            << "error must carry the line number: " << e.what();
    }
    const std::string dir = scratchDir("cobra_cvt_bad");
    const std::string in = dir + "/bad.cbp";
    {
        std::ofstream out(in);
        out << "0x1000 T\n0x1008 Q\n";
    }
    const std::string outPath = dir + "/bad.cbtr";
    EXPECT_THROW(trace::convertCbpFile(in, outPath, "bad"),
                 guard::CheckpointError);
    // The failed conversion must not leave a plausible output file.
    EXPECT_FALSE(std::filesystem::exists(outPath));
}

TEST(TraceConvert, MissingAndEmptyInputsAreStructuredErrors)
{
    const std::string dir = scratchDir("cobra_cvt_miss");
    EXPECT_THROW(trace::convertCbpFile(dir + "/absent.cbp",
                                       dir + "/o.cbtr", "x"),
                 guard::CheckpointError);
    const std::string empty = dir + "/empty.cbp";
    std::ofstream(empty).close();
    EXPECT_THROW(
        trace::convertCbpFile(empty, dir + "/o.cbtr", "x"),
        guard::CheckpointError);
}

// ---------------------------------------------------------------------
// bzip2'd Alpha import (golden fixture, embedded bytes)
// ---------------------------------------------------------------------

namespace {

/** `printf '1000 T\n1008 N\n1000 T\n1008 N\n1010 t\n' | bzip2 -c` */
const unsigned char kAlphaBz2Fixture[] = {
    0x42, 0x5a, 0x68, 0x39, 0x31, 0x41, 0x59, 0x26, 0x53, 0x59, 0xb2,
    0xec, 0x94, 0xba, 0x00, 0x00, 0x0b, 0xde, 0x80, 0x00, 0x10, 0x40,
    0x00, 0x60, 0x40, 0x00, 0x01, 0x04, 0x00, 0x04, 0x00, 0x20, 0x00,
    0x21, 0x22, 0x8c, 0xc8, 0x43, 0x02, 0x2c, 0xa3, 0xa4, 0x45, 0x63,
    0x43, 0x51, 0x0c, 0xa8, 0xe1, 0x77, 0x24, 0x53, 0x85, 0x09, 0x0b,
    0x2e, 0xc9, 0x4b, 0xa0};

} // namespace

TEST(TraceConvert, AlphaBz2GoldenRoundTrip)
{
    const std::string dir = scratchDir("cobra_cvt_bz2");
    const std::string in = dir + "/alpha.bz2";
    writeFileBytes(in,
                   std::vector<std::uint8_t>(
                       kAlphaBz2Fixture,
                       kAlphaBz2Fixture + sizeof(kAlphaBz2Fixture)));
    const std::string out = dir + "/alpha.cbtr";
    if (!trace::bz2Available()) {
        // Builds without libbz2 must refuse with a structured error,
        // not crash or silently emit an empty trace.
        EXPECT_THROW(trace::convertAlphaBz2File(in, out, "alpha"),
                     guard::CheckpointError);
        return;
    }
    const trace::ImportStats st =
        trace::convertAlphaBz2File(in, out, "alpha");
    EXPECT_EQ(st.records, 5u);
    EXPECT_EQ(st.taken, 3u);
    const auto dec = trace::loadTrace(out);
    ASSERT_EQ(dec->size(), 5u);
    EXPECT_EQ(dec->pc[0], 0x1000u);
    EXPECT_TRUE(dec->takenAt(0));
    EXPECT_EQ(dec->pc[1], 0x1008u);
    EXPECT_FALSE(dec->takenAt(1));
    EXPECT_EQ(dec->pc[4], 0x1010u);
    EXPECT_TRUE(dec->takenAt(4));
}

TEST(TraceConvert, CorruptBz2StreamIsAStructuredError)
{
    if (!trace::bz2Available())
        GTEST_SKIP() << "build has no libbz2";
    const std::string dir = scratchDir("cobra_cvt_bz2bad");
    std::vector<std::uint8_t> bytes(
        kAlphaBz2Fixture, kAlphaBz2Fixture + sizeof(kAlphaBz2Fixture));
    bytes[20] ^= 0xFF;
    const std::string in = dir + "/corrupt.bz2";
    writeFileBytes(in, bytes);
    EXPECT_THROW(
        trace::convertAlphaBz2File(in, dir + "/o.cbtr", "corrupt"),
        guard::CheckpointError);
}
