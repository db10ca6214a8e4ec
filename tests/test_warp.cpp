/**
 * @file
 * Warp subsystem tests: state-archive primitives, the bulk table
 * codecs, full-simulator checkpoint round-trips (including
 * mid-speculation captures taken at arbitrary cycles), pinned payload
 * bytes, structured rejection of corrupted or mismatched snapshots,
 * functional fast-forward, warp-driver determinism, and batched warp
 * runs against their solo runs.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "components/tage.hpp"
#include "core/cache.hpp"
#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "warp/fastforward.hpp"
#include "warp/snapshot.hpp"
#include "warp/state_io.hpp"
#include "warp/warp.hpp"

using namespace cobra;

namespace {

/** Shared workload cache: programs are immutable once built. */
prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

sim::SimConfig
smallCfg(sim::Design d)
{
    sim::SimConfig cfg = sim::makeConfig(d);
    cfg.warmupInsts = 2000;
    cfg.maxInsts = 40000;
    return cfg;
}

/** A scratch directory under the system temp dir, wiped on entry. */
std::string
scratchDir(const char* leaf)
{
    const std::filesystem::path p =
        std::filesystem::temp_directory_path() / leaf;
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

} // namespace

// ---------------------------------------------------------------------
// State archive primitives
// ---------------------------------------------------------------------

TEST(StateIo, PrimitivesRoundTripThroughSections)
{
    warp::StateWriter w;
    w.section("scalars");
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.boolean(true);
    w.boolean(false);
    w.f64(3.14159);
    w.str("cobra");
    w.section("vectors");
    w.vecU(std::vector<std::uint16_t>{1, 2, 65535});
    w.vecU(std::vector<std::uint64_t>{});

    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size());
    r.section("scalars");
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str(), "cobra");
    r.section("vectors");
    EXPECT_EQ(r.vecU<std::uint16_t>(),
              (std::vector<std::uint16_t>{1, 2, 65535}));
    EXPECT_TRUE(r.vecU<std::uint64_t>().empty());
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(StateIo, TruncatedArchiveIsAStructuredError)
{
    warp::StateWriter w;
    w.u64(7);
    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size() - 3);
    EXPECT_THROW(r.u64(), guard::CheckpointError);
}

TEST(StateIo, SectionTagMismatchIsAStructuredError)
{
    warp::StateWriter w;
    w.section("alpha");
    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.section("beta"), guard::CheckpointError);
}

TEST(StateIo, MissingSectionSentinelIsAStructuredError)
{
    warp::StateWriter w;
    w.u32(0); // Not the sentinel.
    w.str("alpha");
    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.section("alpha"), guard::CheckpointError);
}

TEST(StateIo, BooleanByteOutOfRangeIsAStructuredError)
{
    warp::StateWriter w;
    w.u8(2);
    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.boolean(), guard::CheckpointError);
}

TEST(StateIo, TrailingBytesAreAStructuredError)
{
    warp::StateWriter w;
    w.u8(1);
    w.u8(2);
    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size());
    (void)r.u8();
    EXPECT_THROW(r.expectEnd(), guard::CheckpointError);
}

TEST(StateIo, OversizedVectorLengthIsAStructuredError)
{
    // A length prefix far beyond the archive: must fail the bounds
    // check, not allocate or read out of bounds.
    warp::StateWriter w;
    w.u64(1ull << 40);
    const std::vector<std::uint8_t> bytes = w.take();
    warp::StateReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.vecU<std::uint64_t>(), guard::CheckpointError);
}

// ---------------------------------------------------------------------
// Bulk table codecs (cache line arrays, TAGE rows)
// ---------------------------------------------------------------------

namespace {

/**
 * 3 ways x 4 sets of 64-byte lines: 12 lines, so the last of its two
 * bitmap bytes has four bits past the last line.
 */
core::CacheParams
twelveLineCache()
{
    core::CacheParams params;
    params.sizeBytes = 3 * 4 * 64;
    params.ways = 3;
    return params;
}

/** The saved state of @p c. */
std::vector<std::uint8_t>
savedCacheState(const core::Cache& c)
{
    warp::StateWriter w;
    c.saveState(w);
    return w.take();
}

/** Restore @p bytes into a fresh cache; the error text, or "". */
std::string
restoreCacheError(const core::CacheParams& params,
                  const std::vector<std::uint8_t>& bytes,
                  std::size_t size)
{
    core::Cache c(params);
    warp::StateReader r(bytes.data(), size);
    try {
        c.restoreState(r);
        r.expectEnd();
    } catch (const guard::CheckpointError& e) {
        return e.what();
    }
    return savedCacheState(c) == bytes ? "" : "saved different bytes";
}

} // namespace

TEST(StateIo, CacheLineBlockRoundTripsAndRejectsBadBytes)
{
    // Lines 0, 3, 6, 9 and 12 land in sets 0, 3, 2, 1 and 0, so the
    // valid lines are 0 and 1 (set 0), 3, 6 and 9.
    const core::CacheParams params = twelveLineCache();
    core::Cache c(params);
    for (Addr line = 0; line <= 12; line += 3)
        c.access(line * 64);
    const std::vector<std::uint8_t> bytes = savedCacheState(c);
    // Format version 2: u64 line count, a 2-byte bitmap, u64 tag and
    // u64 stamp per valid line, u64 LRU clock.
    constexpr std::size_t kBitmap = 8, kEntries = 10, kClock = 10 + 5 * 16;
    ASSERT_EQ(bytes.size(), kClock + 8);
    EXPECT_EQ(bytes[kBitmap], 0b01001011);
    EXPECT_EQ(bytes[kBitmap + 1], 0b0010);
    EXPECT_EQ(restoreCacheError(params, bytes, bytes.size()), "");

    const auto rejects = [&](std::vector<std::uint8_t> bad,
                             std::size_t size, const char* why) {
        return restoreCacheError(params, bad, size).find(why) !=
               std::string::npos;
    };
    const auto mutated = [&](auto&& mutate) {
        std::vector<std::uint8_t> bad = bytes;
        mutate(bad);
        return bad;
    };

    EXPECT_TRUE(rejects(mutated([](auto& b) { b[0] = 13; }), bytes.size(),
                        "line count does not match"));
    // Bit 4 of the second bitmap byte is line 12, one past the last.
    EXPECT_TRUE(rejects(mutated([](auto& b) { b[kBitmap + 1] |= 0x10; }),
                        bytes.size(), "past the last one"));
    // Line 0's stamp (its entry's second word) zeroed, then set one
    // above the clock (5: one fill per access).
    EXPECT_TRUE(rejects(mutated([](auto& b) {
                            warp::storeLE(&b[kEntries + 8],
                                          std::uint64_t{0});
                        }),
                        bytes.size(), "stamp outside"));
    EXPECT_EQ(warp::loadLE<std::uint64_t>(&bytes[kClock]), 5u);
    EXPECT_TRUE(rejects(mutated([](auto& b) {
                            warp::storeLE(&b[kEntries + 8],
                                          std::uint64_t{6});
                        }),
                        bytes.size(), "stamp outside"));
    // A stamp equal to the clock is in range.
    EXPECT_EQ(restoreCacheError(params, mutated([](auto& b) {
                                    warp::storeLE(&b[kEntries + 8],
                                                  std::uint64_t{5});
                                }),
                                bytes.size()),
              "");

    // The entries cut short in the middle of the third one.
    EXPECT_TRUE(rejects(bytes, kEntries + 2 * 16 + 5, "archive truncated"));
    // A bitmap that names one more line than there are entries: the
    // clock is read as part of the entries and the archive runs out.
    EXPECT_TRUE(rejects(mutated([](auto& b) { b[kBitmap + 1] |= 0x01; }),
                        bytes.size(), "archive truncated"));
}

TEST(StateIo, FullCacheSectionIsNoLargerThanVersion1)
{
    // Version 1 wrote 17 bytes per line, valid or not.
    const core::CacheParams params = twelveLineCache();
    core::Cache c(params);
    for (Addr line = 0; line < 12; ++line)
        c.access(line * 64);
    const std::vector<std::uint8_t> bytes = savedCacheState(c);
    EXPECT_EQ(bytes[8], 0xFF);
    EXPECT_EQ(bytes[9], 0x0F);
    EXPECT_LE(bytes.size(), 8 + 17 * 12 + 8);
    EXPECT_EQ(restoreCacheError(params, bytes, bytes.size()), "");
}

TEST(StateIo, UsedCacheRestoresLikeAFreshOne)
{
    // A cache that filled every line of its own before the restore
    // must forget them: the section names only lines 0, 1, 3, 6, 9.
    const core::CacheParams params = twelveLineCache();
    core::Cache source(params);
    for (Addr line = 0; line <= 12; line += 3)
        source.access(line * 64);
    const std::vector<std::uint8_t> section = savedCacheState(source);

    core::Cache fresh(params);
    core::Cache used(params);
    for (Addr line = 100; line < 140; ++line)
        used.access(line * 64);
    for (core::Cache* c : {&fresh, &used}) {
        warp::StateReader r(section);
        c->restoreState(r);
        r.expectEnd();
        EXPECT_EQ(savedCacheState(*c), section);
    }
    for (Addr line = 0; line < 160; line += 7) {
        const Addr addr = (line % 29) * 64;
        EXPECT_EQ(used.access(addr), fresh.access(addr)) << addr;
    }
    EXPECT_EQ(savedCacheState(used), savedCacheState(fresh));
}

TEST(StateIo, TageRowBlockRejectsBadBytes)
{
    const comps::TageParams params = comps::TageParams::tageL();
    warp::StateWriter w;
    comps::Tage("tage", params).saveState(w);
    const std::vector<std::uint8_t> bytes = w.take();
    auto restoreError = [&](const std::vector<std::uint8_t>& b) {
        comps::Tage t("tage", params);
        warp::StateReader r(b);
        try {
            t.restoreState(r);
            r.expectEnd();
        } catch (const guard::CheckpointError& e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(restoreError(bytes), "");

    // Table 0, row 0 starts after the table and row counts: valid,
    // u32 tag, u8 useful, u64 counter count, then the counters.
    constexpr std::size_t kRow0 = 16;
    std::vector<std::uint8_t> bad = bytes;
    bad[kRow0] = 2;
    EXPECT_NE(restoreError(bad).find("boolean byte out of range"),
              std::string::npos);
    bad = bytes;
    bad[kRow0 + 6] ^= 1;
    EXPECT_NE(restoreError(bad).find("TAGE counter count does not match"),
              std::string::npos);
    bad = bytes;
    bad[kRow0 + 14] = 0xFF;
    EXPECT_NE(restoreError(bad).find("saturating-counter value exceeds"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Full-simulator snapshot round-trips
// ---------------------------------------------------------------------

TEST(Snapshot, MidRunRoundTripIsBitExactForEveryPresetDesign)
{
    // Restore rebuilds the scheduler's wakeup state from the ROB. On
    // coremark a guard converts every ~35 cycles, so SFB captures hold
    // shadows waiting on unresolved guards (Tournament/sfb and the
    // B2 and TAGE-L stress cores did when this was written); the
    // stress core adds full queues and contended ports.
    struct Variant
    {
        const char* name;
        const char* workload;
        bool sfb;
        bool stress;
    };
    const Variant variants[] = {{"base", "x264", false, false},
                                {"sfb", "coremark", true, false},
                                {"stress+sfb", "coremark", true, true}};
    for (sim::Design d : sim::paperDesigns()) {
        for (const Variant& v : variants) {
            const std::string what =
                std::string(sim::designName(d)) + "/" + v.name;
            const prog::Program& p = cache().get(v.workload);
            sim::SimConfig cfg = smallCfg(d);
            cfg.backend.sfbEnabled = v.sfb;
            if (v.stress)
                test::useStressCore(cfg);

            sim::Simulator ref(p, sim::buildTopology(d), cfg);
            const sim::SimResult want = ref.run();
            ASSERT_GT(want.cycles, 0u);

            // Stop mid-run at an arbitrary cycle: the pipeline is full
            // of in-flight speculation (fetch packets, ROB entries,
            // pending repair walks) — exactly the state a checkpoint
            // must carry.
            sim::Simulator a(p, sim::buildTopology(d), cfg);
            ASSERT_TRUE(a.advanceTo(want.cycles / 2))
                << what << ": run finished before midpoint";
            const warp::Snapshot snap = warp::captureSnapshot(a);
            EXPECT_EQ(snap.cycle, want.cycles / 2);

            // The capturing simulator itself resumes bit-exactly...
            const sim::SimResult resumed = a.run();
            EXPECT_EQ(resumed, want)
                << what << ": capture perturbed the run";

            // ...and so does a fresh simulator restored from the
            // snapshot.
            sim::Simulator b(p, sim::buildTopology(d), cfg);
            warp::restoreSnapshot(b, snap);
            const sim::SimResult restored = b.run();
            EXPECT_EQ(restored, want) << what << ": restore diverged";
        }
    }
}

TEST(Snapshot, BackendRestoreChecksOccupancyAndRobIdOrder)
{
    // REF-BIG's 224-entry ROB rides a 256-slot ring: occupancy is
    // checked against the configured size, before any entry is read.
    const prog::Program& p = cache().get("leela");
    sim::Simulator s(p, sim::buildTopology(sim::Design::RefBig),
                     smallCfg(sim::Design::RefBig));
    const auto restoreError = [&](const std::vector<std::uint8_t>& b) {
        warp::StateReader r(b);
        try {
            s.backend().restoreState(r);
        } catch (const guard::CheckpointError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    {
        warp::StateWriter w;
        w.u64(225);
        EXPECT_NE(restoreError(w.take()).find(
                      "ROB occupancy 225 exceeds this configuration's "
                      "224 entries"),
                  std::string::npos);
    }
    // Wakeup links name consumers by robId: a repeated id is refused
    // as soon as its entry is read.
    {
        warp::StateWriter w;
        w.u64(2);
        core::FetchedInst fi;
        fi.di.pc = p.entry();
        fi.di.si = &p.at(p.entry());
        for (int i = 0; i < 2; ++i) {
            core::saveFetchedInst(w, fi, p);
            w.u8(0);           // Waiting
            w.u8(0);           // Int
            w.u64(0);          // earliestIssue
            w.u64(0);          // doneCycle
            w.boolean(false);  // wasMispredict
            w.boolean(false);  // sfbConverted
            w.boolean(false);  // sfbShadow
            w.u64(0);          // sfbGuard
            w.u64(7);          // robId
        }
        EXPECT_NE(restoreError(w.take()).find(
                      "ROB robIds do not strictly increase"),
                  std::string::npos);
    }
}

TEST(Snapshot, AuditedRunRoundTripsBitExactly)
{
    const prog::Program& p = cache().get("leela");
    sim::SimConfig cfg = smallCfg(sim::Design::B2);
    cfg.audit = true;

    sim::Simulator ref(p, sim::buildTopology(sim::Design::B2), cfg);
    const sim::SimResult want = ref.run();

    sim::Simulator a(p, sim::buildTopology(sim::Design::B2), cfg);
    ASSERT_TRUE(a.advanceTo(want.cycles / 3));
    const warp::Snapshot snap = warp::captureSnapshot(a);

    sim::Simulator b(p, sim::buildTopology(sim::Design::B2), cfg);
    warp::restoreSnapshot(b, snap);
    EXPECT_EQ(b.run(), want);
}

TEST(Snapshot, EncodeDecodeRoundTrips)
{
    const prog::Program& p = cache().get("x264");
    const sim::SimConfig cfg = smallCfg(sim::Design::Tourney);
    sim::Simulator s(p, sim::buildTopology(sim::Design::Tourney), cfg);
    ASSERT_TRUE(s.advanceTo(5000));
    const warp::Snapshot snap = warp::captureSnapshot(s);

    const std::vector<std::uint8_t> bytes = warp::encodeSnapshot(snap);
    const warp::Snapshot back = warp::decodeSnapshot(bytes);
    EXPECT_EQ(back.fingerprint, snap.fingerprint);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_EQ(back.insts, snap.insts);
    EXPECT_EQ(back.payload, snap.payload);
}

TEST(Snapshot, CorruptionIsRejectedStructurally)
{
    const prog::Program& p = cache().get("x264");
    const sim::SimConfig cfg = smallCfg(sim::Design::Tourney);
    sim::Simulator s(p, sim::buildTopology(sim::Design::Tourney), cfg);
    ASSERT_TRUE(s.advanceTo(5000));
    const std::vector<std::uint8_t> good =
        warp::encodeSnapshot(warp::captureSnapshot(s));

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] ^= 0xFF;
        EXPECT_THROW(warp::decodeSnapshot(bad),
                     guard::CheckpointError);
    }
    // Unsupported version.
    {
        std::vector<std::uint8_t> bad = good;
        bad[4] += 1;
        EXPECT_THROW(warp::decodeSnapshot(bad),
                     guard::CheckpointError);
    }
    // Flipped payload byte: caught by the checksum.
    {
        std::vector<std::uint8_t> bad = good;
        bad[good.size() - 1] ^= 0x01;
        EXPECT_THROW(warp::decodeSnapshot(bad),
                     guard::CheckpointError);
    }
    // Truncated mid-payload and truncated mid-header.
    {
        std::vector<std::uint8_t> bad(good.begin(),
                                      good.end() - good.size() / 4);
        EXPECT_THROW(warp::decodeSnapshot(bad),
                     guard::CheckpointError);
        bad.resize(10);
        EXPECT_THROW(warp::decodeSnapshot(bad),
                     guard::CheckpointError);
    }
    // Empty buffer.
    EXPECT_THROW(warp::decodeSnapshot({}), guard::CheckpointError);
}

TEST(Snapshot, FingerprintMismatchIsRejectedOnRestore)
{
    const prog::Program& p = cache().get("x264");
    sim::Simulator producer(p, sim::buildTopology(sim::Design::B2),
                            smallCfg(sim::Design::B2));
    ASSERT_TRUE(producer.advanceTo(5000));
    const warp::Snapshot snap = warp::captureSnapshot(producer);

    // A differently-configured simulator must refuse the snapshot
    // before touching the payload.
    sim::Simulator other(p, sim::buildTopology(sim::Design::TageL),
                         smallCfg(sim::Design::TageL));
    EXPECT_THROW(warp::restoreSnapshot(other, snap),
                 guard::CheckpointError);
}

TEST(Snapshot, MalformedQueryIsRejected)
{
    // A query in a snapshot must hold exactly one result and one
    // metadata entry per component of the restoring predictor, and a
    // provide byte only the three field groups: anything else would
    // index past the query's arrays once evaluation resumes.
    bpu::ComposedPredictor cp(sim::buildTopology(sim::Design::B2), 4);
    const std::size_t n = cp.components().size();
    bpu::QueryState q;
    q.reset(0x10040, 4, static_cast<unsigned>(n), 4);
    cp.evaluateStage(q, 1);
    q.captureHistory(HistoryRegister(64), 0);
    for (unsigned d = 2; d <= cp.maxLatency(); ++d)
        cp.evaluateStage(q, d);
    warp::StateWriter w;
    q.saveState(w);
    const std::vector<std::uint8_t> good = w.take();

    const auto restore = [](const std::vector<std::uint8_t>& bytes,
                            std::size_t comps) {
        warp::StateReader r(bytes);
        bpu::QueryState back;
        try {
            back.restoreState(r, comps);
            r.expectEnd();
        } catch (const guard::CheckpointError& e) {
            return std::string(e.what());
        }
        warp::StateWriter again;
        back.saveState(again);
        return again.bytes() == bytes ? std::string("accepted")
                                      : std::string("changed");
    };
    EXPECT_EQ(restore(good, n), "accepted");
    EXPECT_NE(restore(good, n + 1).find("query result count"),
              std::string::npos);
    EXPECT_NE(restore(good, n - 1).find("query result count"),
              std::string::npos);

    // The archive ends with the metadata (a u32 count, then 32 bytes
    // per entry) and two 8-byte provider arrays; before them sit the
    // results, 125 bytes each: computed flag, 116-byte bundle, then
    // one provide byte per slot.
    const std::size_t metaAt = good.size() - 16 - n * 32 - 4;
    {
        std::vector<std::uint8_t> bad = good;
        bad[metaAt] = static_cast<std::uint8_t>(n - 1);
        bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(metaAt + 4),
                  bad.begin() + static_cast<std::ptrdiff_t>(metaAt + 36));
        EXPECT_NE(restore(bad, n).find("metadata count"),
                  std::string::npos);
    }
    const std::size_t provideAt = metaAt - n * 125 + 1 + 116;
    for (std::uint8_t byte : {std::uint8_t{0x07}, std::uint8_t{0x08},
                              std::uint8_t{0x80}}) {
        std::vector<std::uint8_t> bad = good;
        bad[provideAt] = byte;
        EXPECT_EQ(restore(bad, n).find("provide byte") != std::string::npos,
                  byte != 0x07)
            << int{byte};
    }
}

TEST(Snapshot, CapturedPayloadBytesArePinned)
{
    // The checkpoint byte format is a contract with files already on
    // disk. Size and FNV-1a digest of a fast-forwarded capture on mcf,
    // one per preset, in format version 2, which writes each cache
    // level as a bitmap of its valid lines and those lines only; each
    // payload is under half its version-1 size, which wrote 17 bytes
    // per line, valid or not.
    static_assert(warp::Snapshot::kVersion == 2);
    struct Pin
    {
        sim::Design design;
        std::size_t bytes;
        std::uint64_t fnv;
        std::size_t version1Bytes;
    };
    const Pin pins[] = {
        {sim::Design::Tourney, 442950, 0x33ddc11c33c1d0c8ull, 1397078},
        {sim::Design::B2, 438755, 0x14415ad67bd7600aull, 1392883},
        {sim::Design::TageL, 643101, 0xdb8e0963108cd79full, 1597229},
        {sim::Design::RefBig, 1665765, 0xa2a13c97ebfa6043ull, 6043189},
    };
    for (const Pin& pin : pins) {
        const sim::DesignSpec spec = sim::presetSpec(pin.design);
        sim::SimConfig cfg = sim::makeConfig(spec);
        cfg.maxInsts = 16000;
        sim::Simulator s(cache().get("mcf"), sim::buildTopology(spec),
                         cfg);
        warp::fastForward(s, 53000);
        const warp::Snapshot snap = warp::captureSnapshot(s);
        EXPECT_EQ(snap.payload.size(), pin.bytes)
            << sim::designName(pin.design);
        EXPECT_EQ(warp::fnv1a(snap.payload.data(), snap.payload.size()),
                  pin.fnv)
            << sim::designName(pin.design);
        EXPECT_LT(2 * snap.payload.size(), pin.version1Bytes)
            << sim::designName(pin.design);
    }
}

TEST(Snapshot, FileRoundTripAndIoErrors)
{
    const std::string dir = scratchDir("cobra_warp_test_snapdir");
    const prog::Program& p = cache().get("x264");
    const sim::SimConfig cfg = smallCfg(sim::Design::Tourney);
    sim::Simulator s(p, sim::buildTopology(sim::Design::Tourney), cfg);
    ASSERT_TRUE(s.advanceTo(5000));
    const warp::Snapshot snap = warp::captureSnapshot(s);

    const std::string path = dir + "/mid.warp";
    warp::writeSnapshotFile(snap, path);
    const warp::Snapshot back = warp::readSnapshotFile(path);
    EXPECT_EQ(back.payload, snap.payload);
    EXPECT_EQ(back.cycle, snap.cycle);

    EXPECT_THROW(warp::readSnapshotFile(dir + "/missing.warp"),
                 guard::CheckpointError);
    // A directory opens as a stream but has no size to read.
    try {
        warp::readSnapshotFile(dir);
        ADD_FAILURE() << "a directory read as a snapshot";
    } catch (const guard::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(warp::writeSnapshotFile(snap, dir +
                                                   "/no/such/dir/x"),
                 guard::CheckpointError);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Seeded mutation of real snapshots
// ---------------------------------------------------------------------

namespace {

/** A byte range [begin, end) of a payload. */
struct Region
{
    std::size_t begin;
    std::size_t end;
};

/**
 * The valid-line bitmap of each cache level in @p payload, found from
 * the "caches" section marker and the levels' own line counts.
 */
std::vector<Region>
cacheBitmaps(const std::vector<std::uint8_t>& payload)
{
    warp::StateWriter marker;
    marker.section("caches");
    const std::vector<std::uint8_t>& m = marker.bytes();
    const auto at = std::search(payload.begin(), payload.end(), m.begin(),
                                m.end());
    EXPECT_NE(at, payload.end());
    std::size_t pos = static_cast<std::size_t>(at - payload.begin()) +
                      m.size();
    std::vector<Region> out;
    for (int level = 0; level < 4; ++level) {
        const auto lines = warp::loadLE<std::uint64_t>(&payload[pos]);
        const Region bitmap{pos + 8, pos + 8 + (lines + 7) / 8};
        std::size_t valid = 0;
        for (std::size_t b = bitmap.begin; b < bitmap.end; ++b)
            valid += static_cast<std::size_t>(std::popcount(payload[b]));
        out.push_back(bitmap);
        pos = bitmap.end + 16 * valid + 8;
    }
    return out;
}

/**
 * Flip one byte, zero a run of up to 16, or truncate, at a position
 * that is half the time in a cache bitmap and otherwise anywhere.
 */
void
mutate(std::vector<std::uint8_t>& payload,
       const std::vector<Region>& bitmaps, Rng& rng)
{
    std::size_t pos = rng.below(payload.size());
    if (rng.chance(0.5)) {
        const Region& r = bitmaps[rng.below(bitmaps.size())];
        pos = r.begin + rng.below(r.end - r.begin);
    }
    switch (rng.below(3)) {
    case 0:
        payload[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
    case 1:
        std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::min<std::size_t>(1 + rng.below(16),
                                          payload.size() - pos),
                    std::uint8_t{0});
        break;
    default:
        payload.resize(pos);
        break;
    }
}

} // namespace

TEST(Snapshot, MutatedPayloadsRestoreOrReject)
{
    // Untrusted checkpoint bytes end in a restore or a
    // guard::CheckpointError, never a crash or undefined behaviour
    // (the sanitizer build runs this too). Each mutant of a real
    // mid-run capture is re-encoded, so its checksum holds and the
    // restore decodes the mutated bytes. The cache bitmaps address
    // the line arrays, so half the mutants land in them.
    constexpr int kMutantsPerDesign = 150;
    Rng rng(0xB17A5);
    std::size_t restored = 0, rejected = 0;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig}) {
        const prog::Program& p = cache().get("mcf");
        sim::Simulator s(p, sim::buildTopology(d), smallCfg(d));
        ASSERT_TRUE(s.advanceTo(4000));
        const warp::Snapshot good = warp::captureSnapshot(s);
        const std::vector<Region> bitmaps = cacheBitmaps(good.payload);
        for (int i = 0; i < kMutantsPerDesign; ++i) {
            warp::Snapshot mutant = good;
            mutate(mutant.payload, bitmaps, rng);
            try {
                warp::restoreSnapshot(
                    s, warp::decodeSnapshot(warp::encodeSnapshot(mutant)));
                ++restored;
            } catch (const guard::CheckpointError&) {
                ++rejected;
            }
        }
        // Failed restores leave nothing behind that a good one keeps.
        warp::restoreSnapshot(s, good);
        EXPECT_EQ(warp::captureSnapshot(s).payload, good.payload)
            << sim::designName(d);
    }
    EXPECT_GT(restored, 0u);
    EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------
// Functional fast-forward
// ---------------------------------------------------------------------

TEST(FastForward, AdvancesAndStaysCheckpointable)
{
    const prog::Program& p = cache().get("x264");
    const sim::SimConfig cfg = smallCfg(sim::Design::B2);

    sim::Simulator s(p, sim::buildTopology(sim::Design::B2), cfg);
    const warp::FastForwardResult r = warp::fastForward(s, 10000);
    EXPECT_EQ(r.insts, 10000u);
    EXPECT_GT(r.packets, 0u);

    // The quiesced post-FF state checkpoints and restores cleanly.
    const warp::Snapshot snap = warp::captureSnapshot(s);
    sim::Simulator b(p, sim::buildTopology(sim::Design::B2), cfg);
    warp::restoreSnapshot(b, snap);
    const sim::SimResult after = b.runInterval(2000, 4000);
    // Superscalar commit may overshoot the bound by one group.
    EXPECT_GE(after.insts, 4000u);
    EXPECT_LT(after.insts, 4000u + 8u);
    EXPECT_FALSE(after.deadlocked);
}

// ---------------------------------------------------------------------
// Warp driver
// ---------------------------------------------------------------------

namespace {

/** A one-job runWarps batch on @p jobs workers: the job's estimate,
 *  or the exception it ended with, rethrown. */
warp::WarpEstimate
soloWarp(const warp::WarpJob& job, unsigned jobs = 1)
{
    std::vector<warp::WarpOutcome> out = warp::runWarps({job}, jobs);
    if (out[0].exception)
        std::rethrow_exception(out[0].exception);
    return std::move(out[0].estimate);
}

/** B2 on leela at the small test scale. */
warp::WarpJob
leelaB2Job(const warp::WarpConfig& w)
{
    return {&cache().get("leela"),
            [] { return sim::buildTopology(sim::Design::B2); },
            smallCfg(sim::Design::B2), w};
}

warp::WarpEstimate
runSmallWarp(unsigned jobs, const std::string& checkpoint_dir = "")
{
    warp::WarpConfig w;
    w.intervals = 4;
    w.sampleInsts = 4000;
    w.warmupCycles = 2000;
    w.checkpointDir = checkpoint_dir;
    return soloWarp(leelaB2Job(w), jobs);
}

} // namespace

TEST(Warp, EstimateIsDeterministicAndJobCountInvariant)
{
    const warp::WarpEstimate a = runSmallWarp(1);
    const warp::WarpEstimate b = runSmallWarp(1);
    const warp::WarpEstimate c = runSmallWarp(2);

    ASSERT_EQ(a.intervals.size(), 4u);
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.estimate, c.estimate);
    EXPECT_DOUBLE_EQ(a.ipc, c.ipc);
    EXPECT_DOUBLE_EQ(a.mpki, c.mpki);
    for (std::size_t i = 0; i < a.intervals.size(); ++i)
        EXPECT_EQ(a.intervals[i].result, c.intervals[i].result)
            << "interval " << i
            << " diverged between jobs=1 and jobs=2";
}

TEST(Warp, EstimateTracksTheFullDetailedRun)
{
    const prog::Program& p = cache().get("leela");
    const sim::SimConfig cfg = smallCfg(sim::Design::B2);
    sim::Simulator full(p, sim::buildTopology(sim::Design::B2), cfg);
    const sim::SimResult want = full.run();

    const warp::WarpEstimate est = runSmallWarp(1);
    EXPECT_EQ(est.estimate.insts, cfg.maxInsts);
    // At this tiny scale the sampling error is large compared to the
    // acceptance benchmark; this only pins the estimator to the right
    // ballpark (a stitching bug is off by integer factors).
    EXPECT_NEAR(est.ipc, want.ipc(), 0.15 * want.ipc());
    EXPECT_GT(est.detailedInsts, 0u);
    EXPECT_GT(est.ffInsts, 0u);
}

TEST(Warp, StatsGroupsJsonCarriesTheWarpGroup)
{
    const warp::WarpEstimate est = runSmallWarp(1);
    const std::string groups = warp::statsGroupsJson(est);
    EXPECT_EQ(groups.front(), '{');
    EXPECT_NE(groups.find("\"warp\""), std::string::npos);
    EXPECT_NE(groups.find("\"ff_insts\""), std::string::npos);
    EXPECT_NE(groups.find("\"ipc_ci95_ppm\""), std::string::npos);
    // The registry tree of the last interval rides along.
    EXPECT_NE(groups.find("\"frontend\""), std::string::npos);
    EXPECT_NE(groups.find("\"bpu\""), std::string::npos);
}

TEST(Warp, CheckpointDirPersistsRestorableSnapshots)
{
    const std::string dir = scratchDir("cobra_warp_test_ckptdir");
    const warp::WarpEstimate est = runSmallWarp(1, dir);
    ASSERT_EQ(est.intervals.size(), 4u);

    const sim::SimConfig cfg = smallCfg(sim::Design::B2);
    for (unsigned i = 0; i < 4; ++i) {
        const warp::Snapshot snap = warp::readSnapshotFile(
            dir + "/interval-" + std::to_string(i) + ".warp");
        sim::Simulator s(cache().get("leela"),
                         sim::buildTopology(sim::Design::B2), cfg);
        EXPECT_NO_THROW(warp::restoreSnapshot(s, snap))
            << "interval " << i;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Warm-state cache hooks (cobra_serve)
// ---------------------------------------------------------------------

namespace {

/** An in-memory snapshot store wired into WarpConfig's cache hooks. */
struct MemorySnapshotStore
{
    std::map<unsigned, std::vector<std::uint8_t>> entries;
    unsigned lookups = 0;

    void
    wire(warp::WarpConfig& w)
    {
        w.snapshotLookup = [this](unsigned i, warp::Snapshot& out) {
            ++lookups;
            auto it = entries.find(i);
            if (it == entries.end())
                return false;
            out = warp::decodeSnapshot(it->second); // may throw
            return true;
        };
        w.snapshotStore = [this](unsigned i,
                                 const warp::Snapshot& snap) {
            entries[i] = warp::encodeSnapshot(snap);
        };
    }
};

warp::WarpEstimate
runHookedWarp(MemorySnapshotStore& store)
{
    warp::WarpConfig w;
    w.intervals = 4;
    w.sampleInsts = 4000;
    w.warmupCycles = 2000;
    store.wire(w);
    return soloWarp(leelaB2Job(w));
}

} // namespace

TEST(Warp, WarmCacheSkipsFastForwardBitIdentically)
{
    MemorySnapshotStore store;

    // Cold pass: every lookup misses, every snapshot is offered.
    const warp::WarpEstimate cold = runHookedWarp(store);
    EXPECT_EQ(cold.warmHits, 0u);
    EXPECT_GT(cold.ffInsts, 0u);
    EXPECT_EQ(store.entries.size(), 4u);

    // Warm pass: all four intervals hit, fast-forward is skipped, and
    // the estimate is bit-identical to the cold run.
    const warp::WarpEstimate warm = runHookedWarp(store);
    EXPECT_EQ(warm.warmHits, 4u);
    EXPECT_EQ(warm.ffInsts, 0u);
    EXPECT_EQ(warm.estimate, cold.estimate);
    EXPECT_DOUBLE_EQ(warm.ipc, cold.ipc);
    ASSERT_EQ(warm.intervals.size(), cold.intervals.size());
    for (std::size_t i = 0; i < cold.intervals.size(); ++i)
        EXPECT_EQ(warm.intervals[i].result, cold.intervals[i].result)
            << "interval " << i << " diverged on the warm path";
}

TEST(Warp, PartialWarmCacheFallsBackToColdPass)
{
    MemorySnapshotStore store;
    const warp::WarpEstimate cold = runHookedWarp(store);

    // Drop one interval: the all-or-nothing warm hit must fail and
    // the run regenerate every entry via a full cold pass.
    store.entries.erase(2);
    const warp::WarpEstimate again = runHookedWarp(store);
    EXPECT_EQ(again.warmHits, 0u);
    EXPECT_GT(again.ffInsts, 0u);
    EXPECT_EQ(again.estimate, cold.estimate);
    EXPECT_EQ(store.entries.size(), 4u); // regenerated
}

TEST(Warp, PoisonedWarmEntryIsASafeMiss)
{
    MemorySnapshotStore store;
    const warp::WarpEstimate cold = runHookedWarp(store);

    // Corrupt one cached snapshot. cobra_serve's WarmCache turns the
    // decoder's CheckpointError into a miss; model the same contract
    // here — the lookup hook must not propagate a snapshot it cannot
    // vouch for.
    auto poisoned = store.entries;
    poisoned[1][poisoned[1].size() / 2] ^= 0x20;
    MemorySnapshotStore bad;
    bad.entries = poisoned;

    warp::WarpConfig w;
    w.intervals = 4;
    w.sampleInsts = 4000;
    w.warmupCycles = 2000;
    unsigned rejected = 0;
    w.snapshotLookup = [&](unsigned i, warp::Snapshot& out) {
        auto it = bad.entries.find(i);
        if (it == bad.entries.end())
            return false;
        try {
            out = warp::decodeSnapshot(it->second);
        } catch (const guard::CheckpointError&) {
            ++rejected;
            bad.entries.erase(it); // evict, regenerate below
            return false;
        }
        return true;
    };
    w.snapshotStore = [&](unsigned i, const warp::Snapshot& snap) {
        bad.entries[i] = warp::encodeSnapshot(snap);
    };

    const warp::WarpEstimate est = soloWarp(leelaB2Job(w));
    EXPECT_EQ(rejected, 1u);     // the poison was caught, not trusted
    EXPECT_EQ(est.warmHits, 0u); // one miss forces a full cold pass
    EXPECT_EQ(est.estimate, cold.estimate);
}

TEST(Warp, InvalidConfigurationsAreRejected)
{
    warp::WarpConfig w;
    w.intervals = 0;
    EXPECT_THROW(soloWarp(leelaB2Job(w)), guard::ConfigError);

    w.intervals = 4;
    w.warmupCycles = 0;
    EXPECT_THROW(soloWarp(leelaB2Job(w)), guard::ConfigError);

    w = warp::WarpConfig{};
    w.intervals = 8;
    warp::WarpJob tiny = leelaB2Job(w);
    tiny.cfg.maxInsts = 2;
    EXPECT_THROW(soloWarp(tiny), guard::ConfigError);
}

// ---------------------------------------------------------------------
// Batched warp runs
// ---------------------------------------------------------------------

namespace {

/** Field-for-field equality of two estimates. */
void
expectSameEstimate(const warp::WarpEstimate& a,
                   const warp::WarpEstimate& b, const std::string& what)
{
    EXPECT_EQ(a.estimate, b.estimate) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.mpki, b.mpki) << what;
    EXPECT_EQ(a.ipcCi95, b.ipcCi95) << what;
    EXPECT_EQ(a.mpkiCi95, b.mpkiCi95) << what;
    EXPECT_EQ(a.ipcRelErr, b.ipcRelErr) << what;
    EXPECT_EQ(a.ffInsts, b.ffInsts) << what;
    EXPECT_EQ(a.warmHits, b.warmHits) << what;
    EXPECT_EQ(a.detailedCycles, b.detailedCycles) << what;
    EXPECT_EQ(a.warmupCycles, b.warmupCycles) << what;
    EXPECT_EQ(a.detailedInsts, b.detailedInsts) << what;
    EXPECT_EQ(a.groupsJson, b.groupsJson) << what;
    ASSERT_EQ(a.intervals.size(), b.intervals.size()) << what;
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        const warp::WarpInterval& x = a.intervals[i];
        const warp::WarpInterval& y = b.intervals[i];
        EXPECT_EQ(x.startInst, y.startInst) << what << " interval " << i;
        EXPECT_EQ(x.lengthInsts, y.lengthInsts) << what;
        EXPECT_EQ(x.sampledInsts, y.sampledInsts) << what;
        EXPECT_EQ(x.sampleStart, y.sampleStart) << what;
        EXPECT_EQ(x.result, y.result) << what << " interval " << i;
        EXPECT_EQ(x.ipc, y.ipc) << what;
        EXPECT_EQ(x.mpki, y.mpki) << what;
    }
}

} // namespace

TEST(WarpBatch, EveryJobMatchesItsSoloRunAtAnyWidth)
{
    warp::WarpConfig w;
    w.intervals = 2;
    w.sampleInsts = 3000;
    w.warmupCycles = 1000;

    std::vector<warp::WarpJob> batch;
    std::vector<std::string> names;
    for (const char* wl : {"mcf", "leela"}) {
        for (sim::Design d :
             {sim::Design::Tourney, sim::Design::B2, sim::Design::TageL,
              sim::Design::RefBig}) {
            sim::SimConfig cfg = sim::makeConfig(d);
            cfg.warmupInsts = 2000;
            cfg.maxInsts = 12000;
            batch.push_back({&cache().get(wl),
                             [d] { return sim::buildTopology(d); }, cfg,
                             w});
            names.push_back(std::string(sim::designName(d)) + "/" + wl);
        }
    }
    // An invalid job in the middle: more intervals than instructions.
    const std::size_t invalid = 3;
    warp::WarpJob bad = batch[0];
    bad.cfg.maxInsts = 1;
    batch.insert(batch.begin() + invalid, bad);
    names.insert(names.begin() + invalid, "invalid");

    std::vector<warp::WarpEstimate> solo;
    for (std::size_t j = 0; j < batch.size(); ++j)
        solo.push_back(j == invalid ? warp::WarpEstimate{}
                                    : soloWarp(batch[j]));

    // At 3 workers the fast-forward passes of different jobs overlap
    // (the tsan leg checks that they share nothing).
    for (unsigned jobs : {1u, 3u}) {
        const std::vector<warp::WarpOutcome> out =
            warp::runWarps(batch, jobs);
        ASSERT_EQ(out.size(), batch.size());
        for (std::size_t j = 0; j < batch.size(); ++j) {
            const std::string what =
                names[j] + " at jobs " + std::to_string(jobs);
            if (j == invalid) {
                ASSERT_TRUE(out[j].exception) << what;
                EXPECT_THROW(std::rethrow_exception(out[j].exception),
                             guard::ConfigError)
                    << what;
                continue;
            }
            ASSERT_FALSE(out[j].exception) << what;
            expectSameEstimate(out[j].estimate, solo[j], what);
        }
    }
}
