/**
 * @file
 * Warp subsystem tests: state-archive primitives, the bulk table
 * codecs, full-simulator checkpoint round-trips (including
 * mid-speculation captures taken at arbitrary cycles), pinned payload
 * bytes, structured rejection of corrupted or mismatched snapshots,
 * functional fast-forward, warp-driver determinism, and batched warp
 * runs against their solo runs.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

/** A small cache with a few lines touched, and its saved state. */
std::vector<std::uint8_t>
savedCacheState(const core::CacheParams& params)
{
    core::Cache c(params);
    for (Addr a = 0; a < 64 * 40; a += 64)
        c.access(a * 3);
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
    return "";
}

} // namespace

TEST(StateIo, CacheLineBlockRoundTripsAndRejectsBadBytes)
{
    core::CacheParams params;
    params.sizeBytes = 4 * 1024;
    params.ways = 4;
    const std::vector<std::uint8_t> bytes = savedCacheState(params);
    // u64 line count, 17 bytes per line, u64 LRU clock.
    const std::size_t lines = params.sizeBytes / params.lineBytes;
    ASSERT_EQ(bytes.size(), 8 + 17 * lines + 8);
    EXPECT_EQ(restoreCacheError(params, bytes, bytes.size()), "");

    // Line 5's valid byte set to 2.
    std::vector<std::uint8_t> bad = bytes;
    bad[8 + 17 * 5] = 2;
    EXPECT_NE(restoreCacheError(params, bad, bad.size())
                  .find("boolean byte out of range"),
              std::string::npos);

    // The line table cut short, mid-line.
    EXPECT_NE(restoreCacheError(params, bytes, 8 + 17 * 7 + 3)
                  .find("archive truncated"),
              std::string::npos);
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

TEST(Snapshot, CapturedPayloadBytesArePinned)
{
    // The checkpoint byte format is a contract with files already on
    // disk: the bulk table codecs must write what the per-primitive
    // walk always wrote. Size and FNV-1a digest of a fast-forwarded
    // capture on mcf, one per preset.
    struct Pin
    {
        sim::Design design;
        std::size_t bytes;
        std::uint64_t fnv;
    };
    const Pin pins[] = {
        {sim::Design::Tourney, 1397078, 0x1e3ce5a5531faf49ull},
        {sim::Design::B2, 1392883, 0xb3a6a07b5e9d1355ull},
        {sim::Design::TageL, 1597229, 0xc1abedc034a889f4ull},
        {sim::Design::RefBig, 6043189, 0x3a106c4a297b71aaull},
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
    EXPECT_THROW(warp::writeSnapshotFile(snap, dir +
                                                   "/no/such/dir/x"),
                 guard::CheckpointError);
    std::filesystem::remove_all(dir);
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
