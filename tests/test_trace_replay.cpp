/**
 * @file
 * Trace replay (trace/replay.hpp) tests: capture-mode traces drive
 * full-core replays bit-identically to execute mode across the paper
 * designs and every frontend/backend option, checkpoints are
 * interchangeable between modes, warp runs from traces, construction
 * mismatches are structured ConfigErrors, the workload cache decodes
 * each trace exactly once, and parallel sweeps share one decoded trace.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include <unistd.h>

#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "warp/fastforward.hpp"
#include "warp/snapshot.hpp"
#include "warp/warp.hpp"

using namespace cobra;

namespace {

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

/** Capture `leela` once with enough budget for every test here. */
std::shared_ptr<const trace::DecodedTrace>
leelaTrace()
{
    static std::shared_ptr<const trace::DecodedTrace> tr = [] {
        const std::string path =
            scratchDir("cobra_replay_fix") + "/leela.cbtr";
        trace::captureTrace(cache().get("leela"), path, 60'000);
        return cache().getTrace(path);
    }();
    return tr;
}

} // namespace

// ---------------------------------------------------------------------
// Bit identity with execute mode
// ---------------------------------------------------------------------

TEST(TraceReplay, BitIdenticalToExecuteForEveryPaperDesign)
{
    const prog::Program& p = cache().get("leela");
    for (sim::Design d : sim::paperDesigns()) {
        const sim::SimConfig cfg = smallCfg(d);
        sim::Simulator exec(p, sim::buildTopology(d), cfg);
        const sim::SimResult want = exec.run();

        sim::SimConfig rcfg = cfg;
        rcfg.replayTrace = leelaTrace();
        sim::Simulator replay(p, sim::buildTopology(d), rcfg);
        const sim::SimResult got = replay.run();

        EXPECT_EQ(got, want)
            << sim::designName(d) << ": replay diverged from execute";
    }
}

TEST(TraceReplay, BitIdenticalUnderSfbGhistAuditAndSerializeVariants)
{
    const prog::Program& p = cache().get("leela");
    struct Variant
    {
        const char* name;
        void (*apply)(sim::SimConfig&);
    };
    const Variant variants[] = {
        {"sfb", [](sim::SimConfig& c) { c.backend.sfbEnabled = true; }},
        {"ghist-none",
         [](sim::SimConfig& c) {
             c.bpu.ghistMode = bpu::GhistRepairMode::None;
         }},
        {"ghist-repair",
         [](sim::SimConfig& c) {
             c.bpu.ghistMode = bpu::GhistRepairMode::RepairOnly;
         }},
        {"audit", [](sim::SimConfig& c) { c.audit = true; }},
        {"serialize",
         [](sim::SimConfig& c) { c.frontend.serializeFetch = true; }},
    };
    for (const Variant& v : variants) {
        sim::SimConfig cfg = smallCfg(sim::Design::B2);
        v.apply(cfg);
        sim::Simulator exec(p, sim::buildTopology(sim::Design::B2),
                            cfg);
        const sim::SimResult want = exec.run();

        sim::SimConfig rcfg = cfg;
        rcfg.replayTrace = leelaTrace();
        sim::Simulator replay(p, sim::buildTopology(sim::Design::B2),
                              rcfg);
        EXPECT_EQ(replay.run(), want) << "variant " << v.name;
    }
}

// ---------------------------------------------------------------------
// Checkpoint interchange between modes
// ---------------------------------------------------------------------

TEST(TraceReplay, SnapshotsAreInterchangeableBetweenModes)
{
    const prog::Program& p = cache().get("leela");
    const sim::SimConfig cfg = smallCfg(sim::Design::TageL);
    sim::SimConfig rcfg = cfg;
    rcfg.replayTrace = leelaTrace();

    // The same fast-forward in both modes. Byte equality of the two
    // archives is the strongest statement of state identity between
    // the modes.
    sim::Simulator a(p, sim::buildTopology(sim::Design::TageL), cfg);
    warp::fastForward(a, 20000);
    const warp::Snapshot execSnap = warp::captureSnapshot(a);
    sim::Simulator c(p, sim::buildTopology(sim::Design::TageL), rcfg);
    warp::fastForward(c, 20000);
    const warp::Snapshot replaySnap = warp::captureSnapshot(c);
    EXPECT_EQ(replaySnap.payload, execSnap.payload)
        << "replay-mode state diverged byte-wise from execute mode";

    const sim::SimResult want = a.runInterval(2000, 10000);
    ASSERT_GT(want.insts, 0u);

    // Execute-mode snapshot resumed under replay...
    sim::Simulator b(p, sim::buildTopology(sim::Design::TageL), rcfg);
    warp::restoreSnapshot(b, execSnap);
    EXPECT_EQ(b.runInterval(2000, 10000), want)
        << "execute-mode snapshot diverged when resumed from trace";

    // ...and a replay-mode snapshot resumed under execute.
    sim::Simulator e(p, sim::buildTopology(sim::Design::TageL), cfg);
    warp::restoreSnapshot(e, replaySnap);
    EXPECT_EQ(e.runInterval(2000, 10000), want)
        << "replay-mode snapshot diverged when resumed executing";
}

// ---------------------------------------------------------------------
// Warp from a trace
// ---------------------------------------------------------------------

TEST(TraceReplay, WarpEstimatesAreIdenticalFromTraceAndExecute)
{
    const prog::Program& p = cache().get("leela");
    warp::WarpConfig w;
    w.intervals = 3;
    w.warmupCycles = 2000;

    const sim::SimConfig cfg = smallCfg(sim::Design::B2);
    sim::SimConfig rcfg = cfg;
    rcfg.replayTrace = leelaTrace();
    const auto topo = [] { return sim::buildTopology(sim::Design::B2); };
    const std::vector<warp::WarpOutcome> out =
        warp::runWarps({{&p, topo, cfg, w}, {&p, topo, rcfg, w}}, 1);
    ASSERT_FALSE(out[0].exception);
    ASSERT_FALSE(out[1].exception);
    const warp::WarpEstimate& execEst = out[0].estimate;
    const warp::WarpEstimate& traceEst = out[1].estimate;

    EXPECT_EQ(traceEst.estimate, execEst.estimate);
    EXPECT_EQ(traceEst.detailedCycles, execEst.detailedCycles);
    EXPECT_EQ(traceEst.ffInsts, execEst.ffInsts);
}

// ---------------------------------------------------------------------
// Construction-time validation
// ---------------------------------------------------------------------

TEST(TraceReplay, MismatchedProgramSeedBudgetAndKindAreConfigErrors)
{
    const sim::SimConfig base = smallCfg(sim::Design::B2);

    {
        // Wrong program: trace captured from leela, workload is x264.
        sim::SimConfig cfg = base;
        cfg.replayTrace = leelaTrace();
        EXPECT_THROW(sim::Simulator(cache().get("x264"),
                                    sim::buildTopology(sim::Design::B2),
                                    cfg),
                     guard::ConfigError);
    }
    {
        // Wrong oracle seed.
        sim::SimConfig cfg = base;
        cfg.replayTrace = leelaTrace();
        cfg.oracleSeed ^= 1;
        EXPECT_THROW(sim::Simulator(cache().get("leela"),
                                    sim::buildTopology(sim::Design::B2),
                                    cfg),
                     guard::ConfigError);
    }
    {
        // Budget beyond the capture guarantee (warmup + measured).
        sim::SimConfig cfg = base;
        cfg.replayTrace = leelaTrace();
        cfg.maxInsts = leelaTrace()->meta.sourceInsts + 1;
        EXPECT_THROW(sim::Simulator(cache().get("leela"),
                                    sim::buildTopology(sim::Design::B2),
                                    cfg),
                     guard::ConfigError);
    }
    {
        // External (imported) traces cannot drive full-core replay.
        trace::TraceMeta meta = leelaTrace()->meta;
        meta.kind = trace::TraceKind::External;
        EXPECT_THROW(trace::validateReplayMeta(meta,
                                               cache().get("leela"),
                                               base.oracleSeed, 1000),
                     guard::ConfigError);
    }
}

// ---------------------------------------------------------------------
// Decode-once sharing
// ---------------------------------------------------------------------

TEST(TraceReplay, WorkloadCacheDecodesEachTraceOnce)
{
    const std::string dir = scratchDir("cobra_replay_cache");
    const std::string path = dir + "/t.cbtr";
    trace::captureTrace(cache().get("x264"), path, 5000);

    prog::WorkloadCache c;
    EXPECT_EQ(c.traceDecodes(), 0u);
    const auto a = c.getTrace(path);
    EXPECT_EQ(c.traceDecodes(), 1u);
    const auto b = c.getTrace(path);
    EXPECT_EQ(a.get(), b.get()) << "repeat get must share the decode";
    EXPECT_EQ(c.traceDecodes(), 1u);

    // A byte-identical copy at a different path is the same trace:
    // content addressing, not path addressing.
    const std::string copy = dir + "/copy.cbtr";
    std::filesystem::copy_file(path, copy);
    const auto d = c.getTrace(copy);
    EXPECT_EQ(a.get(), d.get());
    EXPECT_EQ(c.traceDecodes(), 1u);
    EXPECT_EQ(c.traceCount(), 1u);

    // A different capture is a different trace.
    const std::string other = dir + "/other.cbtr";
    trace::captureTrace(cache().get("xz"), other, 5000);
    const auto e = c.getTrace(other);
    EXPECT_NE(a.get(), e.get());
    EXPECT_EQ(c.traceDecodes(), 2u);
    EXPECT_EQ(c.traceCount(), 2u);
}

// ---------------------------------------------------------------------
// Sweeps: replay points share one decoded trace and stay bit-identical
// ---------------------------------------------------------------------

TEST(TraceReplay, ParallelSweepOverSharedTraceIsBitIdentical)
{
    const prog::Program& p = cache().get("leela");
    const auto tr = leelaTrace();

    // Serial execute-mode reference, one design at a time.
    std::vector<sim::SimResult> want;
    for (sim::Design d : sim::paperDesigns()) {
        sim::Simulator s(p, sim::buildTopology(d), smallCfg(d));
        want.push_back(s.run());
    }

    // Replay sweep at jobs 2: every point reads the same decoded
    // trace through its own cursor, concurrently.
    sim::SweepEngine engine(2);
    for (sim::Design d : sim::paperDesigns()) {
        sim::SweepPoint pt;
        pt.label = sim::designName(d);
        pt.topology = [d] { return sim::buildTopology(d); };
        pt.program = &p;
        pt.cfg = smallCfg(d);
        pt.cfg.replayTrace = tr;
        engine.add(std::move(pt));
    }
    const std::vector<sim::SweepOutcome> outcomes = engine.run();
    ASSERT_EQ(outcomes.size(), want.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].result, want[i])
            << outcomes[i].label << ": parallel replay diverged";
    }
}

// ---------------------------------------------------------------------
// Capture properties
// ---------------------------------------------------------------------

TEST(TraceReplay, CaptureMatchesRecordTraceCondStream)
{
    // recordTrace (the §II-B evaluator's source) and captureTrace walk
    // the same bare oracle: the conditional sub-stream of a capture
    // must equal the recordTrace stream record for record.
    const prog::Program& p = cache().get("x264");
    const trace::DecodedTrace ref = trace::recordTrace(p, 2000);

    const std::string path =
        scratchDir("cobra_replay_rec") + "/x264.cbtr";
    trace::captureTrace(p, path, 20'000);
    const auto dec = trace::loadTrace(path);

    std::size_t i = 0;
    for (std::size_t k = 0; k < dec->size() && i < ref.size(); ++k) {
        if (dec->typeAt(k) != trace::RecordType::Cond)
            continue;
        EXPECT_EQ(dec->record(k), ref.record(i)) << "cond record " << i;
        ++i;
    }
    EXPECT_EQ(i, ref.size())
        << "capture held fewer cond records than recordTrace";
}

TEST(TraceReplay, RecordedTraceIsNotAReplaySource)
{
    // recordTrace keeps conditional records only, so it cannot drive
    // a full-core replay; its metadata says so up front.
    const prog::Program& p = cache().get("x264");
    const trace::DecodedTrace rec = trace::recordTrace(p, 500);
    EXPECT_EQ(rec.meta.kind, trace::TraceKind::External);
    EXPECT_EQ(rec.meta.sourceInsts, 0u);
    EXPECT_EQ(rec.meta.condCount, rec.size());
    EXPECT_THROW(trace::validateReplayMeta(rec.meta, p, 0xD15EA5E, 1000),
                 guard::ConfigError);
}

TEST(TraceReplay, EvaluatorResultsMatchAcrossTraceRepresentations)
{
    // The same branch stream evaluated in memory, straight from
    // recordTrace, and after a round trip through the binary trace
    // file must produce the same idealized result.
    const prog::Program& p = cache().get("xz");
    const trace::DecodedTrace ref = trace::recordTrace(p, 8000);

    const std::string path =
        scratchDir("cobra_replay_eval") + "/xz.cbtr";
    trace::TraceMeta meta;
    meta.kind = trace::TraceKind::External;
    meta.fetchWidth = 4;
    meta.name = "xz-conds";
    {
        trace::TraceWriter w(path, meta);
        for (std::size_t i = 0; i < ref.size(); ++i)
            w.add(ref.record(i));
        w.finalize();
    }
    const auto dec = trace::loadTrace(path);

    trace::TraceDrivenEvaluator evA(
        bpu::ComposedPredictor(sim::buildTopology(sim::Design::TageL),
                               4),
        64);
    trace::TraceDrivenEvaluator evB(
        bpu::ComposedPredictor(sim::buildTopology(sim::Design::TageL),
                               4),
        64);
    const trace::TraceResult a = evA.evaluate(ref, 2000);
    const trace::TraceResult b = evB.evaluate(*dec, 2000);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(TraceReplay, CaptureIsDeterministic)
{
    const std::string dir = scratchDir("cobra_replay_det");
    const prog::Program& p = cache().get("leela");
    trace::captureTrace(p, dir + "/a.cbtr", 10'000);
    trace::captureTrace(p, dir + "/b.cbtr", 10'000);
    trace::TraceReader ra(dir + "/a.cbtr"), rb(dir + "/b.cbtr");
    EXPECT_EQ(ra.contentDigest(), rb.contentDigest())
        << "capture must be byte-deterministic";
}
