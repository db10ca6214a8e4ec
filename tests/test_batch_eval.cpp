/**
 * @file
 * Batch-evaluation tests: the batch evaluator is only admissible as a
 * search tier if every lane's TraceResult is bit-identical to a solo
 * generic TraceDrivenEvaluator walk of the same design. The matrix:
 * every library component kind, lane counts {1, 3, 16}, warmup
 * offsets, specialized lanes vs generic serial walks, worker widths,
 * a captured trace, lane error isolation, and the end-to-end
 * search-driver property (the frontier artifact does not change with
 * the worker count).
 */

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "bpu/topology.hpp"
#include "components/bim.hpp"
#include "components/gtag.hpp"
#include "components/ittage.hpp"
#include "components/loop.hpp"
#include "components/perceptron.hpp"
#include "components/stat_corrector.hpp"
#include "components/tage.hpp"
#include "components/tourney.hpp"
#include "components/yags.hpp"
#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "search/driver.hpp"
#include "sim/presets.hpp"
#include "trace/batch_eval.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

using namespace cobra;

namespace {

prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

const trace::DecodedTrace&
sharedTrace()
{
    static const trace::DecodedTrace tr =
        trace::recordTrace(cache().get("mcf"), 6'000);
    return tr;
}

/**
 * One single-kind pipeline per library component: a chain of the
 * component over a small bimodal base (arbiters get two bases to
 * choose among). Factories are pure — safe to call on any worker.
 */
struct KindLane
{
    const char* kind;
    std::function<bpu::ComposedPredictor()> make;
};

comps::HbimParams
smallBim(comps::IndexMode mode = comps::IndexMode::Pc)
{
    comps::HbimParams p;
    p.sets = 256;
    p.mode = mode;
    p.latency = 2;
    return p;
}

template <typename Comp, typename Params>
std::function<bpu::ComposedPredictor()>
overBim(Params p)
{
    return [p] {
        bpu::Topology topo;
        auto* c = topo.make<Comp>("C", p);
        auto* base = topo.make<comps::Hbim>("BIM", smallBim());
        topo.setRoot(topo.chainOf({c, base}));
        return bpu::ComposedPredictor(std::move(topo), 4);
    };
}

std::vector<KindLane>
kindLanes()
{
    std::vector<KindLane> lanes;
    lanes.push_back({"bim", [] {
                         bpu::Topology topo;
                         auto* b = topo.make<comps::Hbim>(
                             "BIM", smallBim());
                         topo.setRoot(topo.leaf(b));
                         return bpu::ComposedPredictor(std::move(topo),
                                                       4);
                     }});
    lanes.push_back(
        {"gshare", overBim<comps::Hbim>(
                       smallBim(comps::IndexMode::GshareHash))});
    {
        comps::GtagParams p;
        p.sets = 128;
        lanes.push_back({"gtag", overBim<comps::Gtag>(p)});
    }
    lanes.push_back(
        {"tage", overBim<comps::Tage>(comps::TageParams::tageL(4))});
    {
        comps::PerceptronParams p;
        p.entries = 128;
        lanes.push_back({"perceptron", overBim<comps::Perceptron>(p)});
    }
    {
        comps::LoopParams p;
        p.entries = 64;
        lanes.push_back({"loop", overBim<comps::LoopPredictor>(p)});
    }
    {
        comps::YagsParams p;
        p.choiceSets = 256;
        p.cacheSets = 128;
        lanes.push_back({"yags", overBim<comps::Yags>(p)});
    }
    {
        comps::IttageParams p;
        p.sets = 64;
        lanes.push_back({"ittage", overBim<comps::Ittage>(p)});
    }
    {
        comps::TourneyParams p;
        p.sets = 256;
        lanes.push_back({"tourney", [p] {
                             bpu::Topology topo;
                             auto* t = topo.make<comps::Tourney>("T", p);
                             auto* g = topo.make<comps::Hbim>(
                                 "G", smallBim(
                                          comps::IndexMode::GshareHash));
                             auto* l = topo.make<comps::Hbim>(
                                 "L", smallBim(
                                          comps::IndexMode::LocalHist));
                             topo.setRoot(topo.arb(
                                 t, {topo.leaf(g), topo.leaf(l)}));
                             return bpu::ComposedPredictor(
                                 std::move(topo), 4);
                         }});
    }
    {
        comps::StatCorrectorParams p;
        p.sets = 128;
        lanes.push_back({"stat_corrector",
                         overBim<comps::StatCorrector>(p)});
    }
    return lanes;
}

/** Solo reference walk of the same design (per-stage, generic). */
trace::TraceResult
serialResult(const std::function<bpu::ComposedPredictor()>& make,
             std::size_t warmup, unsigned ghist_bits = 64,
             unsigned lhist_bits = 32)
{
    trace::TraceDrivenEvaluator ev(make(), ghist_bits, lhist_bits);
    return ev.evaluate(sharedTrace(), warmup);
}

void
expectSame(const trace::TraceResult& a, const trace::TraceResult& b,
           const std::string& what)
{
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
}

} // namespace

// ---------------------------------------------------------------------
// Bit identity
// ---------------------------------------------------------------------

TEST(BatchEval, EveryComponentKindMatchesSerial)
{
    const std::vector<KindLane> kinds = kindLanes();
    trace::BatchTraceEvaluator be(1);
    for (const KindLane& k : kinds) {
        trace::BatchLane lane;
        lane.label = k.kind;
        lane.predictor = k.make;
        be.addLane(std::move(lane));
    }
    const auto outs = be.evaluate(sharedTrace(), 1'000);
    ASSERT_EQ(outs.size(), kinds.size());
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        ASSERT_TRUE(outs[i].ok()) << outs[i].error;
        expectSame(outs[i].result, serialResult(kinds[i].make, 1'000),
                   kinds[i].kind);
    }
}

TEST(BatchEval, LaneCountsAndWarmupOffsetsMatchSerial)
{
    // Identity must hold for any lane count (1, 3, and 16 — more
    // lanes than there are kinds) and any warmup boundary, including
    // 0 and a warmup past the trace end.
    const std::vector<KindLane> kinds = kindLanes();
    for (unsigned lanes : {1u, 3u, 16u}) {
        for (std::size_t warmup : {std::size_t{0}, std::size_t{1'500},
                                   std::size_t{100'000}}) {
            trace::BatchTraceEvaluator be(1);
            for (unsigned k = 0; k < lanes; ++k) {
                trace::BatchLane lane;
                lane.label = kinds[k % kinds.size()].kind;
                lane.predictor = kinds[k % kinds.size()].make;
                be.addLane(std::move(lane));
            }
            const auto outs = be.evaluate(sharedTrace(), warmup);
            ASSERT_EQ(outs.size(), lanes);
            for (unsigned k = 0; k < lanes; ++k) {
                ASSERT_TRUE(outs[k].ok()) << outs[k].error;
                expectSame(
                    outs[k].result,
                    serialResult(kinds[k % kinds.size()].make, warmup),
                    outs[k].label + " lanes=" + std::to_string(lanes) +
                        " warmup=" + std::to_string(warmup));
            }
        }
    }
}

TEST(BatchEval, SpecializedLanesMatchGenericSerial)
{
    // Preset tuples are registered with the devirtualization
    // registry, so their lanes must take the specialized loop — and
    // still reproduce the generic serial walk exactly.
    trace::BatchTraceEvaluator be(1);
    std::vector<std::function<bpu::ComposedPredictor()>> makes;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL}) {
        const sim::DesignSpec spec = sim::presetSpec(d);
        makes.push_back([spec] {
            return bpu::ComposedPredictor(sim::buildTopology(spec),
                                          spec.fetchWidth);
        });
        trace::BatchLane lane;
        lane.label = spec.name;
        lane.ghistBits = spec.bpu.ghistBits;
        lane.lhistBits = spec.bpu.lhistBits;
        lane.predictor = makes.back();
        be.addLane(std::move(lane));
    }
    const auto outs = be.evaluate(sharedTrace(), 1'000);
    ASSERT_EQ(outs.size(), makes.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].ok()) << outs[i].error;
        EXPECT_EQ(outs[i].loop, "specialized");
        expectSame(outs[i].result, serialResult(makes[i], 1'000),
                   outs[i].label);
    }
}

TEST(BatchEval, WorkerWidthDoesNotChangeResults)
{
    const std::vector<KindLane> kinds = kindLanes();
    auto runAt = [&](unsigned jobs) {
        trace::BatchTraceEvaluator be(jobs);
        for (const KindLane& k : kinds) {
            trace::BatchLane lane;
            lane.label = k.kind;
            lane.predictor = k.make;
            be.addLane(std::move(lane));
        }
        return be.evaluate(sharedTrace(), 1'000);
    };
    const auto one = runAt(1);
    const auto four = runAt(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok() && four[i].ok());
        EXPECT_EQ(one[i].label, four[i].label);
        expectSame(one[i].result, four[i].result, one[i].label);
    }
}

TEST(BatchEval, DecodedTracePathMatchesSerial)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("cobra_batch_eval." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "mcf.cbtr").string();
    trace::captureTrace(cache().get("mcf"), path, 20'000);
    const std::shared_ptr<const trace::DecodedTrace> dec =
        trace::loadTrace(path);

    const std::vector<KindLane> kinds = kindLanes();
    trace::BatchTraceEvaluator be(1);
    for (const KindLane& k : kinds) {
        trace::BatchLane lane;
        lane.label = k.kind;
        lane.predictor = k.make;
        be.addLane(std::move(lane));
    }
    const auto outs = be.evaluate(*dec, 500);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        ASSERT_TRUE(outs[i].ok()) << outs[i].error;
        trace::TraceDrivenEvaluator ev(kinds[i].make());
        expectSame(outs[i].result, ev.evaluate(*dec, 500),
                   kinds[i].kind);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Error isolation
// ---------------------------------------------------------------------

TEST(BatchEval, FailedLaneDoesNotDisturbTheOthers)
{
    const std::vector<KindLane> kinds = kindLanes();
    trace::BatchTraceEvaluator be(1);
    {
        trace::BatchLane ok;
        ok.label = "good-a";
        ok.predictor = kinds[0].make;
        be.addLane(std::move(ok));
    }
    {
        trace::BatchLane bad;
        bad.label = "bad";
        bad.predictor = []() -> bpu::ComposedPredictor {
            throw guard::ConfigError("intentionally broken lane");
        };
        be.addLane(std::move(bad));
    }
    {
        trace::BatchLane ok;
        ok.label = "good-b";
        ok.predictor = kinds[3].make;
        be.addLane(std::move(ok));
    }
    {
        // A non-std exception lands in the same taxonomy the sweep
        // engine uses: "internal".
        trace::BatchLane odd;
        odd.label = "odd";
        odd.predictor = []() -> bpu::ComposedPredictor { throw 42; };
        be.addLane(std::move(odd));
    }
    const auto outs = be.evaluate(sharedTrace(), 1'000);
    ASSERT_EQ(outs.size(), 4u);
    EXPECT_FALSE(outs[1].ok());
    EXPECT_EQ(outs[1].errorClass, "config");
    EXPECT_NE(outs[1].error.find("intentionally broken"),
              std::string::npos);
    ASSERT_NE(outs[1].exception, nullptr);
    EXPECT_THROW(std::rethrow_exception(outs[1].exception),
                 guard::ConfigError);
    EXPECT_FALSE(outs[3].ok());
    EXPECT_EQ(outs[3].errorClass, "internal");
    ASSERT_NE(outs[3].exception, nullptr);
    EXPECT_THROW(std::rethrow_exception(outs[3].exception), int);
    ASSERT_TRUE(outs[0].ok());
    ASSERT_TRUE(outs[2].ok());
    expectSame(outs[0].result, serialResult(kinds[0].make, 1'000),
               "good-a");
    expectSame(outs[2].result, serialResult(kinds[3].make, 1'000),
               "good-b");
}

// ---------------------------------------------------------------------
// Search-driver determinism
// ---------------------------------------------------------------------

TEST(BatchEval, SearchFrontierArtifactUnchangedByBatching)
{
    // jobs 1 runs every lane inline on the calling thread; jobs 4
    // spreads them over the pool. The artifact must not notice.
    search::SearchConfig cfg;
    cfg.seed = 7;
    cfg.pool = 8;
    cfg.workloads = {"mcf"};
    cfg.seedEvals = 4;
    cfg.functionalSurvivors = 5;
    cfg.warpSurvivors = 2;
    cfg.finalists = 1;
    cfg.traceBranches = 10'000;
    cfg.traceWarmup = 2'000;
    cfg.warpInsts = 40'000;
    cfg.warpIntervals = 2;
    cfg.detailInsts = 60'000;
    cfg.detailWarmup = 10'000;

    cfg.jobs = 1;
    const search::SearchResult inline1 = search::runSearch(cfg, cache());

    cfg.jobs = 4;
    const search::SearchResult wide = search::runSearch(cfg, cache());

    EXPECT_EQ(search::frontierJson(inline1), search::frontierJson(wide));
    EXPECT_EQ(inline1.frontier, wide.frontier);
}
