#include <gtest/gtest.h>

#include "program/workload.hpp"
#include "search/space.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace cobra::trace {
namespace {

TEST(Trace, RecordsArchitecturalBranchStream)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("x264"));
    const DecodedTrace tr = recordTrace(p, 5000);
    ASSERT_EQ(tr.size(), 5000u);
    for (std::size_t i = 0; i < tr.size(); ++i) {
        const TraceRecord r = tr.record(i);
        EXPECT_EQ(r.type, RecordType::Cond);
        EXPECT_TRUE(p.contains(r.pc));
        EXPECT_LT(r.slot, 4u);
        if (r.taken) {
            EXPECT_TRUE(p.contains(r.target));
        }
    }
}

TEST(Trace, RecordingIsDeterministic)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("leela"));
    const DecodedTrace a = recordTrace(p, 2000);
    const DecodedTrace b = recordTrace(p, 2000);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.rmeta, b.rmeta);
}

TEST(Trace, EvaluatorLearnsEasyTrace)
{
    // A loop-dominated workload evaluated trace-style with TAGE-L
    // should reach high accuracy.
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("x264"));
    const DecodedTrace tr = recordTrace(p, 40'000);
    TraceDrivenEvaluator ev(
        bpu::ComposedPredictor(sim::buildTopology(sim::Design::TageL),
                               4),
        64);
    const TraceResult r = ev.evaluate(tr, 10'000);
    EXPECT_GT(r.accuracy(), 0.97);
    EXPECT_EQ(r.branches, 30'000u);
}

TEST(Trace, EvaluatorRespectsWarmup)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("xz"));
    const DecodedTrace tr = recordTrace(p, 10'000);
    TraceDrivenEvaluator ev(
        bpu::ComposedPredictor(sim::buildTopology(sim::Design::B2), 4),
        16);
    const TraceResult r = ev.evaluate(tr, 9'000);
    EXPECT_EQ(r.branches, 1'000u);
}

TEST(Trace, IdealizedEvaluationBeatsOrMatchesInCore)
{
    // The §II-B property on a correlation-heavy workload: the trace
    // model, blind to speculation effects, reports accuracy at least
    // as high as the speculating core achieves.
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("deepsjeng"));
    const DecodedTrace tr = recordTrace(p, 30'000);
    TraceDrivenEvaluator ev(
        bpu::ComposedPredictor(sim::buildTopology(sim::Design::TageL),
                               4),
        64);
    const TraceResult traceRes = ev.evaluate(tr, 10'000);

    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.maxInsts = 60'000;
    cfg.warmupInsts = 20'000;
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL), cfg);
    const auto coreRes = s.run();

    EXPECT_GE(traceRes.accuracy(), coreRes.accuracy() - 0.01);
}

TEST(Trace, SearchLanesArePinned)
{
    // Search tiers 0/1 in miniature: the four paper presets and the
    // first twelve SearchSpace(1) samples over 40k-branch streams
    // with a 10k warm-up. The lane suites compare lanes with solo
    // walks of the same evaluator; this pins the counts themselves.
    struct Pin
    {
        std::uint64_t branches;
        std::uint64_t mispredicts;
    };
    // Per workload: Tournament, B2, TAGE-L, REF-BIG, then the
    // samples in draw order.
    const std::vector<std::pair<const char*, std::vector<Pin>>> pins = {
        {"mcf",
         {{30000, 1288}, {30000, 1794}, {30000, 898}, {30000, 908},
          {30000, 2494}, {30000, 1683}, {30000, 2167}, {30000, 1505},
          {30000, 843}, {30000, 2095}, {30000, 846}, {30000, 925},
          {30000, 1360}, {30000, 1708}, {30000, 876}, {30000, 959}}},
        {"leela",
         {{30000, 2053}, {30000, 1558}, {30000, 766}, {30000, 793},
          {30000, 2602}, {30000, 2108}, {30000, 2251}, {30000, 1526},
          {30000, 789}, {30000, 2542}, {30000, 794}, {30000, 1189},
          {30000, 2048}, {30000, 2106}, {30000, 824}, {30000, 893}}},
    };
    std::vector<sim::DesignSpec> specs;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig})
        specs.push_back(sim::presetSpec(d));
    search::SearchSpace space(1);
    for (int i = 0; i < 12; ++i)
        specs.push_back(space.sample());

    for (const auto& [workload, want] : pins) {
        const prog::Program p = prog::buildWorkload(
            prog::WorkloadLibrary::profile(workload));
        const DecodedTrace tr = recordTrace(p, 40'000);
        ASSERT_EQ(want.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            TraceDrivenEvaluator ev(
                bpu::ComposedPredictor(sim::buildTopology(specs[i]),
                                       specs[i].fetchWidth),
                specs[i].bpu.ghistBits, specs[i].bpu.lhistBits);
            const TraceResult r = ev.evaluate(tr, 10'000);
            EXPECT_EQ(r.branches, want[i].branches)
                << workload << " lane " << i;
            EXPECT_EQ(r.mispredicts, want[i].mispredicts)
                << workload << " lane " << i;
        }
    }
}

} // namespace
} // namespace cobra::trace
