#include <gtest/gtest.h>

#include "program/workload.hpp"
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

} // namespace
} // namespace cobra::trace
