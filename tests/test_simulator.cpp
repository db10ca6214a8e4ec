#include <gtest/gtest.h>

#include <string>

#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace cobra::sim {
namespace {

SimConfig
quick(Design d)
{
    SimConfig cfg = makeConfig(d);
    cfg.maxInsts = 30'000;
    cfg.warmupInsts = 10'000;
    return cfg;
}

TEST(Simulator, Deterministic)
{
    const auto prof = prog::WorkloadLibrary::profile("leela");
    const prog::Program p = prog::buildWorkload(prof);
    Simulator a(p, buildTopology(Design::TageL), quick(Design::TageL));
    Simulator b(p, buildTopology(Design::TageL), quick(Design::TageL));
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.insts, rb.insts);
    EXPECT_EQ(ra.condMispredicts, rb.condMispredicts);
}

TEST(Simulator, MetricsConsistent)
{
    const auto prof = prog::WorkloadLibrary::profile("x264");
    const prog::Program p = prog::buildWorkload(prof);
    Simulator s(p, buildTopology(Design::B2), quick(Design::B2));
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GE(r.insts, 30'000u);
    EXPECT_GT(r.cycles, r.insts / 6);
    EXPECT_GE(r.cfis, r.condBranches);
    EXPECT_LE(r.condMispredicts, r.condBranches);
    EXPECT_NEAR(r.ipc(), static_cast<double>(r.insts) / r.cycles,
                1e-12);
    EXPECT_GE(r.accuracy(), 0.0);
    EXPECT_LE(r.accuracy(), 1.0);
}

TEST(Simulator, WarmupExcludedFromMetrics)
{
    const auto prof = prog::WorkloadLibrary::profile("xz");
    const prog::Program p = prog::buildWorkload(prof);
    SimConfig cfg = quick(Design::B2);
    cfg.warmupInsts = 20'000;
    cfg.maxInsts = 10'000;
    Simulator s(p, buildTopology(Design::B2), cfg);
    const auto r = s.run();
    EXPECT_NEAR(static_cast<double>(r.insts), 10'000.0, 64.0);
}

TEST(Simulator, EveryDesignRunsEveryWorkload)
{
    // Smoke matrix: all designs complete all SPEC proxies without
    // deadlock (short runs).
    for (const auto& wl : prog::WorkloadLibrary::specint17()) {
        const prog::Program p =
            prog::buildWorkload(prog::WorkloadLibrary::profile(wl));
        for (Design d : paperDesigns()) {
            SimConfig cfg = quick(d);
            cfg.maxInsts = 8'000;
            cfg.warmupInsts = 2'000;
            Simulator s(p, buildTopology(d), cfg);
            const auto r = s.run();
            EXPECT_FALSE(r.deadlocked)
                << wl << "/" << designName(d);
            EXPECT_GT(r.ipc(), 0.02) << wl << "/" << designName(d);
        }
    }
}

TEST(Simulator, TickOnceAdvancesCycle)
{
    const auto prof = prog::WorkloadLibrary::profile("x264");
    const prog::Program p = prog::buildWorkload(prof);
    Simulator s(p, buildTopology(Design::B2), quick(Design::B2));
    EXPECT_EQ(s.cycles(), 0u);
    s.tickOnce();
    s.tickOnce();
    EXPECT_EQ(s.cycles(), 2u);
}

TEST(Simulator, IdleSkipMatchesTickingEveryCycle)
{
    // run() jumps over cycles in which no unit can act and credits
    // their stall counters in bulk. Ticking every cycle with
    // tickOnce() to the same committed count must end on the same
    // cycle with every counter of every stat group equal.
    static prog::WorkloadCache workloads;
    for (Design d : {Design::Tourney, Design::B2, Design::TageL,
                     Design::RefBig}) {
        for (const char* wl : {"mcf", "x264"}) {
            for (const bool stress : {false, true}) {
                SimConfig cfg = makeConfig(d);
                cfg.warmupInsts = 1'000;
                cfg.maxInsts = 6'000;
                cfg.backend.sfbEnabled = stress;
                if (stress)
                    test::useStressCore(cfg);
                const std::string name = std::string(designName(d)) +
                                         "/" + wl +
                                         (stress ? "/stress/sfb" : "");
                const prog::Program& p = workloads.get(wl);

                Simulator skipping(p, buildTopology(d), cfg);
                ASSERT_FALSE(skipping.run().deadlocked) << name;
                Simulator ticking(p, buildTopology(d), cfg);
                while (ticking.backend().committedInsts() <
                       cfg.warmupInsts + cfg.maxInsts)
                    ticking.tickOnce();

                EXPECT_EQ(skipping.cycles(), ticking.cycles()) << name;
                EXPECT_EQ(ticking.tickedCycles(), ticking.cycles());
                EXPECT_LT(skipping.tickedCycles(), skipping.cycles())
                    << name << ": no cycle was skipped";
                const auto& want = ticking.statRegistry().nodes();
                const auto& got = skipping.statRegistry().nodes();
                ASSERT_EQ(want.size(), got.size());
                for (std::size_t n = 0; n < want.size(); ++n) {
                    const auto& we = want[n].group->entries();
                    const auto& ge = got[n].group->entries();
                    ASSERT_EQ(we.size(), ge.size());
                    for (std::size_t e = 0; e < we.size(); ++e) {
                        if (we[e].counter == nullptr)
                            continue;
                        EXPECT_EQ(ge[e].counter->value(),
                                  we[e].counter->value())
                            << name << ": " << want[n].path << "."
                            << we[e].name;
                    }
                }
            }
        }
    }
}

TEST(Simulator, MaxCyclesBoundsRunaway)
{
    const auto prof = prog::WorkloadLibrary::profile("mcf");
    const prog::Program p = prog::buildWorkload(prof);
    SimConfig cfg = quick(Design::B2);
    cfg.maxCycles = 2'000;
    cfg.warmupInsts = 1'000'000'000; // unreachable
    Simulator s(p, buildTopology(Design::B2), cfg);
    const auto r = s.run();
    EXPECT_LE(s.cycles(), 2'100u);
    (void)r;
}

} // namespace
} // namespace cobra::sim
