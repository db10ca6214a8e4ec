/**
 * @file
 * Specialized-loop exactness tests: the fused (devirtualized, SoA,
 * prefetching) cycle loop must be a pure host-side optimisation.
 * Every test here compares SpecializeMode::Off (the generic
 * virtual-dispatch reference) against Auto and demands bit-identical
 * SimResults and stats documents — across the presets and sampled
 * search designs, SFB/ghist variants, warp snapshots taken mid-run on
 * one loop and resumed on the other, and the guard-wrapped
 * configurations that must fall back to the generic loop.
 */

#include <string>

#include <gtest/gtest.h>

#include "program/workload.hpp"
#include "search/space.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/sweep.hpp"
#include "warp/snapshot.hpp"

using namespace cobra;

namespace {

prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

sim::SimConfig
smallCfg(const sim::DesignSpec& spec, sim::SpecializeMode mode,
         std::uint64_t insts = 40'000)
{
    sim::SimConfig cfg = sim::makeConfig(spec);
    cfg.warmupInsts = 2000;
    cfg.maxInsts = insts;
    cfg.specialize = mode;
    return cfg;
}

/** Run one (design, workload) point and return result + stats doc. */
std::pair<sim::SimResult, std::string>
runOnce(const sim::DesignSpec& spec, const std::string& wl,
        const sim::SimConfig& cfg, const char* expect_loop = nullptr)
{
    sim::Simulator s(cache().get(wl), sim::buildTopology(spec), cfg);
    if (expect_loop != nullptr) {
        EXPECT_STREQ(s.loopVariant(), expect_loop)
            << spec.name << "/" << wl;
    }
    const sim::SimResult r = s.run();
    return {r, sim::renderPointStats("p", s, r)};
}

/** Off vs Auto on @p wl: Auto must fuse and match Off exactly. */
void
expectFusedMatchesGeneric(const sim::DesignSpec& spec,
                          const std::string& wl, std::uint64_t insts)
{
    // Search samples all share one name; the topology tells them apart.
    SCOPED_TRACE(sim::buildTopology(spec).describe());
    const auto [rg, sg] = runOnce(
        spec, wl, smallCfg(spec, sim::SpecializeMode::Off, insts),
        "generic");
    const auto [rs, ss] = runOnce(
        spec, wl, smallCfg(spec, sim::SpecializeMode::Auto, insts),
        "specialized");
    EXPECT_EQ(rg, rs) << "specialized loop diverged from generic";
    EXPECT_EQ(sg, ss) << "stats documents diverged";
}

} // namespace

TEST(Specialize, EveryLibraryDesignFusesAndMatchesGeneric)
{
    // Every preset is built from library component types only.
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig})
        expectFusedMatchesGeneric(sim::presetSpec(d), "leela", 40'000);
    // Search samples compose the same types into shapes no preset
    // has (e.g. an arbiter over a four-deep chain); they fuse too.
    search::SearchSpace space(1);
    for (int i = 0; i < 12; ++i)
        expectFusedMatchesGeneric(space.sample(), "leela", 20'000);
}

/** The CLI's paper designs, by the names cobra_sim accepts. */
class SfbAndGhistVariants : public ::testing::TestWithParam<const char*>
{};

TEST_P(SfbAndGhistVariants, StayBitIdentical)
{
    const sim::DesignSpec spec = sim::presetSpec(GetParam());
    const bpu::GhistRepairMode modes[] = {
        bpu::GhistRepairMode::None, bpu::GhistRepairMode::RepairOnly,
        bpu::GhistRepairMode::RepairAndReplay};
    for (const char* wl : {"leela", "x264"}) {
        for (bpu::GhistRepairMode gm : modes) {
            for (bool sfb : {false, true}) {
                sim::SimConfig off =
                    smallCfg(spec, sim::SpecializeMode::Off);
                off.frontend.ghistMode = gm;
                off.backend.ghistMode = gm;
                off.backend.sfbEnabled = sfb;
                sim::SimConfig fused = off;
                fused.specialize = sim::SpecializeMode::Auto;

                const auto [rg, sg] = runOnce(spec, wl, off, "generic");
                const auto [rs, ss] =
                    runOnce(spec, wl, fused, "specialized");
                EXPECT_EQ(rg, rs)
                    << wl << " ghist=" << bpu::ghistRepairModeName(gm)
                    << " sfb=" << sfb;
                EXPECT_EQ(sg, ss)
                    << wl << " ghist=" << bpu::ghistRepairModeName(gm)
                    << " sfb=" << sfb;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Specialize, SfbAndGhistVariants,
                         ::testing::Values("tourney", "b2", "tagel"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

TEST(Specialize, AuditFallsBackToGenericAndRuns)
{
    const sim::DesignSpec spec = sim::presetSpec(sim::Design::B2);
    sim::SimConfig cfg = smallCfg(spec, sim::SpecializeMode::Auto);
    cfg.audit = true;
    const auto [r, stats] = runOnce(spec, "gcc", cfg, "generic");
    EXPECT_GT(r.auditChecks, 0u);
    EXPECT_FALSE(r.deadlocked);
}

TEST(Specialize, FaultInjectionFallsBackToGenericDeterministically)
{
    const sim::DesignSpec spec = sim::presetSpec(sim::Design::Tourney);
    sim::SimConfig cfg = smallCfg(spec, sim::SpecializeMode::Auto);
    cfg.faultRate = 0.01;
    const auto [a, sa] = runOnce(spec, "mcf", cfg, "generic");
    // Auto silently degrades; an explicit Off must reproduce the
    // exact same faulted run (the fault RNG stream is config-keyed,
    // not loop-keyed).
    cfg.specialize = sim::SpecializeMode::Off;
    const auto [b, sb] = runOnce(spec, "mcf", cfg, "generic");
    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(sa, sb);
}

TEST(Specialize, SnapshotsAreInterchangeableBetweenLoops)
{
    // A warp snapshot captured under one loop must restore and resume
    // bit-exactly under the other: the fingerprint deliberately does
    // not encode the specialize mode, because the modes share all
    // architectural state (SoA strips serialize in the same stream
    // format the generic loop uses).
    const prog::Program& p = cache().get("x264");
    for (sim::Design d : sim::paperDesigns()) {
        const sim::DesignSpec spec = sim::presetSpec(d);
        const sim::SimConfig off =
            smallCfg(spec, sim::SpecializeMode::Off);
        const sim::SimConfig fused =
            smallCfg(spec, sim::SpecializeMode::Auto);

        sim::Simulator ref(p, sim::buildTopology(spec), off);
        const sim::SimResult want = ref.run();
        ASSERT_GT(want.cycles, 0u);

        // Capture mid-run on the generic loop, resume specialized.
        sim::Simulator a(p, sim::buildTopology(spec), off);
        ASSERT_TRUE(a.advanceTo(want.cycles / 2));
        const warp::Snapshot snapG = warp::captureSnapshot(a);
        sim::Simulator b(p, sim::buildTopology(spec), fused);
        ASSERT_STREQ(b.loopVariant(), "specialized");
        warp::restoreSnapshot(b, snapG);
        EXPECT_EQ(b.run(), want)
            << spec.name << ": generic->specialized resume";

        // And the reverse: capture specialized, resume generic.
        sim::Simulator c(p, sim::buildTopology(spec), fused);
        ASSERT_TRUE(c.advanceTo(want.cycles / 3));
        const warp::Snapshot snapS = warp::captureSnapshot(c);
        sim::Simulator e(p, sim::buildTopology(spec), off);
        warp::restoreSnapshot(e, snapS);
        EXPECT_EQ(e.run(), want)
            << spec.name << ": specialized->generic resume";

        // The capturing specialized simulator itself resumes exactly.
        EXPECT_EQ(c.run(), want)
            << spec.name << ": capture perturbed the run";
    }
}
