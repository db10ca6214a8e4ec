/**
 * @file
 * SweepEngine determinism and plumbing tests: a parallel sweep must
 * be byte-identical to the serial reference (the central contract of
 * the `--jobs` knob), outcomes arrive in submission order, failures
 * stay isolated to their point, and the workload cache shares one
 * Program per name.
 */

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/sweep.hpp"

using namespace cobra;

namespace {

/** Shared workload cache: programs are immutable once built. */
prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

sim::SweepPoint
smallPoint(sim::Design d, const std::string& wl)
{
    sim::SweepPoint p = sim::SweepPoint::preset(d, cache().get(wl));
    p.cfg.warmupInsts = 500;
    p.cfg.maxInsts = 3000;
    return p;
}

std::vector<sim::SweepOutcome>
runGrid(unsigned jobs, bool audit)
{
    const sim::Design designs[] = {sim::Design::Tourney,
                                   sim::Design::B2, sim::Design::TageL};
    const char* wls[] = {"dhrystone", "x264", "leela"};
    sim::SweepEngine engine(jobs);
    for (sim::Design d : designs) {
        for (const char* wl : wls) {
            sim::SweepPoint p = smallPoint(d, wl);
            p.cfg.audit = audit;
            engine.add(std::move(p));
        }
    }
    return engine.run();
}

} // namespace

TEST(SweepEngine, SerialAndParallelGridsAreIdentical)
{
    const auto serial = runGrid(1, /*audit=*/false);
    const auto parallel = runGrid(4, /*audit=*/false);

    ASSERT_EQ(serial.size(), 9u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].ok()) << serial[i].error;
        EXPECT_TRUE(parallel[i].ok()) << parallel[i].error;
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(serial[i].result, parallel[i].result)
            << "point " << serial[i].label
            << " diverged between --jobs 1 and --jobs 4";
    }
}

TEST(SweepEngine, AuditedGridsAreIdenticalToo)
{
    const auto serial = runGrid(1, /*audit=*/true);
    const auto parallel = runGrid(3, /*audit=*/true);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].ok()) << serial[i].error;
        EXPECT_GT(serial[i].result.auditChecks, 0u);
        EXPECT_EQ(serial[i].result, parallel[i].result)
            << "audited point " << serial[i].label << " diverged";
    }
}

TEST(SweepEngine, ConcurrentIdenticalPointsStayDeterministic)
{
    // Shared-mutable-state stress: many copies of the SAME point in
    // flight at once. Any hidden cross-Simulator coupling (a static
    // table, a shared RNG, a mutated Program) shows up as divergence
    // between replicas.
    sim::SweepEngine engine(4);
    const unsigned kReplicas = 8;
    for (unsigned i = 0; i < kReplicas; ++i)
        engine.add(smallPoint(sim::Design::TageL, "gcc"));
    const auto outs = engine.run();

    ASSERT_EQ(outs.size(), kReplicas);
    for (const auto& o : outs) {
        ASSERT_TRUE(o.ok()) << o.error;
        EXPECT_EQ(o.result, outs.front().result)
            << "replica diverged: concurrent Simulators share state";
    }
}

TEST(SweepEngine, OutcomesArriveInSubmissionOrder)
{
    sim::SweepEngine engine(4);
    std::vector<std::string> expected;
    for (const char* wl : {"leela", "mcf", "xz", "gcc", "x264"}) {
        expected.push_back(
            smallPoint(sim::Design::Tourney, wl).label);
        engine.add(smallPoint(sim::Design::Tourney, wl));
    }
    const auto outs = engine.run();
    ASSERT_EQ(outs.size(), expected.size());
    for (std::size_t i = 0; i < outs.size(); ++i)
        EXPECT_EQ(outs[i].label, expected[i]);
}

TEST(SweepEngine, FailedPointIsIsolated)
{
    sim::SweepEngine engine(2);
    engine.add(smallPoint(sim::Design::B2, "leela"));

    sim::SweepPoint bad = smallPoint(sim::Design::B2, "leela");
    bad.label = "boom";
    bad.topology = []() -> bpu::Topology {
        throw std::runtime_error("synthetic topology failure");
    };
    engine.add(std::move(bad));
    engine.add(smallPoint(sim::Design::B2, "x264"));

    const auto outs = engine.run();
    ASSERT_EQ(outs.size(), 3u);
    EXPECT_TRUE(outs[0].ok());
    EXPECT_FALSE(outs[1].ok());
    EXPECT_NE(outs[1].error.find("synthetic topology failure"),
              std::string::npos);
    EXPECT_TRUE(outs[2].ok());
}

TEST(SweepEngine, FailuresCarryTheirTaxonomyClass)
{
    sim::SweepEngine engine(2);

    // A structural config violation -> "config".
    sim::SweepPoint badCfg = smallPoint(sim::Design::B2, "leela");
    badCfg.label = "badcfg";
    badCfg.cfg.deadlockCycles = 0;
    engine.add(std::move(badCfg));

    // An untyped exception from the topology factory -> "internal".
    sim::SweepPoint boom = smallPoint(sim::Design::B2, "leela");
    boom.label = "boom";
    boom.topology = []() -> bpu::Topology {
        throw std::runtime_error("synthetic topology failure");
    };
    engine.add(std::move(boom));

    engine.add(smallPoint(sim::Design::B2, "x264"));

    const auto outs = engine.run();
    ASSERT_EQ(outs.size(), 3u);
    EXPECT_FALSE(outs[0].ok());
    EXPECT_EQ(outs[0].errorClass, "config");
    EXPECT_FALSE(outs[1].ok());
    EXPECT_EQ(outs[1].errorClass, "internal");
    EXPECT_TRUE(outs[2].ok());
    EXPECT_TRUE(outs[2].errorClass.empty());
}

TEST(SweepEngine, SerialAndParallelAgreeOnFailuresToo)
{
    // The determinism contract extends to mixed grids: error text and
    // class must not depend on the worker schedule.
    auto grid = [](unsigned jobs) {
        sim::SweepEngine engine(jobs);
        engine.add(smallPoint(sim::Design::B2, "leela"));
        sim::SweepPoint bad = smallPoint(sim::Design::B2, "leela");
        bad.label = "bad";
        bad.cfg.deadlockCycles = 0;
        engine.add(std::move(bad));
        engine.add(smallPoint(sim::Design::TageL, "x264"));
        return engine.run();
    };
    const auto serial = grid(1);
    const auto parallel = grid(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].error, parallel[i].error);
        EXPECT_EQ(serial[i].errorClass, parallel[i].errorClass);
        if (serial[i].ok())
            EXPECT_EQ(serial[i].result, parallel[i].result);
    }
}

TEST(SweepEngine, StopFlagCancelsUnstartedPoints)
{
    sim::SweepEngine engine(1);
    std::atomic<bool> stop{true}; // set before run(): nothing starts
    engine.setStopFlag(&stop);
    engine.add(smallPoint(sim::Design::B2, "leela"));
    engine.add(smallPoint(sim::Design::B2, "x264"));

    const auto outs = engine.run();
    ASSERT_EQ(outs.size(), 2u);
    for (const auto& o : outs) {
        EXPECT_FALSE(o.ok());
        EXPECT_EQ(o.errorClass, "interrupted");
    }

    // Cleared flag: the same engine runs normally again.
    engine.setStopFlag(nullptr);
    engine.add(smallPoint(sim::Design::B2, "leela"));
    const auto outs2 = engine.run();
    ASSERT_EQ(outs2.size(), 1u);
    EXPECT_TRUE(outs2[0].ok());
}

TEST(SweepEngine, OnOutcomeSeesEveryPointOnce)
{
    sim::SweepEngine engine(4);
    const unsigned kPoints = 6;
    for (unsigned i = 0; i < kPoints; ++i)
        engine.add(smallPoint(sim::Design::Tourney, "leela"));
    sim::SweepPoint bad = smallPoint(sim::Design::Tourney, "leela");
    bad.label = "bad";
    bad.cfg.deadlockCycles = 0;
    engine.add(std::move(bad));

    std::mutex m;
    std::vector<int> seen(kPoints + 1, 0);
    std::vector<std::string> classes(kPoints + 1);
    engine.setOnOutcome(
        [&](std::size_t idx, const sim::SweepOutcome& o) {
            std::lock_guard<std::mutex> lk(m);
            ASSERT_LT(idx, seen.size());
            ++seen[idx];
            classes[idx] = o.errorClass;
        });

    const auto outs = engine.run();
    ASSERT_EQ(outs.size(), kPoints + 1);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "point " << i;
    EXPECT_EQ(classes[kPoints], "config"); // the hook saw the failure
}

TEST(SweepEngine, ExecuteHookDrivesThePoint)
{
    // The serve daemon's wall-clock watchdog rides this hook; check
    // that a custom driver (a) is actually used and (b) produces the
    // same result as Simulator::run() when it advances to completion.
    sim::SweepEngine ref(1);
    ref.add(smallPoint(sim::Design::B2, "leela"));
    const auto want = ref.run();
    ASSERT_TRUE(want[0].ok());

    sim::SweepEngine engine(1);
    sim::SweepPoint hooked = smallPoint(sim::Design::B2, "leela");
    std::atomic<unsigned> slices{0};
    hooked.execute = [&](sim::Simulator& s) {
        while (s.advanceTo(s.cycles() + 2000))
            ++slices;
        return s.run();
    };
    engine.add(std::move(hooked));
    const auto outs = engine.run();
    ASSERT_TRUE(outs[0].ok()) << outs[0].error;
    EXPECT_GT(slices.load(), 0u);
    EXPECT_EQ(outs[0].result, want[0].result)
        << "sliced advanceTo drive diverged from run()";
}

TEST(SweepEngine, RejectsIncompletePoints)
{
    sim::SweepEngine engine(1);
    sim::SweepPoint noTopo;
    noTopo.program = &cache().get("leela");
    EXPECT_THROW(engine.add(std::move(noTopo)), std::invalid_argument);

    sim::SweepPoint noProg;
    noProg.topology = [] {
        return sim::buildTopology(sim::Design::B2);
    };
    EXPECT_THROW(engine.add(std::move(noProg)), std::invalid_argument);
}

TEST(SweepEngine, HostCountersArePopulated)
{
    sim::SweepEngine engine(1);
    engine.add(smallPoint(sim::Design::Tourney, "dhrystone"));
    const auto outs = engine.run();
    ASSERT_EQ(outs.size(), 1u);
    const sim::HostCounters& h = outs[0].host;
    EXPECT_GT(h.simCycles, 0u);
    EXPECT_GT(h.simInsts, 0u);
    EXPECT_GE(h.wallSeconds, 0.0);
    if (h.wallSeconds > 0.0) {
        EXPECT_GT(h.kiloCyclesPerSec(), 0.0);
        EXPECT_GT(h.kips(), 0.0);
    }
}

TEST(SweepEngine, PostRunHookCapturesPerPointText)
{
    sim::SweepEngine engine(2);
    engine.add(smallPoint(sim::Design::B2, "leela"));
    engine.add(smallPoint(sim::Design::B2, "x264"));
    const auto outs = engine.run(
        [](std::size_t idx, sim::Simulator&, const sim::SimResult& r,
           const sim::SweepPoint& pt, std::ostream& os) {
            os << "point " << idx << " " << pt.label << " cycles "
               << r.cycles;
        });
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_NE(outs[0].postRunText.find("point 0 B2/leela"),
              std::string::npos);
    EXPECT_NE(outs[1].postRunText.find("point 1 B2/x264"),
              std::string::npos);
}

TEST(SweepEngine, DefaultJobsHonoursEnvironment)
{
    ::setenv("COBRA_JOBS", "3", 1);
    EXPECT_EQ(sim::SweepEngine::defaultJobs(), 3u);
    ::setenv("COBRA_JOBS", "0", 1); // nonsense clamps to 1
    EXPECT_EQ(sim::SweepEngine::defaultJobs(), 1u);
    ::unsetenv("COBRA_JOBS");
    EXPECT_GE(sim::SweepEngine::defaultJobs(), 1u);
}

TEST(SweepJson, EmitsEveryPointWithHostBlock)
{
    sim::SweepEngine engine(1);
    engine.add(smallPoint(sim::Design::Tourney, "leela"));
    const auto outs = engine.run();
    ASSERT_TRUE(outs[0].ok()) << outs[0].error;
    EXPECT_EQ(outs[0].loop, "specialized");

    const std::string path =
        ::testing::TempDir() + "/cobra_sweep_test.json";
    sim::writeSweepJson(path, "unit", outs, engine.jobs());

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\": \"Tournament/leela\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"kilocycles_per_sec\""), std::string::npos);
    EXPECT_NE(doc.find("\"cond_mispredicts\""), std::string::npos);
    // The loop variant is the last per-point field: the host block
    // follows it directly, with no schedule field in between.
    EXPECT_NE(doc.find("\"loop\": \"specialized\",\n      \"host\": {"),
              std::string::npos);
}

TEST(SweepJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(sim::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(sim::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(WorkloadCache, SharesOneProgramPerName)
{
    prog::WorkloadCache c;
    const prog::Program& a = c.get("leela");
    const prog::Program& b = c.get("leela");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(c.size(), 1u);
    const prog::Program& other = c.get("mcf");
    EXPECT_NE(&a, &other);
    EXPECT_EQ(c.size(), 2u);
}
