#include <gtest/gtest.h>

#include "program/builder.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace cobra::core {
namespace {

using prog::BranchBehavior;
using prog::OpClass;

sim::SimConfig
quickConfig()
{
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.maxInsts = 20'000;
    cfg.warmupInsts = 5'000;
    return cfg;
}

/** Straight-line megaloop: no branches except one backward jump. */
prog::Program
straightLineProgram(std::size_t body)
{
    prog::ProgramBuilder bld(9);
    prog::CodeMix mix;
    mix.fLoad = mix.fStore = mix.fMul = mix.fDiv = mix.fFp = 0;
    mix.depChain = 0.0;
    const Addr top = bld.here();
    bld.emitStraightLine(body, mix);
    bld.emitJump(top);
    prog::Program p = bld.takeProgram();
    p.setEntry(top);
    return p;
}

TEST(CoreIntegration, StraightLineIpcNearWidth)
{
    // Independent ALU ops with a single backward jump: a 4-wide core
    // should sustain IPC well above 2.
    const prog::Program p = straightLineProgram(200);
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL),
                     quickConfig());
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.ipc(), 2.0);
}

TEST(CoreIntegration, DependenceChainLimitsIpc)
{
    // A fully serialised dependence chain caps IPC near 1.
    prog::ProgramBuilder bld(10);
    const Addr top = bld.here();
    for (int i = 0; i < 100; ++i) {
        prog::StaticInst si;
        si.op = OpClass::IntAlu;
        si.dst = 5;
        si.src1 = 5;
        bld.emit(si);
    }
    bld.emitJump(top);
    prog::Program p = bld.takeProgram();
    p.setEntry(top);
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL),
                     quickConfig());
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_LT(r.ipc(), 1.3);
    EXPECT_GT(r.ipc(), 0.5);
}

TEST(CoreIntegration, CommittedStreamMatchesOracle)
{
    // Whatever speculation does, committed counts track the oracle's
    // architectural path: all conditional branches commit exactly as
    // many times as the oracle executes them.
    BranchBehavior b;
    b.kind = BranchBehavior::Kind::Loop;
    b.trip = 5;
    const prog::Program p = test::singleBranchProgram(b);
    sim::SimConfig cfg = quickConfig();
    sim::Simulator s(p, sim::buildTopology(sim::Design::B2), cfg);
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    // Program: 5 pad + brach-if/else(1+4+1+4) + jmp per iteration;
    // branch density must match the static layout (1 branch per 12
    // insts when not-taken path runs, 11 when taken).
    EXPECT_NEAR(static_cast<double>(r.insts) / r.condBranches, 11.2,
                1.0);
}

TEST(CoreIntegration, MispredictsRecoverCorrectPath)
{
    // A 50/50 random branch forces constant mispredicts; execution
    // must still commit the architectural stream without deadlock.
    BranchBehavior b;
    b.kind = BranchBehavior::Kind::Biased;
    b.pTaken = 0.5;
    b.seed = 77;
    const prog::Program p = test::singleBranchProgram(b);
    sim::Simulator s(p, sim::buildTopology(sim::Design::B2),
                     quickConfig());
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.condMispredicts, r.condBranches / 4);
    EXPECT_GT(r.ipc(), 0.05);
}

TEST(CoreIntegration, TakenBranchEveryPacketStillFlows)
{
    // A tight loop of back-to-back taken jumps exercises redirects.
    prog::ProgramBuilder bld(11);
    const Addr top = bld.here();
    prog::CodeMix mix;
    mix.fLoad = mix.fStore = mix.fMul = mix.fDiv = mix.fFp = 0;
    bld.emitStraightLine(2, mix);
    bld.emitJump(top);
    prog::Program p = bld.takeProgram();
    p.setEntry(top);
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL),
                     quickConfig());
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    // 3 insts per iteration with a taken jump: at least 1 per cycle
    // once the uBTB covers the loop.
    EXPECT_GT(r.ipc(), 1.0);
}

TEST(CoreIntegration, SerializationReducesFetchThroughput)
{
    // §I claim: serializing fetch at branches costs IPC on
    // branch-dense code.
    const auto prof = prog::WorkloadLibrary::profile("dhrystone");
    const prog::Program p = prog::buildWorkload(prof);

    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.maxInsts = 80'000;
    cfg.warmupInsts = 30'000;
    sim::Simulator normal(p, sim::buildTopology(sim::Design::TageL),
                          cfg);
    const double ipcNormal = normal.run().ipc();

    cfg.frontend.serializeFetch = true;
    sim::Simulator serial(p, sim::buildTopology(sim::Design::TageL),
                          cfg);
    const double ipcSerial = serial.run().ipc();

    EXPECT_LT(ipcSerial, ipcNormal * 0.97)
        << "serialized fetch must lose IPC on branch-dense code";
}

TEST(CoreIntegration, SfbConvertsEligibleBranches)
{
    const auto prof = prog::WorkloadLibrary::profile("coremark");
    const prog::Program p = prog::buildWorkload(prof);
    sim::SimConfig cfg = quickConfig();
    cfg.backend.sfbEnabled = true;
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL), cfg);
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.sfbConversions, 100u);
}

TEST(CoreIntegration, SfbImprovesAccuracyOnHammockCode)
{
    const auto prof = prog::WorkloadLibrary::profile("coremark");
    const prog::Program p = prog::buildWorkload(prof);
    sim::SimConfig cfg = quickConfig();
    cfg.maxInsts = 60'000;
    cfg.warmupInsts = 20'000;

    sim::Simulator off(p, sim::buildTopology(sim::Design::TageL), cfg);
    const auto roff = off.run();

    cfg.backend.sfbEnabled = true;
    sim::Simulator on(p, sim::buildTopology(sim::Design::TageL), cfg);
    const auto ron = on.run();

    EXPECT_GT(ron.accuracy(), roff.accuracy())
        << "SFB removes hammock mispredicts (paper §VI-C)";
}

TEST(CoreIntegration, GhistRepairModesOrdered)
{
    // §VI-B: no repair < repair-only <= repair+replay in accuracy on
    // correlation-heavy code.
    const auto prof = prog::WorkloadLibrary::profile("deepsjeng");
    const prog::Program p = prog::buildWorkload(prof);
    sim::SimConfig cfg = quickConfig();
    cfg.maxInsts = 60'000;
    cfg.warmupInsts = 20'000;

    auto runWith = [&](bpu::GhistRepairMode m) {
        sim::SimConfig c = cfg;
        c.bpu.ghistMode = m;
        sim::Simulator s(p, sim::buildTopology(sim::Design::TageL), c);
        return s.run();
    };

    const auto none = runWith(bpu::GhistRepairMode::None);
    const auto repair = runWith(bpu::GhistRepairMode::RepairOnly);
    const auto replay = runWith(bpu::GhistRepairMode::RepairAndReplay);

    EXPECT_GT(repair.accuracy(), none.accuracy())
        << "snapshot repair must beat corrupted histories";
    EXPECT_GE(replay.accuracy(), repair.accuracy() - 0.005)
        << "replay must not lose accuracy";
}

} // namespace
} // namespace cobra::core
