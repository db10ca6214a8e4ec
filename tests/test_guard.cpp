/**
 * @file
 * SimGuard tests: structured config validation, the ContractAuditor
 * catching deliberately broken components, the deadlock watchdog's
 * post-mortem, and graceful degradation under fault injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "guard/contract_auditor.hpp"
#include "guard/errors.hpp"
#include "guard/fault_injector.hpp"
#include "guard/post_mortem.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

namespace cobra {
namespace {

// ---- Config validation --------------------------------------------------

TEST(GuardConfig, ZeroFetchWidthRejected)
{
    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.frontend.fetchWidth = 0;
    EXPECT_THROW(cfg.validate(), guard::ConfigError);
}

TEST(GuardConfig, WarmupBeyondBudgetAccepted)
{
    // A warmup longer than the measured budget is a long-warmup
    // study, not an empty measured region: the run measures maxInsts
    // instructions after the warmup.
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.warmupInsts = 20'000;
    cfg.maxInsts = 10'000;
    EXPECT_NO_THROW(cfg.validate());
    const prog::Program p =
        prog::buildWorkload(prog::WorkloadLibrary::profile("coremark"));
    sim::Simulator s(p, sim::buildTopology(sim::Design::B2), cfg);
    const sim::SimResult r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GE(s.backend().committedInsts(),
              cfg.warmupInsts + cfg.maxInsts);
    // The warmup ends on the cycle that commits its last instruction,
    // which may commit up to a core width past it.
    EXPECT_GT(r.insts + cfg.backend.coreWidth, cfg.maxInsts);
}

TEST(GuardConfig, ZeroDeadlockThresholdRejected)
{
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.deadlockCycles = 0;
    EXPECT_THROW(cfg.validate(), guard::ConfigError);
}

TEST(GuardConfig, FaultRateMustBeProbability)
{
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.faultRate = 1.5;
    EXPECT_THROW(cfg.validate(), guard::ConfigError);
}

TEST(GuardConfig, BpuInvariantsRejected)
{
    bpu::BpuConfig b;
    b.walkWidth = 0;
    EXPECT_THROW(b.validate(), guard::ConfigError);

    bpu::BpuConfig c;
    c.historyFileEntries = 1;
    EXPECT_THROW(c.validate(), guard::ConfigError);
}

TEST(GuardConfig, SizingFieldsAreBounded)
{
    // Every construction path reaches these checks; an empty RAS
    // would divide by zero on the first push.
    const auto rejects = [](auto&& mutate) {
        sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), guard::ConfigError);
    };
    rejects([](sim::SimConfig& c) { c.frontend.rasEntries = 0; });
    rejects([](sim::SimConfig& c) { c.frontend.rasEntries = 4097; });
    rejects([](sim::SimConfig& c) { c.backend.robEntries = 4097; });
    rejects([](sim::SimConfig& c) { c.bpu.historyFileEntries = 4097; });
    rejects([](sim::SimConfig& c) { c.bpu.lhistSets = 65537; });

    sim::SimConfig atCaps = sim::makeConfig(sim::Design::B2);
    atCaps.frontend.rasEntries = 4096;
    atCaps.backend.robEntries = 4096;
    atCaps.bpu.historyFileEntries = 4096;
    atCaps.bpu.lhistSets = 65536;
    EXPECT_NO_THROW(atCaps.validate());

    sim::SimConfig noRas = sim::makeConfig(sim::Design::B2);
    noRas.frontend.rasEntries = 0;
    prog::WorkloadCache cache;
    EXPECT_THROW(sim::Simulator(cache.get("leela"),
                                sim::buildTopology(sim::Design::B2), noRas),
                 guard::ConfigError);
}

TEST(GuardConfig, PresetConfigsAreValid)
{
    for (sim::Design d : sim::paperDesigns())
        EXPECT_NO_THROW(sim::makeConfig(d).validate());
}

TEST(GuardConfig, ErrorsDeriveFromLogicError)
{
    // Legacy call sites catch std::logic_error; the hierarchy must
    // stay substitutable.
    try {
        throw guard::ConfigError("field", "detail");
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("field"),
                  std::string::npos);
    }
}

// ---- ContractAuditor ----------------------------------------------------

/** Minimal benign component with configurable latency. */
class BenignMock : public bpu::PredictorComponent
{
  public:
    explicit BenignMock(unsigned latency)
        : PredictorComponent("BENIGN", latency, 4)
    {
    }

    void predict(const bpu::PredictContext&, bpu::PredictionBundle&,
                 bpu::Metadata&) override
    {
    }

    std::uint64_t storageBits() const override { return 0; }
};

/** Declares metaBits() = 4 but writes 16 bits of metadata. */
class MetaWidthLiar : public bpu::PredictorComponent
{
  public:
    MetaWidthLiar() : PredictorComponent("LIAR", 2, 4) {}

    unsigned metaBits() const override { return 4; }

    void predict(const bpu::PredictContext&, bpu::PredictionBundle&,
                 bpu::Metadata& meta) override
    {
        meta[0] = 0xFFFF; // 16 bits set, 4 declared.
    }

    std::uint64_t storageBits() const override { return 0; }
};

/**
 * Saves the writable fire-time metadata pointer so the test can mutate
 * the history-file copy between fire and update — the §III-D
 * round-trip violation the auditor must catch.
 */
class MetaLeakMock : public bpu::PredictorComponent
{
  public:
    MetaLeakMock() : PredictorComponent("MOCK", 2, 4) {}

    unsigned metaBits() const override { return 16; }

    void predict(const bpu::PredictContext&, bpu::PredictionBundle&,
                 bpu::Metadata& meta) override
    {
        meta[0] = 0xBEEF;
    }

    void fire(const bpu::FireEvent& ev) override { saved = ev.meta; }

    std::uint64_t storageBits() const override { return 0; }

    bpu::Metadata* saved = nullptr;
};

bpu::PredictContext
stageContext(unsigned stage, const HistoryRegister* gh,
             std::uint64_t serial)
{
    bpu::PredictContext ctx;
    ctx.pc = 0x1000;
    ctx.validSlots = 4;
    ctx.stage = stage;
    ctx.ghist = gh;
    ctx.serial = serial;
    return ctx;
}

TEST(ContractAuditor, PredictBeforeLatencyCaught)
{
    guard::ContractAuditor a(std::make_unique<BenignMock>(2));
    bpu::PredictionBundle b;
    bpu::Metadata m{};
    HistoryRegister gh(8);
    auto ctx = stageContext(1, &gh, 1);
    EXPECT_THROW(a.predict(ctx, b, m), guard::ContractViolation);
}

TEST(ContractAuditor, GhistLeakAtStageOneCaught)
{
    guard::ContractAuditor a(std::make_unique<BenignMock>(1));
    bpu::PredictionBundle b;
    bpu::Metadata m{};
    HistoryRegister gh(8);
    auto ctx = stageContext(1, &gh, 1);
    EXPECT_THROW(a.predict(ctx, b, m), guard::ContractViolation);
}

TEST(ContractAuditor, MissingGhistAtLateStageCaught)
{
    guard::ContractAuditor a(std::make_unique<BenignMock>(2));
    bpu::PredictionBundle b;
    bpu::Metadata m{};
    auto ctx = stageContext(2, nullptr, 1);
    EXPECT_THROW(a.predict(ctx, b, m), guard::ContractViolation);
}

TEST(ContractAuditor, DoublePredictCaught)
{
    guard::ContractAuditor a(std::make_unique<BenignMock>(2));
    bpu::PredictionBundle b;
    bpu::Metadata m{};
    HistoryRegister gh(8);
    auto ctx = stageContext(2, &gh, 7);
    EXPECT_NO_THROW(a.predict(ctx, b, m));
    EXPECT_THROW(a.predict(ctx, b, m), guard::ContractViolation);
}

TEST(ContractAuditor, MetaWidthOverflowCaught)
{
    guard::ContractAuditor a(std::make_unique<MetaWidthLiar>());
    bpu::PredictionBundle b;
    bpu::Metadata m{};
    HistoryRegister gh(8);
    auto ctx = stageContext(2, &gh, 1);
    try {
        a.predict(ctx, b, m);
        FAIL() << "expected ContractViolation";
    } catch (const guard::ContractViolation& e) {
        EXPECT_EQ(e.component(), "LIAR");
        EXPECT_NE(std::string(e.what()).find("metaBits"),
                  std::string::npos);
    }
}

TEST(ContractAuditor, OutsideComposerChecksAreSkipped)
{
    // Component tests drive predict() directly with a default context
    // (stage 0); the auditor must not flag that.
    guard::ContractAuditor a(std::make_unique<BenignMock>(2));
    bpu::PredictionBundle b;
    bpu::Metadata m{};
    bpu::PredictContext ctx;
    EXPECT_NO_THROW(a.predict(ctx, b, m));
}

TEST(ContractAuditor, MetaMutationBetweenFireAndUpdateCaught)
{
    bpu::Topology topo;
    auto* mock = topo.make<MetaLeakMock>();
    topo.setRoot(topo.leaf(mock));
    topo.wrapEach([](std::unique_ptr<bpu::PredictorComponent> c)
                      -> std::unique_ptr<bpu::PredictorComponent> {
        return std::make_unique<guard::ContractAuditor>(std::move(c));
    });

    bpu::BpuConfig bc;
    bpu::BranchPredictorUnit unit(std::move(topo), bc);

    bpu::QueryState q;
    unit.beginQuery(q, 0x1000, 4);
    unit.stage(q, 1);
    const bpu::PredictionBundle bundle = unit.stage(q, 2);

    bpu::FinalizeArgs fa;
    fa.finalPred = &bundle;
    fa.brMask[0] = true;
    fa.fetchedSlots = 4;
    fa.firstSeq = 1;
    const bpu::FtqPos pos = unit.finalize(q, fa);

    // The component held onto the writable fire-time pointer and now
    // corrupts the history file's metadata copy.
    ASSERT_NE(mock->saved, nullptr);
    (*mock->saved)[0] ^= 0x1;

    bpu::BranchResolution res;
    res.ftq = pos;
    res.slot = 0;
    res.type = bpu::CfiType::Br;
    res.taken = false;
    res.mispredicted = false;
    unit.resolve(res);
    unit.commitPacket(pos);

    try {
        for (int i = 0; i < 10; ++i)
            unit.tick();
        FAIL() << "expected ContractViolation at update delivery";
    } catch (const guard::ContractViolation& e) {
        EXPECT_EQ(e.component(), "MOCK");
        EXPECT_EQ(e.query(), pos);
        EXPECT_NE(std::string(e.what()).find("fire and update"),
                  std::string::npos);
    }
}

TEST(ContractAuditor, CleanRoundTripPasses)
{
    bpu::Topology topo;
    topo.setRoot(topo.leaf(topo.make<MetaLeakMock>()));
    topo.wrapEach([](std::unique_ptr<bpu::PredictorComponent> c)
                      -> std::unique_ptr<bpu::PredictorComponent> {
        return std::make_unique<guard::ContractAuditor>(std::move(c));
    });

    bpu::BpuConfig bc;
    bpu::BranchPredictorUnit unit(std::move(topo), bc);

    bpu::QueryState q;
    unit.beginQuery(q, 0x1000, 4);
    unit.stage(q, 1);
    const bpu::PredictionBundle bundle = unit.stage(q, 2);

    bpu::FinalizeArgs fa;
    fa.finalPred = &bundle;
    fa.brMask[0] = true;
    fa.fetchedSlots = 4;
    const bpu::FtqPos pos = unit.finalize(q, fa);

    bpu::BranchResolution res;
    res.ftq = pos;
    res.slot = 0;
    res.type = bpu::CfiType::Br;
    res.taken = false;
    unit.resolve(res);
    unit.commitPacket(pos);
    EXPECT_NO_THROW({
        for (int i = 0; i < 10; ++i)
            unit.tick();
    });
}

// ---- Watchdog -----------------------------------------------------------

sim::SimConfig
stallingConfig()
{
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    // No memory issue-queue entries: the first load can never
    // dispatch, so commit progress stops — a genuine deadlock.
    cfg.backend.memIqEntries = 0;
    cfg.deadlockCycles = 1'000;
    cfg.warmupInsts = 1'000;
    cfg.maxInsts = 2'000;
    return cfg;
}

TEST(Watchdog, DeadlockProducesPostMortem)
{
    const auto prof = prog::WorkloadLibrary::profile("coremark");
    const prog::Program p = prog::buildWorkload(prof);
    sim::Simulator s(p, sim::buildTopology(sim::Design::B2),
                     stallingConfig());
    const sim::SimResult r = s.run();
    EXPECT_TRUE(r.deadlocked);
    ASSERT_FALSE(r.diagnostics.empty());
    EXPECT_NE(r.diagnostics.find("post-mortem"), std::string::npos);
    EXPECT_NE(r.diagnostics.find("ROB"), std::string::npos);
    EXPECT_NE(r.diagnostics.find("frontend"), std::string::npos);
    EXPECT_NE(r.diagnostics.find("history file"), std::string::npos);
    // The blocked load never dispatches, so the ROB drains empty and
    // instructions pile up in the fetch buffer — exactly the signature
    // the report should show for a dispatch-blocked pipeline.
    EXPECT_EQ(r.postMortem.robEntries, 0u);
    EXPECT_FALSE(r.postMortem.robHeadValid);
    EXPECT_GT(r.postMortem.fetchBufferInsts, 0u);
    EXPECT_EQ(r.postMortem.deadlockThreshold, 1'000u);
    EXPECT_GT(r.postMortem.noProgressCycles, 1'000u);
    // Pinned from the loop that ticked every cycle: the watchdog fires
    // on the first cycle past the threshold, not at a later one.
    EXPECT_EQ(r.postMortem.cycle, 1178u);
    EXPECT_EQ(r.postMortem.noProgressCycles, 1001u);
}

TEST(Watchdog, FiresWhileTheFirstFetchWaitsOnTheICache)
{
    // B2 on mcf: the first fetch packet waits on its cold I-cache miss
    // until cycle 170, so nothing can commit before then. A 60-cycle
    // watchdog fires at cycle 61, in the middle of that wait, and the
    // post-mortem and stall counters read as at that cycle. Pinned
    // from the loop that ticked every cycle.
    const auto prof = prog::WorkloadLibrary::profile("mcf");
    const prog::Program p = prog::buildWorkload(prof);
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.deadlockCycles = 60;
    cfg.warmupInsts = 1'000;
    cfg.maxInsts = 2'000;
    sim::Simulator s(p, sim::buildTopology(sim::Design::B2), cfg);
    const sim::SimResult r = s.run();
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(r.postMortem.cycle, 61u);
    EXPECT_EQ(r.postMortem.noProgressCycles, 61u);
    ASSERT_EQ(r.postMortem.fetchPackets.size(), 1u);
    EXPECT_EQ(r.postMortem.fetchPackets[0].stallUntil, 170u);
    EXPECT_EQ(s.frontend().stats().get("fetch_bubbles"), 60u);
    EXPECT_EQ(s.cycles(), 61u);
}

TEST(Watchdog, StallOnTheMaxCyclesTickAgreesAcrossDrives)
{
    // run() and a sliced advanceTo() + finishRun() drive must agree on
    // every field, including whether the run deadlocked, when
    // maxCycles lands just before, on, or just after the cycle where
    // the watchdog fires.
    const auto prof = prog::WorkloadLibrary::profile("coremark");
    const prog::Program p = prog::buildWorkload(prof);
    sim::SimConfig cfg = stallingConfig();
    cfg.warmupInsts = 0; // the stall falls in the measured region
    Cycle stall = 0;
    {
        sim::Simulator s(p, sim::buildTopology(sim::Design::B2), cfg);
        ASSERT_TRUE(s.run().deadlocked);
        stall = s.cycles();
    }
    // Every counter of a stat group, by name.
    const auto counters = [](const StatGroup& g) {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (const StatGroup::Entry& e : g.entries())
            if (e.counter != nullptr)
                out.emplace_back(e.name, e.counter->value());
        return out;
    };
    for (const Cycle maxCycles : {stall - 1, stall, stall + 1}) {
        cfg.maxCycles = maxCycles;
        sim::Simulator direct(p, sim::buildTopology(sim::Design::B2),
                              cfg);
        const sim::SimResult want = direct.run();
        EXPECT_EQ(want.deadlocked, maxCycles >= stall)
            << "maxCycles " << maxCycles;
        EXPECT_EQ(want.cycles, std::min(stall, maxCycles));
        for (const Cycle slice : {Cycle{500}, Cycle{7}}) {
            sim::Simulator sliced(p, sim::buildTopology(sim::Design::B2),
                                  cfg);
            Cycle stop = slice;
            while (sliced.advanceTo(stop))
                stop += slice;
            const sim::SimResult got = sliced.finishRun();
            EXPECT_TRUE(sim::diffFields(want, got).empty())
                << "maxCycles " << maxCycles << ", slice " << slice
                << ": sliced drive differs in "
                << sim::diffFields(want, got).front();
            EXPECT_EQ(sliced.cycles(), direct.cycles())
                << "maxCycles " << maxCycles << ", slice " << slice;
            EXPECT_EQ(counters(sliced.frontend().stats()),
                      counters(direct.frontend().stats()))
                << "maxCycles " << maxCycles << ", slice " << slice;
            EXPECT_EQ(counters(sliced.backend().stats()),
                      counters(direct.backend().stats()))
                << "maxCycles " << maxCycles << ", slice " << slice;
        }
    }
}

TEST(Watchdog, HealthyRunDoesNotTrip)
{
    const auto prof = prog::WorkloadLibrary::profile("coremark");
    const prog::Program p = prog::buildWorkload(prof);
    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.warmupInsts = 2'000;
    cfg.maxInsts = 5'000;
    cfg.deadlockCycles = 1'000;
    sim::Simulator s(p, sim::buildTopology(sim::Design::B2), cfg);
    const sim::SimResult r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Watchdog, PostMortemFormatNamesEverySection)
{
    guard::PostMortem pm;
    pm.cycle = 1234;
    pm.robEntries = 3;
    pm.robHeadValid = true;
    pm.robHeadPc = 0x4000;
    pm.robHeadState = "waiting";
    pm.fetchPc = 0x4400;
    pm.recentRedirects.push_back({0x4800, 1200});
    const std::string s = pm.format();
    EXPECT_NE(s.find("post-mortem"), std::string::npos);
    EXPECT_NE(s.find("ROB"), std::string::npos);
    EXPECT_NE(s.find("0x4000"), std::string::npos);
    EXPECT_NE(s.find("redirects"), std::string::npos);
    EXPECT_NE(s.find("0x4800"), std::string::npos);
}

// ---- Fault injection ----------------------------------------------------

TEST(FaultInjection, DeterministicAndGraceful)
{
    const auto prof = prog::WorkloadLibrary::profile("leela");
    const prog::Program p = prog::buildWorkload(prof);

    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.warmupInsts = 5'000;
    cfg.maxInsts = 20'000;
    cfg.faultRate = 1e-3;
    cfg.faultSeed = 7;
    // Audit simultaneously: injected faults must corrupt state, not
    // the event protocol.
    cfg.audit = true;

    sim::Simulator a(p, sim::buildTopology(sim::Design::TageL), cfg);
    sim::Simulator b(p, sim::buildTopology(sim::Design::TageL), cfg);
    const sim::SimResult ra = a.run();
    const sim::SimResult rb = b.run();

    EXPECT_FALSE(ra.deadlocked);
    EXPECT_GT(ra.faultsInjected, 0u);
    EXPECT_GT(ra.auditChecks, 0u);
    // The composed predictor degrades, it does not collapse.
    EXPECT_GT(ra.accuracy(), 0.5);

    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.condMispredicts, rb.condMispredicts);
    EXPECT_EQ(ra.faultsInjected, rb.faultsInjected);
    EXPECT_EQ(ra.updatesDropped, rb.updatesDropped);
}

TEST(FaultInjection, AuditedRunMatchesUnaudited)
{
    const auto prof = prog::WorkloadLibrary::profile("leela");
    const prog::Program p = prog::buildWorkload(prof);

    sim::SimConfig plain = sim::makeConfig(sim::Design::TageL);
    plain.warmupInsts = 5'000;
    plain.maxInsts = 20'000;
    sim::SimConfig audited = plain;
    audited.audit = true;

    sim::Simulator a(p, sim::buildTopology(sim::Design::TageL), plain);
    sim::Simulator b(p, sim::buildTopology(sim::Design::TageL), audited);
    const sim::SimResult ra = a.run();
    const sim::SimResult rb = b.run();

    // The auditor is a pure observer: bit-identical metrics.
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.condMispredicts, rb.condMispredicts);
    EXPECT_EQ(ra.jalrMispredicts, rb.jalrMispredicts);
    EXPECT_EQ(rb.auditChecks > 0, true);
    EXPECT_EQ(ra.auditChecks, 0u);
}

TEST(FaultInjection, ZeroRateInjectsNothing)
{
    guard::FaultEngine eng(0.0, 7);
    EXPECT_FALSE(eng.enabled());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(eng.roll());
    EXPECT_EQ(eng.faultsInjected(), 0u);
}

} // namespace
} // namespace cobra
