#include "sim/simulator.hpp"

#include "common/bitutil.hpp"
#include "warp/state_io.hpp"

#include <algorithm>
#include <limits>

namespace cobra::sim {

namespace {

/**
 * Guard-decorator options for the Simulator constructor: the single
 * place where Topology::wrapEach is applied, so every construction
 * path (presets, spec files, search candidates) gets identical
 * wrapping — fault injector innermost, contract auditor outermost.
 */
struct GuardHooks
{
    bool audit = false;
    /** Wrap a FaultInjector around every component when enabled(). */
    guard::FaultEngine* faults = nullptr;
    /** Receives the auditors created when audit is set. */
    std::vector<guard::ContractAuditor*>* auditors = nullptr;
};

/** Apply the guard decorators of @p hooks to an existing topology. */
void
applyGuardWrappers(bpu::Topology& topo, const GuardHooks& hooks)
{
    if (hooks.faults != nullptr && hooks.faults->enabled()) {
        topo.wrapEach(
            [&hooks](std::unique_ptr<bpu::PredictorComponent> c)
                -> std::unique_ptr<bpu::PredictorComponent> {
                return std::make_unique<guard::FaultInjector>(
                    std::move(c), *hooks.faults);
            });
    }
    if (hooks.audit) {
        // Auditor outermost: it observes the composer's calls, not the
        // injector's perturbations, so injected faults are (correctly)
        // not reported as contract violations.
        topo.wrapEach(
            [&hooks](std::unique_ptr<bpu::PredictorComponent> c)
                -> std::unique_ptr<bpu::PredictorComponent> {
                auto a = std::make_unique<guard::ContractAuditor>(
                    std::move(c));
                if (hooks.auditors != nullptr)
                    hooks.auditors->push_back(a.get());
                return a;
            });
    }
}

} // namespace

void
OutputConfig::validate() const
{
    auto require = [](bool ok, const char* field, const char* detail) {
        if (!ok)
            throw guard::ConfigError(field, detail);
    };
    require(traceEventsPath.empty()
                ? traceStartCycle == 0 && traceCycles == 0
                : true,
            "output.traceStartCycle",
            "trace window flags require --trace-events");
    auto distinct = [&](const std::string& a, const std::string& b,
                        const char* field) {
        require(a.empty() || b.empty() || a != b, field,
                "output paths must be distinct files");
    };
    distinct(resultsJsonPath, statsJsonPath, "output.statsJsonPath");
    distinct(resultsJsonPath, traceEventsPath, "output.traceEventsPath");
    distinct(statsJsonPath, traceEventsPath, "output.traceEventsPath");
}

void
SimConfig::validate() const
{
    auto require = [](bool ok, const char* field, const char* detail) {
        if (!ok)
            throw guard::ConfigError(field, detail);
    };
    require(frontend.fetchWidth >= 1 &&
                frontend.fetchWidth <= bpu::kMaxFetchWidth,
            "frontend.fetchWidth", "must be in [1, 8]");
    require(frontend.fetchBufferInsts >= frontend.fetchWidth,
            "frontend.fetchBufferInsts",
            "must hold at least one fetch packet");
    // The sizing fields below each size an allocation; the caps keep
    // an untrusted document from asking for gigabytes.
    require(frontend.rasEntries >= 1 && frontend.rasEntries <= 4096,
            "frontend.rasEntries", "must be in [1, 4096]");
    require(backend.coreWidth >= 1, "backend.coreWidth", "must be >= 1");
    require(backend.robEntries >= 1 && backend.robEntries <= 4096,
            "backend.robEntries", "must be in [1, 4096]");
    require(maxInsts >= 1, "maxInsts", "must be >= 1");
    require(maxCycles >= 1, "maxCycles", "must be >= 1");
    require(deadlockCycles >= 1, "deadlockCycles",
            "must be >= 1 (the watchdog cannot be disabled; raise it "
            "instead)");
    require(faultRate >= 0.0 && faultRate <= 1.0, "faultRate",
            "must be a probability in [0, 1]");
    const struct
    {
        const char* name;
        const core::CacheParams& p;
    } levels[] = {{"caches.l1i", caches.l1i},
                  {"caches.l1d", caches.l1d},
                  {"caches.l2", caches.l2},
                  {"caches.l3", caches.l3}};
    for (const auto& [name, p] : levels) {
        const auto check = [&](bool ok, const char* field,
                               const char* detail) {
            if (!ok)
                throw guard::ConfigError(std::string(name) + "." + field,
                                         detail);
        };
        check(p.ways >= 1, "ways", "must be >= 1");
        check(isPow2(p.lineBytes), "lineBytes", "must be a power of two");
        check(p.sizeBytes <= core::kMaxCacheBytes, "sizeBytes",
              "must be at most 64 MiB");
        const std::uint64_t setBytes =
            std::uint64_t{p.ways} * p.lineBytes;
        check(p.sizeBytes % setBytes == 0 &&
                  isPow2(p.sizeBytes / setBytes),
              "sizeBytes",
              "must be ways x lineBytes x a power-of-two set count");
    }
    output.validate();
    bpu.validate();
}

Simulator::Simulator(const prog::Program& program, bpu::Topology topo,
                     const SimConfig& cfg)
    : cfg_(cfg), program_(program)
{
    cfg_.validate();

    faults_ = std::make_unique<guard::FaultEngine>(cfg_.faultRate,
                                                   cfg_.faultSeed);
    // One wrapping path for every construction route (presets, spec
    // files, search candidates): the fault injector innermost and the
    // contract auditor outermost.
    applyGuardWrappers(topo,
                       GuardHooks{cfg_.audit, faults_.get(), &auditors_});

    oracle_ = std::make_unique<exec::Oracle>(program, cfg.oracleSeed);
    if (cfg_.replayTrace) {
        trace::validateReplayMeta(cfg_.replayTrace->meta, program,
                                  cfg_.oracleSeed,
                                  cfg_.warmupInsts + cfg_.maxInsts);
        replayCursor_ =
            std::make_unique<trace::TraceCursor>(cfg_.replayTrace);
        oracle_->bindCfSource(replayCursor_.get());
    }
    caches_ = std::make_unique<core::CacheHierarchy>(cfg.caches);
    bpu_ = std::make_unique<bpu::BranchPredictorUnit>(std::move(topo),
                                                      cfg.bpu);
    frontend_ = std::make_unique<core::Frontend>(program, *oracle_, *bpu_,
                                                 *caches_, cfg.frontend);
    backend_ = std::make_unique<core::Backend>(*oracle_, *bpu_, *frontend_,
                                               *caches_, cfg.backend);

    // ---- CobraScope: the unified stat registry ------------------------
    registry_.add(frontend_->stats());
    registry_.add(backend_->stats());
    registry_.add(bpu_->stats());
    for (const auto& att : bpu_->predictor().attribution())
        registry_.add(att->group);
    registry_.add("caches.l1i", caches_->l1i().stats());
    registry_.add("caches.l1d", caches_->l1d().stats());
    registry_.add("caches.l2", caches_->l2().stats());
    registry_.add("caches.l3", caches_->l3().stats());
    registry_.add(faults_->stats());

    if (cfg_.output.tracing()) {
        tracer_ = std::make_unique<scope::Tracer>(
            scope::TraceWindow{cfg_.output.traceStartCycle,
                               cfg_.output.traceCycles});
        std::vector<std::string> names;
        for (const auto* c : bpu_->predictor().components())
            names.push_back(c->name());
        tracer_->setComponentNames(std::move(names));
        tracer_->setCycle(now_);
        frontend_->setTracer(tracer_.get());
        backend_->setTracer(tracer_.get());
        bpu_->setTracer(tracer_.get());
    }
}

void
Simulator::tickOnce()
{
    if (tracer_ != nullptr)
        tracer_->setCycle(now_);
    frontend_->tick(now_);
    backend_->tick(now_);
    bpu_->tick();
    ++now_;
    ++ticked_;
}

void
Simulator::step(Cycle limit)
{
    Cycle wake = frontend_->wakeCycle(now_);
    if (wake > now_)
        wake = bpu_->idle() ? std::min(wake, backend_->wakeCycle(now_))
                            : now_;
    // Never past the cycle on which the watchdog fires, so stalled()
    // fires on the same cycle as when every cycle ticks.
    const Cycle headroom = kNever - lastProgressCycle_;
    const Cycle fires = cfg_.deadlockCycles < headroom
                            ? lastProgressCycle_ + cfg_.deadlockCycles + 1
                            : kNever;
    wake = std::min({wake, limit, fires});
    if (wake <= now_) {
        tickOnce();
        return;
    }
    // No unit can act before wake: each skipped tick would only bump
    // the same stall counters.
    const std::uint64_t n = wake - now_;
    frontend_->creditIdle(now_, n);
    backend_->creditIdle(n);
    now_ = wake;
}

Simulator::Snapshot
Simulator::snapshot() const
{
    Snapshot s;
    s.insts = backend_->committedInsts();
    s.branches = backend_->committedBranches();
    s.cfis = backend_->committedCfis();
    s.condMisp = backend_->condMispredicts();
    s.jalrMisp = backend_->jalrMispredicts();
    s.cycles = now_;
    return s;
}

guard::PostMortem
Simulator::buildPostMortem(std::uint64_t since_progress) const
{
    guard::PostMortem pm;
    pm.cycle = now_;
    pm.noProgressCycles = since_progress;
    pm.deadlockThreshold = cfg_.deadlockCycles;
    pm.committedInsts = backend_->committedInsts();

    const core::Backend::RobHeadView head = backend_->robHead();
    pm.robEntries = backend_->robSize();
    pm.robHeadValid = head.valid;
    pm.robHeadPc = head.pc;
    pm.robHeadSeq = head.seq;
    pm.robHeadState = head.state;
    pm.robHeadWrongPath = head.wrongPath;
    pm.robHeadFtq = head.ftq;

    pm.fetchPc = frontend_->fetchPc();
    pm.onOraclePath = frontend_->onOraclePath();
    pm.fetchBufferInsts = frontend_->bufferSize();
    for (const auto& p : frontend_->inFlightPackets())
        pm.fetchPackets.push_back({p.pc, p.stage, p.stallUntil});
    for (const auto& r : frontend_->recentRedirects())
        pm.recentRedirects.push_back({r.pc, r.cycle});

    pm.historyFileSize = bpu_->historyFile().size();
    pm.historyFileCapacity = bpu_->historyFile().capacity();
    pm.repairWalkBusy = bpu_->walkBusy();
    return pm;
}

void
Simulator::finishResult(SimResult& r, bool deadlocked,
                        std::uint64_t since_progress) const
{
    r.faultsInjected = faults_->faultsInjected();
    r.updatesDropped = faults_->droppedUpdates();
    for (const auto* a : auditors_)
        r.auditChecks += a->checks();
    if (deadlocked) {
        r.deadlocked = true;
        r.postMortem = buildPostMortem(since_progress);
        r.diagnostics = r.postMortem.format();
    }
}

bool
Simulator::stalled()
{
    if (backend_->committedInsts() != lastProgress_) {
        lastProgress_ = backend_->committedInsts();
        lastProgressCycle_ = now_;
        return false;
    }
    return now_ - lastProgressCycle_ > cfg_.deadlockCycles;
}

SimResult
Simulator::measuredResult(bool deadlocked)
{
    SimResult r;
    const Snapshot end = snapshot();
    r.cycles = end.cycles - base_.cycles;
    r.insts = end.insts - base_.insts;
    r.condBranches = end.branches - base_.branches;
    r.cfis = end.cfis - base_.cfis;
    r.condMispredicts = end.condMisp - base_.condMisp;
    r.jalrMispredicts = end.jalrMisp - base_.jalrMisp;
    r.sfbConversions = backend_->sfbConversions();
    r.ghistReplays = frontend_->stats().get("ghist_replays");
    r.packetsKilled = frontend_->stats().get("packets_killed");
    finishResult(r, deadlocked, now_ - lastProgressCycle_);
    return r;
}

SimResult
Simulator::run()
{
    advanceTo(std::numeric_limits<Cycle>::max());
    return finishRun();
}

bool
Simulator::advanceTo(Cycle stop_cycle)
{
    if (!runStateValid_) {
        lastProgress_ = backend_->committedInsts();
        lastProgressCycle_ = now_;
        runStateValid_ = true;
    }

    const Cycle limit = std::min<Cycle>(cfg_.maxCycles, stop_cycle);

    // ---- Warmup ---------------------------------------------------------
    while (!baseCaptured_ &&
           backend_->committedInsts() < cfg_.warmupInsts &&
           now_ < limit) {
        step(limit);
        if (stalled())
            return false;
    }
    // Capture the measurement base at the warmup loop's own exit
    // condition, never at a stop_cycle pause.
    if (!baseCaptured_ &&
        (backend_->committedInsts() >= cfg_.warmupInsts ||
         now_ >= cfg_.maxCycles)) {
        base_ = snapshot();
        baseCaptured_ = true;
    }
    if (!baseCaptured_)
        return true;

    // ---- Measured region -------------------------------------------------
    const std::uint64_t target = cfg_.warmupInsts + cfg_.maxInsts;
    while (backend_->committedInsts() < target && now_ < limit) {
        step(limit);
        if (stalled())
            return false;
    }
    return backend_->committedInsts() < target && now_ < cfg_.maxCycles;
}

SimResult
Simulator::finishRun()
{
    if (!baseCaptured_) {
        // advanceTo() stops before capturing the measurement base only
        // on a warmup stall: report it with zero metrics rather than
        // spinning to maxCycles.
        SimResult r;
        finishResult(r, true, now_ - lastProgressCycle_);
        return r;
    }
    // The run deadlocked iff the budget was not reached and the
    // watchdog's last check fired (what stalled() returned on the
    // final tick), even when that tick was also the maxCycles one.
    const std::uint64_t target = cfg_.warmupInsts + cfg_.maxInsts;
    const bool deadlocked =
        backend_->committedInsts() < target &&
        now_ - lastProgressCycle_ > cfg_.deadlockCycles;
    return measuredResult(deadlocked);
}

SimResult
Simulator::runInterval(std::uint64_t warmup_cycles,
                       std::uint64_t measure_insts)
{
    SimResult r;
    lastProgress_ = backend_->committedInsts();
    lastProgressCycle_ = now_;
    runStateValid_ = true;

    // ---- Detailed warmup (cycle-denominated, discarded) -----------------
    const Cycle warmupEnd = std::min<Cycle>(now_ + warmup_cycles,
                                            cfg_.maxCycles);
    while (now_ < warmupEnd) {
        step(warmupEnd);
        if (stalled()) {
            finishResult(r, true, now_ - lastProgressCycle_);
            return r;
        }
    }
    base_ = snapshot();
    baseCaptured_ = true;

    // ---- Measured sample -------------------------------------------------
    bool deadlocked = false;
    const std::uint64_t target = base_.insts + measure_insts;
    while (backend_->committedInsts() < target && now_ < cfg_.maxCycles) {
        step(cfg_.maxCycles);
        if (stalled()) {
            deadlocked = true;
            break;
        }
    }
    return measuredResult(deadlocked);
}

void
Simulator::saveStats(warp::StateWriter& w) const
{
    w.section("stats");
    w.u64(registry_.nodes().size());
    for (const scope::StatRegistry::Node& n : registry_.nodes()) {
        w.str(n.path);
        w.u64(n.group->entries().size());
        for (const StatGroup::Entry& e : n.group->entries()) {
            if (e.counter != nullptr) {
                w.u8(0);
                w.u64(e.counter->value());
            } else {
                w.u8(1);
                std::vector<std::uint64_t> buckets;
                buckets.reserve(e.histogram->numBuckets());
                for (std::size_t i = 0; i < e.histogram->numBuckets();
                     ++i)
                    buckets.push_back(e.histogram->bucket(i));
                w.vecU(buckets);
                w.u64(e.histogram->samples());
                w.u64(e.histogram->sum());
            }
        }
    }
}

void
Simulator::restoreStats(warp::StateReader& r)
{
    r.section("stats");
    if (r.u64() != registry_.nodes().size())
        r.fail("stat-group count does not match this configuration");
    for (const scope::StatRegistry::Node& n : registry_.nodes()) {
        if (r.str() != n.path)
            r.fail("stat group order diverges at '" + n.path + "'");
        if (r.u64() != n.group->entries().size())
            r.fail("stat count differs in group '" + n.path + "'");
        for (const StatGroup::Entry& e : n.group->entries()) {
            const std::uint8_t kind = r.u8();
            if (e.counter != nullptr) {
                if (kind != 0)
                    r.fail("expected a counter in group '" + n.path +
                           "'");
                e.counter->set(r.u64());
            } else {
                if (kind != 1)
                    r.fail("expected a histogram in group '" + n.path +
                           "'");
                const std::vector<std::uint64_t> buckets =
                    r.vecU<std::uint64_t>();
                const std::uint64_t samples = r.u64();
                const std::uint64_t sum = r.u64();
                if (buckets.size() != e.histogram->numBuckets())
                    r.fail("histogram bucket count differs in group '" +
                           n.path + "'");
                e.histogram->setState(buckets, samples, sum);
            }
        }
    }
}

void
Simulator::requireQuiesced(const char* where) const
{
    std::string why;
    if (now_ != 0)
        why = "it has run " + std::to_string(now_) + " detailed cycles";
    else if (!bpu_->historyFile().empty())
        why = "its history file holds " +
              std::to_string(bpu_->historyFile().size()) +
              " in-flight predictions";
    else if (bpu_->walkBusy())
        why = "its predictor has a repair walk queued";
    if (!why.empty()) {
        throw guard::CheckpointError(
            where, "the simulator is not quiesced: " + why +
                       " (a checkpoint holds only the state fastForward "
                       "leaves: no detailed cycle run, nothing in "
                       "flight)");
    }
}

void
Simulator::saveState(warp::StateWriter& w) const
{
    requireQuiesced("capture");
    w.section("oracle");
    oracle_->saveState(w);
    w.section("caches");
    caches_->saveState(w);
    bpu_->saveState(w); // Writes its own "bpu" section.
    w.section("ras");
    frontend_->ras().saveState(w);
    w.section("faults");
    faults_->saveState(w);
    saveStats(w);
}

void
Simulator::restoreState(warp::StateReader& r)
{
    requireQuiesced("restore");
    r.section("oracle");
    oracle_->restoreState(r);
    frontend_->resetFetchToOracle();
    r.section("caches");
    caches_->restoreState(r);
    bpu_->restoreState(r); // Verifies its own "bpu" section.
    r.section("ras");
    frontend_->ras().restoreState(r);
    r.section("faults");
    faults_->restoreState(r);
    restoreStats(r);
}

std::uint64_t
Simulator::stateFingerprint() const
{
    // Serialize the restore-relevant configuration through the same
    // byte layer and hash it: a checkpoint produced under a different
    // program image, composition, or core geometry must not restore.
    warp::StateWriter w;
    w.u64(program_.size());
    w.u64(program_.base());
    w.u64(program_.entry());
    w.u64(cfg_.oracleSeed);
    w.u32(cfg_.frontend.fetchWidth);
    w.u32(cfg_.frontend.fetchBufferInsts);
    w.u32(cfg_.frontend.rasEntries);
    w.u8(static_cast<std::uint8_t>(cfg_.bpu.ghistMode));
    w.boolean(cfg_.frontend.serializeFetch);
    w.u32(cfg_.backend.coreWidth);
    w.u32(cfg_.backend.robEntries);
    w.boolean(cfg_.backend.sfbEnabled);
    w.boolean(cfg_.audit);
    w.f64(cfg_.faultRate);
    for (const auto* c : bpu_->predictor().components()) {
        w.str(c->name());
        w.u64(c->storageBits());
    }
    return warp::fnv1a(w.bytes().data(), w.bytes().size());
}

} // namespace cobra::sim
