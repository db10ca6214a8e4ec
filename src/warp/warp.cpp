#include "warp/warp.hpp"

#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "guard/errors.hpp"
#include "warp/fastforward.hpp"
#include "warp/snapshot.hpp"

namespace cobra::warp {

void
WarpConfig::validate() const
{
    auto require = [](bool ok, const char* field, const char* detail) {
        if (!ok)
            throw guard::ConfigError(field, detail);
    };
    require(intervals >= 1, "warp.intervals", "must be >= 1");
    require(warmupCycles >= 1, "warp.warmupCycles",
            "must be >= 1 (the restored pipeline is empty and needs "
            "to refill)");
}

namespace {

/** One job's working state, carried from phase to phase. */
struct JobRun
{
    /** Interval runs get no per-point CobraScope output. */
    sim::SimConfig runCfg;
    WarpEstimate est;
    std::vector<std::shared_ptr<Snapshot>> snaps;
    /** Per-interval cycle count, warmup included. */
    std::vector<std::uint64_t> totalCycles;
    /** Sweep index of the job's first interval point. */
    std::size_t firstPoint = 0;
};

/**
 * Phase 1, the job's serial part: interval placement, the warm-cache
 * probe, and on a miss the fast-forward pass that captures one
 * checkpoint per interval.
 */
void
prepare(const WarpJob& job, JobRun& run)
{
    const sim::SimConfig& cfg = job.cfg;
    const WarpConfig& wcfg = job.wcfg;
    wcfg.validate();
    if (job.program == nullptr || !job.topology)
        throw std::invalid_argument("WarpJob without a program or "
                                    "topology");
    if (cfg.maxInsts < wcfg.intervals) {
        throw guard::ConfigError(
            "warp.intervals", "exceeds the instruction budget: fewer "
                              "instructions than intervals");
    }

    // Interval runs drive their own measurement; per-point CobraScope
    // output would only interleave K partial documents.
    run.runCfg = cfg;
    run.runCfg.output = sim::OutputConfig{};

    const unsigned K = wcfg.intervals;
    const std::uint64_t perInterval = cfg.maxInsts / K;

    WarpEstimate& est = run.est;
    est.intervals.resize(K);
    for (unsigned i = 0; i < K; ++i) {
        WarpInterval& iv = est.intervals[i];
        iv.startInst = cfg.warmupInsts + i * perInterval;
        iv.lengthInsts = i + 1 == K
                             ? cfg.maxInsts - (K - 1) * perInterval
                             : perInterval;
        iv.sampledInsts = wcfg.sampleInsts == 0
                              ? iv.lengthInsts
                              : std::min(wcfg.sampleInsts,
                                         iv.lengthInsts);
        // Sample the interval's midpoint, not its start: predictors
        // keep learning over the run, so MPKI drifts downward within
        // an interval and a start-of-interval sample extrapolated to
        // the whole interval overestimates it. Centering the sample
        // cancels the first-order trend (SMARTS samples mid-interval
        // for the same reason).
        iv.sampleStart =
            iv.startInst + (iv.lengthInsts - iv.sampledInsts) / 2;
    }

    // The fast-forward master; on a warm hit it only supplies the
    // fingerprint every cached snapshot must match.
    sim::Simulator master(*job.program, job.topology(), run.runCfg);

    // ---- Warm-state cache probe (all-or-nothing) ----------------------
    std::vector<std::shared_ptr<Snapshot>>& snaps = run.snaps;
    snaps.resize(K);
    bool warm = false;
    if (wcfg.snapshotLookup) {
        // A mismatched or misplaced entry is a miss (regenerate),
        // never trusted.
        const std::uint64_t fp = master.stateFingerprint();
        warm = true;
        for (unsigned i = 0; i < K && warm; ++i) {
            auto snap = std::make_shared<Snapshot>();
            warm = wcfg.snapshotLookup(i, *snap) &&
                   snap->fingerprint == fp &&
                   snap->insts == est.intervals[i].sampleStart;
            snaps[i] = std::move(snap);
        }
    }
    if (warm) {
        est.warmHits = K;
        return;
    }

    // ---- Serial fast-forward pass: one checkpoint per interval --------
    std::uint64_t ffAt = 0;
    for (unsigned i = 0; i < K; ++i) {
        const std::uint64_t start = est.intervals[i].sampleStart;
        fastForward(master, start - ffAt);
        ffAt = start;
        snaps[i] = std::make_shared<Snapshot>(captureSnapshot(master));
        // Stamp the snapshot with its architectural placement so the
        // warm-probe position check above can match it on a later run.
        snaps[i]->insts = start;
        if (wcfg.snapshotStore)
            wcfg.snapshotStore(i, *snaps[i]);
    }
    est.ffInsts = ffAt;
    if (!wcfg.checkpointDir.empty()) {
        std::filesystem::create_directories(wcfg.checkpointDir);
        for (unsigned i = 0; i < K; ++i) {
            writeSnapshotFile(*snaps[i], wcfg.checkpointDir +
                                             "/interval-" +
                                             std::to_string(i) + ".warp");
        }
    }
}

/** Phase 2: queue the job's interval points on the shared pool. */
void
addIntervals(const WarpJob& job, JobRun& run, sim::SweepEngine& engine)
{
    const unsigned K = job.wcfg.intervals;
    run.firstPoint = engine.pending();
    run.totalCycles.assign(K, 0);
    for (unsigned i = 0; i < K; ++i) {
        sim::SweepPoint p;
        p.label = "warp/interval-" + std::to_string(i);
        p.topology = job.topology;
        p.program = job.program;
        p.cfg = run.runCfg;
        const std::uint64_t warmup = job.wcfg.warmupCycles;
        const std::uint64_t sample = run.est.intervals[i].sampledInsts;
        std::uint64_t* cyclesOut = &run.totalCycles[i];
        // The last interval's registry (whose checkpoint carried the
        // stats of the whole warmed prefix) doubles as the stats tree
        // of the warp point; render it while the simulator is alive.
        std::string* groupsOut =
            i + 1 == K ? &run.est.groupsJson : nullptr;
        // The point owns the checkpoint from here and drops it once
        // restored, so a batch's memory shrinks as intervals start.
        p.execute = [snap = std::move(run.snaps[i]), warmup, sample,
                     cyclesOut, groupsOut](sim::Simulator& s) mutable {
            restoreSnapshot(s, *snap);
            snap.reset();
            const sim::SimResult r = s.runInterval(warmup, sample);
            *cyclesOut = s.cycles();
            if (groupsOut != nullptr) {
                std::ostringstream os;
                s.statRegistry().writeJson(os, 6);
                *groupsOut = os.str();
            }
            return r;
        };
        engine.add(std::move(p));
    }
}

/** Phase 3: stitch the job's interval samples into its estimate. */
WarpEstimate
stitch(const WarpJob& job, JobRun& run,
       const std::vector<sim::SweepOutcome>& outcomes)
{
    const sim::SimConfig& cfg = job.cfg;
    const unsigned K = job.wcfg.intervals;
    WarpEstimate& est = run.est;
    std::vector<double> ipcs, mpkis;
    double estCycles = 0.0;
    double mpkiWeighted = 0.0;
    for (unsigned i = 0; i < K; ++i) {
        const sim::SweepOutcome& o = outcomes[run.firstPoint + i];
        if (!o.ok()) {
            throw guard::SimError("warp interval " + std::to_string(i) +
                                  " failed: " + o.error);
        }
        if (o.result.deadlocked) {
            throw guard::SimError("warp interval " + std::to_string(i) +
                                  " deadlocked:\n" +
                                  o.result.diagnostics);
        }
        if (o.result.insts == 0 || o.result.cycles == 0) {
            throw guard::SimError("warp interval " + std::to_string(i) +
                                  " measured no instructions (warmup "
                                  "consumed the cycle budget?)");
        }
        WarpInterval& iv = est.intervals[i];
        iv.result = o.result;
        iv.ipc = o.result.ipc();
        iv.mpki = o.result.mpki();
        ipcs.push_back(iv.ipc);
        mpkis.push_back(iv.mpki);
        estCycles += static_cast<double>(iv.lengthInsts) / iv.ipc;
        mpkiWeighted += static_cast<double>(iv.lengthInsts) * iv.mpki;

        // Extrapolate the sample's event counts to the interval it
        // represents; guard counters stay raw sums (they describe the
        // simulated work actually performed, not the estimate).
        const double scale = static_cast<double>(iv.lengthInsts) /
                             static_cast<double>(o.result.insts);
        auto scaled = [scale](std::uint64_t n) {
            return static_cast<std::uint64_t>(
                std::llround(static_cast<double>(n) * scale));
        };
        est.estimate.condBranches += scaled(o.result.condBranches);
        est.estimate.cfis += scaled(o.result.cfis);
        est.estimate.condMispredicts +=
            scaled(o.result.condMispredicts);
        est.estimate.jalrMispredicts +=
            scaled(o.result.jalrMispredicts);
        est.estimate.sfbConversions += scaled(o.result.sfbConversions);
        est.estimate.ghistReplays += scaled(o.result.ghistReplays);
        est.estimate.packetsKilled += scaled(o.result.packetsKilled);
        est.estimate.faultsInjected += o.result.faultsInjected;
        est.estimate.updatesDropped += o.result.updatesDropped;
        est.estimate.auditChecks += o.result.auditChecks;

        est.detailedInsts += o.result.insts;
        est.detailedCycles += run.totalCycles[i];
        est.detailedTicks += o.host.tickedCycles;
        est.warmupCycles += run.totalCycles[i] - o.result.cycles;
    }

    est.ipc = static_cast<double>(cfg.maxInsts) / estCycles;
    est.mpki = mpkiWeighted / static_cast<double>(cfg.maxInsts);
    est.estimate.insts = cfg.maxInsts;
    est.estimate.cycles =
        static_cast<std::uint64_t>(std::llround(estCycles));

    // 95% CI half-widths from the interval-to-interval variance of
    // the per-interval rates (systematic sampling, K samples).
    auto ci95 = [K](const std::vector<double>& xs) {
        if (K < 2)
            return 0.0;
        double mean = 0.0;
        for (double x : xs)
            mean += x;
        mean /= static_cast<double>(xs.size());
        double var = 0.0;
        for (double x : xs)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(xs.size() - 1);
        return 1.96 * std::sqrt(var / static_cast<double>(xs.size()));
    };
    est.ipcCi95 = ci95(ipcs);
    est.mpkiCi95 = ci95(mpkis);
    est.ipcRelErr = est.ipc > 0.0 ? est.ipcCi95 / est.ipc : 0.0;
    return std::move(est);
}

} // namespace

std::vector<WarpOutcome>
runWarps(const std::vector<WarpJob>& batch, unsigned jobs)
{
    sim::SweepEngine engine(jobs);
    std::vector<WarpOutcome> out(batch.size());
    std::vector<JobRun> runs(batch.size());

    // Phase 1: every job's serial part at once, one task per job.
    engine.runTasks(batch.size(), [&](std::size_t j) {
        try {
            prepare(batch[j], runs[j]);
        } catch (...) {
            out[j].exception = std::current_exception();
        }
    });

    // Phase 2: the intervals of every prepared job on the same pool.
    bool progress = false;
    for (std::size_t j = 0; j < batch.size(); ++j) {
        if (out[j].exception)
            continue;
        addIntervals(batch[j], runs[j], engine);
        progress = progress || batch[j].wcfg.progress;
    }
    engine.setProgress(progress);
    const std::vector<sim::SweepOutcome> outcomes = engine.run();

    // Phase 3: each job's estimate, in submission order.
    for (std::size_t j = 0; j < batch.size(); ++j) {
        if (out[j].exception)
            continue;
        try {
            out[j].estimate = stitch(batch[j], runs[j], outcomes);
        } catch (...) {
            out[j].exception = std::current_exception();
        }
    }
    return out;
}

std::string
statsGroupsJson(const WarpEstimate& est)
{
    auto ppm = [](double rel) {
        return static_cast<std::uint64_t>(
            std::llround(std::max(0.0, rel) * 1e6));
    };
    const double mpkiRel =
        est.mpki > 0.0 ? est.mpkiCi95 / est.mpki : 0.0;
    std::ostringstream os;
    os << "{\n        \"warp\": {\n          \"counters\": {\n"
       << "            \"intervals\": " << est.intervals.size()
       << ",\n"
       << "            \"ff_insts\": " << est.ffInsts << ",\n"
       << "            \"warm_hits\": " << est.warmHits << ",\n"
       << "            \"detailed_insts\": " << est.detailedInsts
       << ",\n"
       << "            \"detailed_cycles\": " << est.detailedCycles
       << ",\n"
       << "            \"warmup_cycles\": " << est.warmupCycles
       << ",\n"
       << "            \"measured_cycles\": "
       << est.detailedCycles - est.warmupCycles << ",\n"
       << "            \"estimated_cycles\": " << est.estimate.cycles
       << ",\n"
       << "            \"ipc_ci95_ppm\": " << ppm(est.ipcRelErr)
       << ",\n"
       << "            \"mpki_ci95_ppm\": " << ppm(mpkiRel) << "\n"
       << "          }\n        },\n";
    if (est.groupsJson.size() > 2 && est.groupsJson[0] == '{') {
        // Splice the registry tree's members after our warp group:
        // StatRegistry::writeJson always opens with "{\n".
        os << est.groupsJson.substr(2);
    } else {
        os << "      }";
    }
    return os.str();
}

} // namespace cobra::warp
