/**
 * @file
 * cobra_sim: command-line driver for the COBRA reproduction — run any
 * (design, workload) grid with the §VI options, print the metrics and
 * optional detailed statistics. --design/--workload accept
 * comma-separated lists; the resulting grid runs on the SweepEngine
 * thread pool (--jobs / COBRA_JOBS), with output always printed in
 * submission order so a parallel run is byte-identical to a serial
 * one.
 *
 * Usage:
 *   cobra_sim [--design NAMES] [--design-spec FILES] [--workload NAMES]
 *             [--insts N]
 *             [--warmup N] [--ghist none|repair|replay] [--sfb]
 *             [--serialize] [--audit] [--inject-faults RATE]
 *             [--fault-seed N] [--deadlock-cycles N] [--jobs N]
 *             [--warp] [--intervals N] [--warmup-cycles N]
 *             [--sample-insts N] [--checkpoint-dir PATH] [--progress]
 *             [--json PATH] [--stats-json PATH] [--trace-events PATH]
 *             [--trace-start N] [--trace-cycles N]
 *             [--stats] [--area] [--list]
 *
 * All output flags funnel into sim::OutputConfig (CobraScope), so
 * their interactions are validated in one place and inconsistent
 * combinations exit 2 like any other usage error.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "common/table.hpp"
#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "sim/core_area.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/replay.hpp"
#include "warp/warp.hpp"

using namespace cobra;
using namespace cobra::cli;

namespace {

/**
 * SIGINT/SIGTERM request a clean interrupt: points already running
 * finish (their results are flushed), unstarted points are skipped,
 * any --json document is still valid (flagged "interrupted": true),
 * and the process exits 130.
 */
std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

void
usage()
{
    std::cout <<
        "cobra_sim — COBRA predictor-composition simulator\n"
        "\n"
        "  --design NAMES       tourney | b2 | tagel | refbig (default tagel);\n"
        "                       comma-separated list runs a sweep\n"
        "  --design-spec FILES  DesignSpec JSON documents (see\n"
        "                       docs/SEARCH.md); comma-separated list.\n"
        "                       Replaces the preset default; combines\n"
        "                       with an explicit --design\n"
        "  --dump-spec NAME     print a preset's DesignSpec JSON and\n"
        "                       exit (the --design-spec input format)\n"
        "  --workload NAMES     SPECint17 proxy / dhrystone / coremark\n"
        "                       (default leela); comma-separated list\n"
        "                       runs a sweep\n"
        "  --insts N            measured instructions (default 400000)\n"
        "  --warmup N           warmup instructions (default 120000)\n"
        "  --ghist MODE         none | repair | replay (default replay)\n"
        "  --sfb                enable short-forwards-branch predication\n"
        "  --serialize          serialize fetch behind branches (§I)\n"
        "  --audit              verify the §III interface contract at\n"
        "                       runtime (throws on violation)\n"
        "  --inject-faults RATE flip predictor state / drop updates with\n"
        "                       per-event probability RATE\n"
        "  --fault-seed N       fault-injection RNG seed (default 0x5EED)\n"
        "  --deadlock-cycles N  watchdog: abort after N cycles without a\n"
        "                       commit (default 100000)\n"
        "  --jobs N             worker threads for grid runs (default:\n"
        "                       COBRA_JOBS, else hardware concurrency)\n"
        "  --warp               time-parallel sampled simulation: cut\n"
        "                       the run into checkpointed intervals and\n"
        "                       estimate whole-run IPC/MPKI with error\n"
        "                       bars from bounded detailed samples\n"
        "  --intervals N        warp: number of intervals (default 4)\n"
        "  --warmup-cycles N    warp: discarded detailed pipeline\n"
        "                       re-warm prefix per interval (default\n"
        "                       10000 cycles)\n"
        "  --sample-insts N     warp: instructions measured in detail\n"
        "                       per interval (default 0 = the whole\n"
        "                       interval)\n"
        "  --checkpoint-dir P   warp: persist per-interval checkpoints\n"
        "                       under P (a grid: P/DESIGN/WORKLOAD)\n"
        "  --progress           report per-point completion to stderr\n"
        "  --json PATH          also write results as JSON to PATH\n"
        "  --stats-json PATH    write the full stat-group hierarchy as\n"
        "                       JSON to PATH (CobraScope)\n"
        "  --trace-events PATH  write pipeline events as a Chrome\n"
        "                       trace-event file (Perfetto-loadable)\n"
        "  --trace-start N      first traced cycle (default 0)\n"
        "  --trace-cycles N     trace window length in cycles\n"
        "                       (default 0 = unbounded)\n"
        "  --capture-trace P    record the workload's committed\n"
        "                       control-flow stream to P (CBTR trace)\n"
        "                       and exit; no detailed simulation runs\n"
        "  --capture-insts N    capture budget in committed\n"
        "                       instructions (default: warmup + insts)\n"
        "  --replay-trace P     drive the oracle from a captured trace\n"
        "                       instead of regenerating outcomes;\n"
        "                       bit-identical to the execute-mode run\n"
        "                       for the same (workload, seed, flags).\n"
        "                       Without --workload the trace's own\n"
        "                       workload is selected\n"
        "  --stats              dump detailed pipeline statistics\n"
        "  --area               print the predictor/core area breakdown\n"
        "  --list               list designs and workloads\n";
}

/** Load and validate one DesignSpec JSON document. */
sim::DesignSpec
loadSpecFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read design spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return sim::DesignSpec::fromJson(text.str());
}

bpu::GhistRepairMode
parseGhist(const std::string& s)
{
    if (const auto mode = bpu::ghistRepairModeFromName(s))
        return *mode;
    throw std::runtime_error("unknown ghist mode: " + s);
}

/** The metric table of a detailed point. */
void
printResult(std::ostream& os, const sim::SimResult& r, bool sfb,
            double fault_rate, bool audit)
{
    TextTable t;
    t.addRow({"metric", "value"});
    auto row = [&t](const std::string& k, const std::string& v) {
        t.beginRow();
        t.cell(k);
        t.cell(v);
    };
    row("instructions", std::to_string(r.insts));
    row("cycles", std::to_string(r.cycles));
    row("IPC", formatDouble(r.ipc(), 3));
    row("cond branches", std::to_string(r.condBranches));
    row("cond mispredicts", std::to_string(r.condMispredicts));
    row("jalr mispredicts", std::to_string(r.jalrMispredicts));
    row("branch MPKI", formatDouble(r.mpki(), 2));
    row("accuracy", formatDouble(100 * r.accuracy(), 2) + "%");
    if (sfb)
        row("SFB conversions", std::to_string(r.sfbConversions));
    if (fault_rate > 0.0) {
        row("faults injected", std::to_string(r.faultsInjected));
        row("updates dropped", std::to_string(r.updatesDropped));
    }
    if (audit)
        row("contract checks", std::to_string(r.auditChecks));
    t.print(os);
}

/** The metric table of a warp point's estimate. */
void
printWarpEstimate(std::ostream& os, const warp::WarpEstimate& est,
                  bool sfb, double fault_rate, bool audit)
{
    TextTable t;
    t.addRow({"metric", "value"});
    auto row = [&t](const std::string& k, const std::string& v) {
        t.beginRow();
        t.cell(k);
        t.cell(v);
    };
    row("instructions", std::to_string(est.estimate.insts));
    row("est cycles", std::to_string(est.estimate.cycles));
    row("est IPC", formatDouble(est.ipc, 3) + " +/- " +
                       formatDouble(est.ipcCi95, 3) + " (95% CI)");
    row("est branch MPKI", formatDouble(est.mpki, 2) + " +/- " +
                               formatDouble(est.mpkiCi95, 2) +
                               " (95% CI)");
    row("accuracy", formatDouble(100 * est.estimate.accuracy(), 2) +
                        "%");
    row("intervals", std::to_string(est.intervals.size()));
    row("ff insts", std::to_string(est.ffInsts));
    row("detailed insts", std::to_string(est.detailedInsts));
    row("detailed cycles",
        std::to_string(est.detailedCycles) + " (warmup " +
            std::to_string(est.warmupCycles) + ")");
    if (sfb)
        row("SFB conversions",
            std::to_string(est.estimate.sfbConversions));
    if (fault_rate > 0.0) {
        row("faults injected",
            std::to_string(est.estimate.faultsInjected));
        row("updates dropped",
            std::to_string(est.estimate.updatesDropped));
    }
    if (audit)
        row("contract checks",
            std::to_string(est.estimate.auditChecks));
    t.print(os);
}

int
runMain(int argc, char** argv)
{
    std::string designArg = "tagel";
    bool designSet = false;
    std::string specArg;
    std::string workloadArg = "leela";
    std::uint64_t insts = 400'000;
    std::uint64_t warmup = 120'000;
    std::uint64_t deadlockCycles = 100'000;
    bpu::GhistRepairMode ghist = bpu::GhistRepairMode::RepairAndReplay;
    bool sfb = false, serialize = false;
    bool audit = false;
    double faultRate = 0.0;
    std::uint64_t faultSeed = 0x5EED;
    unsigned jobs = 0; // 0 = SweepEngine default (COBRA_JOBS / hw)
    bool warpMode = false;
    bool progress = false;
    warp::WarpConfig wcfg;
    sim::OutputConfig out;
    std::string captureTracePath;
    std::uint64_t captureInsts = 0; // 0 = warmup + insts
    std::string replayTracePath;
    bool workloadSet = false;

    std::vector<sim::DesignSpec> designs;
    std::vector<std::string> workloads;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    throw std::runtime_error("missing value for " + a);
                return argv[i];
            };
            if (a == "--design") {
                designArg = next();
                designSet = true;
            }
            else if (a == "--design-spec")
                specArg = next();
            else if (a == "--dump-spec") {
                std::cout << sim::presetSpec(next()).toJson();
                return 0;
            }
            else if (a == "--workload") {
                workloadArg = next();
                workloadSet = true;
            }
            else if (a == "--insts")
                insts = parseU64(a, next());
            else if (a == "--warmup")
                warmup = parseU64(a, next());
            else if (a == "--ghist")
                ghist = parseGhist(next());
            else if (a == "--sfb")
                sfb = true;
            else if (a == "--serialize")
                serialize = true;
            else if (a == "--audit")
                audit = true;
            else if (a == "--inject-faults")
                faultRate = parseDouble(a, next());
            else if (a == "--fault-seed")
                faultSeed = parseU64(a, next());
            else if (a == "--deadlock-cycles")
                deadlockCycles = parseU64(a, next());
            else if (a == "--jobs")
                jobs = parseUnsigned(a, next());
            else if (a == "--warp")
                warpMode = true;
            else if (a == "--intervals")
                wcfg.intervals = parseUnsigned(a, next());
            else if (a == "--warmup-cycles")
                wcfg.warmupCycles = parseU64(a, next());
            else if (a == "--sample-insts")
                wcfg.sampleInsts = parseU64(a, next());
            else if (a == "--checkpoint-dir")
                wcfg.checkpointDir = next();
            else if (a == "--progress")
                progress = true;
            else if (a == "--capture-trace")
                captureTracePath = next();
            else if (a == "--capture-insts")
                captureInsts = parseU64(a, next());
            else if (a == "--replay-trace")
                replayTracePath = next();
            else if (a == "--json")
                out.resultsJsonPath = next();
            else if (a == "--stats-json")
                out.statsJsonPath = next();
            else if (a == "--trace-events")
                out.traceEventsPath = next();
            else if (a == "--trace-start")
                out.traceStartCycle = parseU64(a, next());
            else if (a == "--trace-cycles")
                out.traceCycles = parseU64(a, next());
            else if (a == "--stats")
                out.textStats = true;
            else if (a == "--area")
                out.textArea = true;
            else if (a == "--list") {
                std::cout << "designs: tourney b2 tagel refbig\n"
                          << "workloads:";
                for (const auto& w : prog::WorkloadLibrary::all())
                    std::cout << " " << w;
                std::cout << "\n";
                return 0;
            } else if (a == "--help" || a == "-h") {
                usage();
                return 0;
            } else {
                throw std::runtime_error("unknown option: " + a);
            }
        }
        // Preset names and spec files resolve to the same DesignSpec
        // construction path; --design-spec alone replaces the preset
        // default rather than adding to it.
        if (specArg.empty() || designSet)
            for (const std::string& d : splitList("--design", designArg))
                designs.push_back(sim::presetSpec(d));
        if (!specArg.empty())
            for (const std::string& f : splitList("--design-spec", specArg))
                designs.push_back(loadSpecFile(f));
        workloads = splitList("--workload", workloadArg);
        if (!captureTracePath.empty()) {
            if (!replayTracePath.empty()) {
                throw std::runtime_error(
                    "--capture-trace cannot be combined with "
                    "--replay-trace");
            }
            if (warpMode) {
                throw std::runtime_error(
                    "--capture-trace cannot be combined with --warp "
                    "(capture runs no detailed simulation)");
            }
            if (workloads.size() != 1) {
                throw std::runtime_error(
                    "--capture-trace records exactly one workload");
            }
        }
        if (!replayTracePath.empty() && workloadSet &&
            workloads.size() != 1) {
            throw std::runtime_error(
                "--replay-trace drives a single workload; drop "
                "--workload to use the trace's own");
        }
        out.validate(); // Bad flag combinations are usage errors.
        if (warpMode) {
            if (out.tracing()) {
                throw std::runtime_error(
                    "--warp cannot be combined with --trace-events "
                    "(pipeline traces are not checkpointed)");
            }
            if (out.textStats || out.textArea) {
                throw std::runtime_error(
                    "--warp does not support --stats/--area (interval "
                    "simulators are transient); use --stats-json");
            }
            // Grid points keep their checkpoints under their labels.
            std::set<std::string> labels;
            for (const sim::DesignSpec& d : designs)
                for (const std::string& wl : workloads)
                    if (!labels.insert(d.name + "/" + wl).second &&
                        !wcfg.checkpointDir.empty())
                        throw std::runtime_error("--checkpoint-dir: " +
                                                 d.name + "/" + wl +
                                                 " repeats in the grid");
            wcfg.progress = progress;
            wcfg.validate();
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n\n";
        usage();
        return 2;
    }

    prog::WorkloadCache cache;

    if (!captureTracePath.empty()) {
        // Capture is design-independent: it freezes the committed
        // oracle stream, which only depends on (workload, seed). A
        // malformed path or I/O failure is a structured error
        // (exit 1), not a usage error.
        const prog::Program& program = cache.get(workloads.front());
        const std::uint64_t budget =
            captureInsts != 0 ? captureInsts : warmup + insts;
        const trace::TraceMeta tm =
            trace::captureTrace(program, captureTracePath, budget);
        std::cout << "captured " << tm.recordCount
                  << " control-flow records (" << tm.condCount
                  << " conditional) covering " << tm.sourceInsts
                  << " committed instructions\n"
                  << "workload: " << program.name() << "\n"
                  << "trace:    " << captureTracePath << "\n";
        return 0;
    }

    std::shared_ptr<const trace::DecodedTrace> replayTrace;
    if (!replayTracePath.empty()) {
        // Content-addressed decode: a corrupt/truncated/mismatched
        // file raises guard::CheckpointError here (exit 1).
        replayTrace = cache.getTrace(replayTracePath);
        if (!workloadSet)
            workloads = {replayTrace->meta.name};
    }

    sim::SweepEngine engine(jobs);
    engine.setProgress(progress);
    engine.setStopFlag(&g_interrupted);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::vector<std::string> headers;
    // What each finished point prints under its header, one slot per
    // point so parallel points never share one.
    std::vector<std::string> texts;
    std::vector<sim::SweepOutcome> outcomes;
    std::vector<warp::WarpJob> warpJobs;

    for (const std::string& wl : workloads) {
        const prog::Program& program = cache.get(wl);
        for (const sim::DesignSpec& design : designs) {
            // Describe the topology from a throwaway instance; the
            // point builds its own fresh copy on the worker.
            const bpu::Topology topo = sim::buildTopology(design);
            std::ostringstream hdr;
            hdr << "design:   " << design.name << "  ("
                << topo.describe() << ")\n"
                << "workload: " << program.name() << " ("
                << program.size() << " static insts)\n"
                << "ghist:    " << bpu::ghistRepairModeName(ghist)
                << (sfb ? ", SFB on" : "")
                << (serialize ? ", serialized fetch" : "");
            if (audit)
                hdr << ", contract audit on";
            if (faultRate > 0.0) {
                hdr << ", fault rate " << faultRate << " (seed 0x"
                    << std::hex << faultSeed << std::dec << ")";
            }
            if (warpMode) {
                hdr << "\nwarp:     " << wcfg.intervals
                    << " intervals, sample ";
                if (wcfg.sampleInsts == 0)
                    hdr << "full";
                else
                    hdr << wcfg.sampleInsts << " insts";
                hdr << ", warmup " << wcfg.warmupCycles << " cycles";
            }
            hdr << "\n\n";

            sim::SimConfig cfg = sim::makeConfig(design);
            cfg.maxInsts = insts;
            cfg.warmupInsts = warmup;
            cfg.bpu.ghistMode = ghist;
            cfg.backend.sfbEnabled = sfb;
            cfg.frontend.serializeFetch = serialize;
            cfg.deadlockCycles = deadlockCycles;
            cfg.audit = audit;
            cfg.faultRate = faultRate;
            cfg.faultSeed = faultSeed;
            cfg.output = out;
            // --replay-trace is NOT echoed in the header: a replay
            // run's stdout must `cmp` equal to the execute-mode run it
            // reproduces.
            cfg.replayTrace = replayTrace;
            cfg.validate();

            sim::SweepPoint pt;
            pt.label = design.name + "/" + program.name();
            pt.topology = [design] {
                return sim::buildTopology(design);
            };
            pt.program = &program;
            pt.cfg = cfg;
            const std::size_t idx = texts.size();
            headers.push_back(hdr.str());
            texts.emplace_back();
            if (warpMode) {
                // A grid keeps each point's checkpoints apart.
                warp::WarpConfig w = wcfg;
                if (!w.checkpointDir.empty() &&
                    designs.size() * workloads.size() > 1)
                    w.checkpointDir += "/" + pt.label;
                warpJobs.push_back({pt.program, pt.topology, cfg, w});
                outcomes.emplace_back().label = pt.label;
                continue;
            }
            // Stats/area need the live Simulator, so the worker
            // renders the point's whole text.
            pt.execute = [&, idx, design](sim::Simulator& s) {
                const sim::SimResult r = s.run();
                std::ostringstream os;
                printResult(os, r, sfb, faultRate, audit);
                // A deadlocked run reports its post-mortem instead.
                if (out.textStats && !r.deadlocked) {
                    os << "\n";
                    // The registry covers frontend/backend/bpu, the
                    // per-component attribution, caches, and guard.
                    s.statRegistry().dump(os);
                    if (audit)
                        os << "guard.audit_checks = " << r.auditChecks
                           << "\n";
                }
                if (out.textArea && !r.deadlocked) {
                    os << "\n";
                    const phys::AreaModel model;
                    const auto pr = s.bpu().areaReport(model);
                    os << "predictor area (um^2):\n";
                    for (const auto& item : pr.items)
                        os << "  " << item.name << ": "
                           << formatDouble(item.um2, 0) << "\n";
                    const auto cr = sim::coreAreaReport(design, model);
                    os << "core total: "
                       << formatDouble(cr.total() / 1e6, 3)
                       << " mm^2 (BPU "
                       << formatDouble(100 * pr.total() / cr.total(), 1)
                       << "%)\n";
                }
                texts[idx] = os.str();
                return r;
            };
            engine.add(std::move(pt));
        }
    }

    if (warpMode) {
        // The grid runs as runWarps batches as wide as the pool, so
        // one point's serial fast-forward overlaps the others' while a
        // batch holds at most jobs x K checkpoints. Like the engine,
        // the stop flag is polled between batches; a started batch
        // runs to the end.
        const std::size_t width = engine.jobs();
        for (std::size_t first = 0; first < warpJobs.size();
             first += width) {
            const std::size_t end = std::min(first + width, warpJobs.size());
            if (g_interrupted.load(std::memory_order_relaxed)) {
                for (std::size_t i = first; i < end; ++i) {
                    outcomes[i].error = "interrupted before start";
                    outcomes[i].errorClass = "interrupted";
                }
                continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            const std::vector<warp::WarpOutcome> done = warp::runWarps(
                {warpJobs.begin() + first, warpJobs.begin() + end}, width);
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
            for (std::size_t i = first; i < end; ++i) {
                sim::SweepOutcome& o = outcomes[i];
                o.host.wallSeconds = wall;
                try {
                    const warp::WarpOutcome& w = done[i - first];
                    if (w.exception)
                        std::rethrow_exception(w.exception);
                    const warp::WarpEstimate& est = w.estimate;
                    o.result = est.estimate;
                    o.host.simCycles = est.detailedCycles;
                    o.host.tickedCycles = est.detailedTicks;
                    o.host.simInsts = est.detailedInsts;
                    if (!out.statsJsonPath.empty()) {
                        o.statsJson = sim::renderPointStats(
                            o.label, est.estimate,
                            warp::statsGroupsJson(est));
                    }
                    std::ostringstream os;
                    printWarpEstimate(os, est, sfb, faultRate, audit);
                    texts[i] = os.str();
                } catch (...) {
                    guard::captureCurrentException(o.error,
                                                   o.errorClass);
                }
            }
        }
    } else {
        outcomes = engine.run();
    }

    bool anyFail = false;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const sim::SweepOutcome& o = outcomes[i];
        if (i > 0)
            std::cout << "\n";
        std::cout << headers[i];
        if (!o.ok()) {
            if (o.errorClass == "interrupted") {
                std::cerr << "skipped (interrupted): " << o.label
                          << "\n";
            } else {
                std::cerr << "error: " << o.error << "\n";
                anyFail = true;
            }
            continue;
        }
        std::cout << texts[i];
        if (o.result.deadlocked) {
            std::cerr << "\nerror: run aborted (no commit progress)\n"
                      << o.result.diagnostics;
            anyFail = true;
        }
    }

    const bool interrupted =
        g_interrupted.load(std::memory_order_relaxed);
    if (!out.resultsJsonPath.empty()) {
        std::string extra = warpMode ? "\"mode\": \"warp\"" : "";
        if (interrupted)
            extra += (warpMode ? ",\n  " : "") +
                     std::string("\"interrupted\": true");
        sim::writeSweepJson(out.resultsJsonPath, "cobra_sim", outcomes,
                            engine.jobs(), extra);
    }
    if (!out.statsJsonPath.empty())
        sim::writeStatsJson(out.statsJsonPath, "cobra_sim", outcomes,
                            engine.jobs());
    if (!out.traceEventsPath.empty())
        sim::writeTraceEvents(out.traceEventsPath, outcomes);

    if (interrupted) {
        std::cerr << "interrupted: completed points flushed\n";
        return 130;
    }
    return anyFail ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
