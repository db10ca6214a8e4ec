/**
 * @file
 * Trace-replay throughput harness (PR 8 regression gate). Three
 * checks on the paper tuples (TAGE-L/leela, Tournament/x264, B2/gcc):
 *
 *  1. Bit identity: the replay-mode SimResult of every point must
 *     equal the execute-mode result — replay is only interesting if
 *     it is a perfect stand-in for execution.
 *
 *  2. Shared decode: loading the same capture for every replica of a
 *     point must decode the file exactly once per workload
 *     (prog::WorkloadCache content-addressed cache), not once per run.
 *
 *  3. Throughput: replay kcycles/s vs execute kcycles/s on the same
 *     host in the same run. Replay skips the oracle's PRNG decode
 *     (~3.5% of execute-mode runtime, see docs/PERFORMANCE.md), so
 *     the geomean ratio must stay >= 0.9 — replay regressing well
 *     below execute speed means the replay hot path broke.
 *
 * JSON side-cars (for tools/check_perf_regression.py, unchanged):
 *   bench_results/bench_trace_replay.json    replay points + speedups
 *   bench_results/BASELINE_trace_replay.json execute points (the
 *                                            same-run denominator)
 *
 * Gate: python3 tools/check_perf_regression.py \
 *         --fresh bench_results/bench_trace_replay.json \
 *         --baseline bench_results/BASELINE_trace_replay.json \
 *         --committed <committed bench_trace_replay.json>
 *
 * Override the repetition count with COBRA_THROUGHPUT_REPS.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "trace/replay.hpp"

using namespace cobra;

namespace {

struct Point
{
    sim::Design design;
    const char* wl;
};

/** Same tuples as bench_host_throughput, so the numbers line up. */
constexpr Point kPoints[] = {
    {sim::Design::TageL, "leela"},
    {sim::Design::Tourney, "x264"},
    {sim::Design::B2, "gcc"},
};
constexpr std::uint64_t kWarmup = 10'000;
constexpr std::uint64_t kMeasure = 150'000;

sim::SweepPoint
makePoint(const Point& p, prog::WorkloadCache& cache)
{
    sim::SweepPoint pt =
        sim::SweepPoint::preset(p.design, cache.get(p.wl));
    pt.cfg.warmupInsts = kWarmup;
    pt.cfg.maxInsts = kMeasure;
    return pt;
}

} // namespace

int
main()
{
    bool ok = true;
    prog::WorkloadCache cache;

    const unsigned reps = bench::throughputReps(5);

    const std::filesystem::path scratch =
        std::filesystem::temp_directory_path() /
        ("cobra_bench_trace_replay." + std::to_string(::getpid()));
    std::filesystem::create_directories(scratch);

    // ---- Capture one trace per workload -------------------------------
    std::cout << "trace replay vs execute (single thread, best of "
              << reps << ", loop only, " << kMeasure << " insts)\n\n";
    std::vector<std::string> tracePaths;
    double captureWall = 0.0;
    for (const Point& p : kPoints) {
        const std::string path =
            (scratch / (std::string(p.wl) + ".cbtr")).string();
        const auto t0 = std::chrono::steady_clock::now();
        trace::captureTrace(cache.get(p.wl), path, kWarmup + kMeasure);
        const auto t1 = std::chrono::steady_clock::now();
        captureWall += std::chrono::duration<double>(t1 - t0).count();
        tracePaths.push_back(path);
    }

    // ---- Execute-mode reference ---------------------------------------
    sim::SweepEngine execEngine(1);
    for (const Point& p : kPoints)
        for (unsigned r = 0; r < reps; ++r)
            execEngine.add(makePoint(p, cache));
    const auto execOuts = execEngine.run();

    // ---- Replay mode ---------------------------------------------------
    // getTrace is called once per replica on purpose: the decode-once
    // evidence below is the cache absorbing reps x points lookups.
    sim::SweepEngine replayEngine(1);
    for (std::size_t pi = 0; pi < std::size(kPoints); ++pi)
        for (unsigned r = 0; r < reps; ++r) {
            sim::SweepPoint pt = makePoint(kPoints[pi], cache);
            pt.cfg.replayTrace = cache.getTrace(tracePaths[pi]);
            replayEngine.add(std::move(pt));
        }
    const auto replayOuts = replayEngine.run();

    // ---- Compare --------------------------------------------------------
    TextTable t;
    t.addRow({"point", "replay kc/s", "execute kc/s", "ratio"});
    double logSum = 0.0;
    bool identical = true;
    std::ostringstream pointsJson;
    std::ostringstream baselineJson;
    for (std::size_t pi = 0; pi < std::size(kPoints); ++pi) {
        double bestExec = 0.0;
        double bestReplay = 0.0;
        for (unsigned r = 0; r < reps; ++r) {
            const auto& eo = execOuts.at(pi * reps + r);
            const auto& ro = replayOuts.at(pi * reps + r);
            if (!eo.ok() || !ro.ok()) {
                std::cerr << "point failed: "
                          << (eo.ok() ? ro.error : eo.error) << "\n";
                return 1;
            }
            identical &= eo.result == ro.result;
            bestExec = std::max(bestExec, eo.host.kiloCyclesPerSec());
            bestReplay =
                std::max(bestReplay, ro.host.kiloCyclesPerSec());
        }
        const std::string label = execOuts.at(pi * reps).label;
        const double speedup = bestExec > 0.0 ? bestReplay / bestExec : 0.0;
        logSum += std::log(speedup);
        t.addRow({label, formatDouble(bestReplay, 1),
                  formatDouble(bestExec, 1),
                  formatDouble(speedup, 2) + "x"});
        if (pi != 0) {
            pointsJson << ",\n";
            baselineJson << ",\n";
        }
        pointsJson << "    { \"label\": \"" << sim::jsonEscape(label)
                   << "\", \"kilocycles_per_sec\": " << bestReplay
                   << ", \"baseline_kilocycles_per_sec\": " << bestExec
                   << ", \"speedup\": " << speedup << " }";
        baselineJson << "    { \"label\": \"" << sim::jsonEscape(label)
                     << "\", \"kilocycles_per_sec\": " << bestExec
                     << " }";
    }
    t.print(std::cout);

    const double geomean = std::exp(logSum / std::size(kPoints));
    const std::uint64_t decodes = cache.traceDecodes();
    const std::uint64_t replayRuns = std::size(kPoints) * reps;
    std::cout << "\ncapture: " << formatDouble(captureWall, 2)
              << " s for " << std::size(kPoints) << " workloads\n"
              << "replay geomean vs execute: "
              << formatDouble(geomean, 2) << "x\n"
              << "trace decodes: " << decodes << " for " << replayRuns
              << " replay runs (content-addressed cache)\n\n";

    ok &= bench::shapeCheck(
        "replay results bit-identical to execute on every point",
        identical);
    ok &= bench::shapeCheck(
        "decode amortized to once per workload (" +
            std::to_string(decodes) + " decodes, " +
            std::to_string(replayRuns) + " runs)",
        decodes == std::size(kPoints));
    ok &= bench::shapeCheck("replay geomean throughput >= 0.9x execute",
                            geomean >= 0.9);

    // ---- JSON report ---------------------------------------------------
    try {
        std::filesystem::create_directories("bench_results");
        std::ofstream j("bench_results/bench_trace_replay.json");
        j << "{\n  \"bench\": \"trace_replay\",\n"
          << "  \"shape_ok\": " << (ok ? "true" : "false") << ",\n"
          << "  \"reps\": " << reps << ",\n"
          << "  \"warmup_insts\": " << kWarmup << ",\n"
          << "  \"measure_insts\": " << kMeasure << ",\n"
          << "  \"geomean_speedup\": " << geomean << ",\n"
          << "  \"trace_decodes\": " << decodes << ",\n"
          << "  \"replay_runs\": " << replayRuns << ",\n"
          << "  \"capture_wall_seconds\": " << captureWall << ",\n"
          << "  \"points\": [\n"
          << pointsJson.str() << "\n  ]\n}\n";
        std::ofstream b("bench_results/BASELINE_trace_replay.json");
        b << "{\n  \"bench\": \"trace_replay_baseline\",\n"
          << "  \"note\": \"execute-mode kcycles/s from the same run "
          << "as bench_trace_replay.json; the denominator "
          << "check_perf_regression.py divides by\",\n"
          << "  \"points\": [\n"
          << baselineJson.str() << "\n  ]\n}\n";
    } catch (const std::exception& e) {
        std::cerr << "[bench] JSON emit failed: " << e.what() << "\n";
    }

    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
    return ok ? 0 : 1;
}
