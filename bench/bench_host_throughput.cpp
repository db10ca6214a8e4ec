/**
 * @file
 * Host-throughput regression harness. Two checks:
 *
 *  1. Single-thread cycle-loop throughput (kilocycles of simulated
 *     time per wall second, loop only — setup excluded) on three
 *     representative points, best-of-N, compared against the committed
 *     pre-optimisation baseline in
 *     bench_results/BASELINE_host_throughput.json. The hot-path work
 *     (ROB ring, wakeup-and-select scheduler, cached stat counters,
 *     allocation-free predictor path) must hold a >= 2x geomean
 *     speedup over that baseline.
 *
 *  2. Parallel sweep scaling: a 15-point grid at --jobs 4 vs --jobs 1.
 *     Requires real cores; SKIPped (not failed) on hosts with fewer
 *     than two, so the check is honest rather than noise.
 *
 * Override the baseline location with COBRA_BASELINE_JSON and the
 * repetition count with COBRA_THROUGHPUT_REPS.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"

using namespace cobra;

namespace {

struct Point
{
    sim::Design design;
    const char* wl;
};

/** Must match the points recorded in the baseline JSON. */
constexpr Point kPoints[] = {
    {sim::Design::TageL, "leela"},
    {sim::Design::Tourney, "x264"},
    {sim::Design::B2, "gcc"},
};
constexpr std::uint64_t kWarmup = 10'000;
constexpr std::uint64_t kMeasure = 150'000;

/** Pull "kilocycles_per_sec" for @p label out of the baseline JSON. */
double
baselineKcps(const std::string& doc, const std::string& label)
{
    const std::size_t at = doc.find("\"label\": \"" + label + "\"");
    if (at == std::string::npos)
        return 0.0;
    const std::string key = "\"kilocycles_per_sec\": ";
    const std::size_t k = doc.find(key, at);
    if (k == std::string::npos)
        return 0.0;
    return std::strtod(doc.c_str() + k + key.size(), nullptr);
}

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

    // ---- 1. Single-thread loop throughput vs committed baseline -------
    std::string baselinePath;
    if (const char* env = std::getenv("COBRA_BASELINE_JSON"))
        baselinePath = env;
    else
        baselinePath = std::string(COBRA_SOURCE_DIR) +
                       "/bench_results/BASELINE_host_throughput.json";

    std::string baselineDoc;
    {
        std::ifstream f(baselinePath);
        if (f.good()) {
            std::stringstream ss;
            ss << f.rdbuf();
            baselineDoc = ss.str();
        }
    }

    std::cout << "host throughput (single thread, best of " << reps
              << ", loop only, " << kMeasure << " insts)\n\n";
    TextTable t;
    t.addRow({"point", "kcycles/s", "baseline", "speedup"});

    // Queue reps copies of each point on a serial engine; the host
    // counters time each point's cycle loop only.
    sim::SweepEngine engine(1);
    for (const Point& p : kPoints)
        for (unsigned r = 0; r < reps; ++r)
            engine.add(makePoint(p, cache));
    const auto outs = engine.run();

    double logSum = 0.0;
    unsigned compared = 0;
    std::ostringstream pointsJson;
    for (std::size_t pi = 0; pi < std::size(kPoints); ++pi) {
        double best = 0.0;
        for (unsigned r = 0; r < reps; ++r) {
            const sim::SweepOutcome& o = outs.at(pi * reps + r);
            if (!o.ok()) {
                std::cerr << "point failed: " << o.error << "\n";
                return 1;
            }
            best = std::max(best, o.host.kiloCyclesPerSec());
        }
        const std::string label = outs.at(pi * reps).label;
        const double base = baselineKcps(baselineDoc, label);
        const double speedup = base > 0.0 ? best / base : 0.0;
        if (base > 0.0) {
            logSum += std::log(speedup);
            ++compared;
        }
        t.addRow({label, formatDouble(best, 1),
                  base > 0.0 ? formatDouble(base, 1) : "n/a",
                  base > 0.0 ? formatDouble(speedup, 2) + "x" : "n/a"});
        if (pi != 0)
            pointsJson << ",\n";
        pointsJson << "    { \"label\": \"" << sim::jsonEscape(label)
                   << "\", \"kilocycles_per_sec\": " << best
                   << ", \"baseline_kilocycles_per_sec\": " << base
                   << ", \"speedup\": " << speedup << " }";
    }
    t.print(std::cout);
    std::cout << "\n";

    double geomean = 0.0;
    if (compared == std::size(kPoints)) {
        geomean = std::exp(logSum / compared);
        std::cout << "geomean speedup vs baseline: "
                  << formatDouble(geomean, 2) << "x\n";
        ok &= bench::shapeCheck(
            "cycle-loop throughput >= 2x the committed baseline",
            geomean >= 2.0);
    } else {
        std::cout << "  [SHAPE SKIP] baseline not found at "
                  << baselinePath << " — recording only\n";
    }

    // ---- 2. Parallel sweep scaling ------------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    double serialWall = 0.0;
    double parWall = 0.0;
    double scaling = 0.0;
    if (hw < 2) {
        std::cout << "\n  [SHAPE SKIP] parallel scaling: host reports "
                  << hw << " hardware thread(s); a --jobs 4 speedup "
                  << "measurement would be noise\n";
    } else {
        const char* wls[] = {"leela", "x264", "gcc", "mcf", "xz"};
        const sim::Design designs[] = {
            sim::Design::TageL, sim::Design::Tourney, sim::Design::B2};
        const auto grid = [&](unsigned jobs) {
            sim::SweepEngine e(jobs);
            for (const char* wl : wls)
                for (sim::Design d : designs) {
                    sim::SweepPoint pt =
                        sim::SweepPoint::preset(d, cache.get(wl));
                    pt.cfg.warmupInsts = kWarmup;
                    pt.cfg.maxInsts = kMeasure;
                    e.add(std::move(pt));
                }
            const auto t0 = std::chrono::steady_clock::now();
            e.run();
            const auto t1 = std::chrono::steady_clock::now();
            return std::chrono::duration<double>(t1 - t0).count();
        };
        serialWall = grid(1);
        parWall = grid(4);
        scaling = parWall > 0.0 ? serialWall / parWall : 0.0;
        std::cout << "\n15-point sweep: jobs=1 "
                  << formatDouble(serialWall, 2) << " s, jobs=4 "
                  << formatDouble(parWall, 2) << " s, speedup "
                  << formatDouble(scaling, 2) << "x\n";
        // Full 3x target only where four real cores exist.
        const double target = hw >= 4 ? 3.0 : 1.2;
        ok &= bench::shapeCheck(
            "15-point sweep --jobs 4 speedup >= " +
                formatDouble(target, 1) + "x",
            scaling >= target);
    }

    // ---- JSON report ---------------------------------------------------
    try {
        std::filesystem::create_directories("bench_results");
        std::ofstream j("bench_results/bench_host_throughput.json");
        j << "{\n  \"bench\": \"host_throughput\",\n"
          << "  \"shape_ok\": " << (ok ? "true" : "false") << ",\n"
          << "  \"reps\": " << reps << ",\n"
          << "  \"warmup_insts\": " << kWarmup << ",\n"
          << "  \"measure_insts\": " << kMeasure << ",\n"
          << "  \"geomean_speedup\": " << geomean << ",\n"
          << "  \"hardware_threads\": " << hw << ",\n"
          << "  \"sweep_serial_seconds\": " << serialWall << ",\n"
          << "  \"sweep_jobs4_seconds\": " << parWall << ",\n"
          << "  \"sweep_scaling\": " << scaling << ",\n"
          << "  \"points\": [\n"
          << pointsJson.str() << "\n  ]\n}\n";
    } catch (const std::exception& e) {
        std::cerr << "[bench] JSON emit failed: " << e.what() << "\n";
    }

    return ok ? 0 : 1;
}
