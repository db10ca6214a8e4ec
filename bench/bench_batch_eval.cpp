/**
 * @file
 * Batch trace-evaluation harness. The search tiers' functional metric
 * is a §II-B trace walk per candidate; trace::BatchTraceEvaluator runs
 * each candidate as one lane (one TraceDrivenEvaluator over the whole
 * shared trace) and each lane as one SweepEngine task. Three checks:
 *
 *  1. Bit identity: every lane's TraceResult must equal a hand loop's
 *     solo TraceDrivenEvaluator walk of the same design
 *     (tests/test_batch_eval.cpp covers the full matrix; this
 *     re-checks at bench scale).
 *
 *  2. One-worker ratio: the pool helper at jobs=1 vs that hand loop,
 *     measured in the same run. Both walk the trace once per
 *     candidate with the same evaluator, so the helper adds only task
 *     dispatch. The ratio is host-independent, so it is the committed
 *     tier-0/1 measurement of the helper's dispatch cost; the gate
 *     asserts the helper is never a tax.
 *
 *  3. Pool scaling: the same candidate set on the pool at
 *     jobs = min(hardware, 16). Lanes are independent, so this is
 *     plain task parallelism; the >= 3x target is gated where >= 16
 *     hardware threads exist and reduced/SKIPped on smaller hosts
 *     (same policy as bench_host_throughput's parallel-scaling leg —
 *     a pool speedup measured without real cores is noise, not
 *     signal).
 *
 * JSON side-cars (for tools/check_perf_regression.py, unchanged;
 * "kilocycles_per_sec" carries kilo-branch-evals/s here):
 *   bench_results/bench_batch_eval.json    pool-helper points + ratios
 *   bench_results/BASELINE_batch_eval.json hand-loop points (the
 *                                          same-run denominator)
 *
 * Gate: python3 tools/check_perf_regression.py \
 *         --fresh bench_results/bench_batch_eval.json \
 *         --baseline bench_results/BASELINE_batch_eval.json \
 *         --committed <committed bench_batch_eval.json>
 *
 * Override the repetition count with COBRA_THROUGHPUT_REPS.
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
#include "search/space.hpp"
#include "sim/presets.hpp"
#include "sim/sweep.hpp"
#include "trace/batch_eval.hpp"
#include "trace/trace.hpp"

using namespace cobra;

namespace {

struct Point
{
    const char* wl;
    unsigned lanes;
};

/** The tier-0 shape: one shared trace, many candidate designs. */
constexpr Point kPoints[] = {
    {"mcf", 16},
    {"leela", 16},
    {"mcf", 8},
};
constexpr unsigned kMaxLanes = 16;

/**
 * The candidate set the search driver would evaluate: the four
 * paper-preset anchors plus seeded SearchSpace samples — fixed seed,
 * so every run (and every host) measures the same designs.
 */
std::vector<sim::DesignSpec>
makeLaneSpecs()
{
    std::vector<sim::DesignSpec> specs;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig})
        specs.push_back(sim::presetSpec(d));
    search::SearchSpace space(0xC0B7A);
    while (specs.size() < kMaxLanes)
        specs.push_back(space.sample());
    return specs;
}

std::vector<trace::TraceResult>
handLoop(const trace::DecodedTrace& tr, std::size_t warmup,
         const std::vector<sim::DesignSpec>& specs, unsigned lanes)
{
    // The search tier without the helper: a fresh evaluator
    // per candidate, one full trace walk each, on the calling thread.
    std::vector<trace::TraceResult> res;
    for (unsigned k = 0; k < lanes; ++k) {
        const sim::DesignSpec& spec = specs[k];
        bpu::ComposedPredictor pred(sim::buildTopology(spec),
                                    spec.fetchWidth);
        trace::TraceDrivenEvaluator ev(std::move(pred),
                                       spec.bpu.ghistBits,
                                       spec.bpu.lhistBits);
        res.push_back(ev.evaluate(tr, warmup));
    }
    return res;
}

std::vector<trace::BatchLaneResult>
poolRun(const trace::DecodedTrace& tr, std::size_t warmup,
        const std::vector<sim::DesignSpec>& specs, unsigned lanes,
        unsigned jobs)
{
    trace::BatchTraceEvaluator be(jobs);
    for (unsigned k = 0; k < lanes; ++k) {
        const sim::DesignSpec* spec = &specs[k];
        trace::BatchLane lane;
        lane.label = spec->name;
        lane.predictor = [spec] {
            return bpu::ComposedPredictor(sim::buildTopology(*spec),
                                          spec->fetchWidth);
        };
        lane.ghistBits = spec->bpu.ghistBits;
        lane.lhistBits = spec->bpu.lhistBits;
        be.addLane(std::move(lane));
    }
    return be.evaluate(tr, warmup);
}

} // namespace

int
main()
{
    bool ok = true;
    prog::WorkloadCache cache;

    const bool fast = [] {
        const char* f = std::getenv("COBRA_FAST");
        return f != nullptr && f[0] == '1';
    }();
    const std::size_t branches = fast ? 20'000 : 60'000;
    const std::size_t warmup = fast ? 5'000 : 15'000;
    const unsigned reps = bench::throughputReps(3);

    const std::vector<sim::DesignSpec> specs = makeLaneSpecs();

    std::cout << "pool helper vs hand loop functional evaluation (one "
                 "worker, best of "
              << reps << ", " << branches << " branches, warmup "
              << warmup << ")\n\n";

    TextTable t;
    t.addRow({"point", "helper kbe/s", "hand-loop kbe/s", "ratio"});
    double logSum = 0.0;
    bool identical = true;
    std::ostringstream pointsJson;
    std::ostringstream baselineJson;
    for (std::size_t pi = 0; pi < std::size(kPoints); ++pi) {
        const Point& p = kPoints[pi];
        const trace::DecodedTrace tr =
            trace::recordTrace(cache.get(p.wl), branches);

        double loopWall = 1e300;
        double helperWall = 1e300;
        std::vector<trace::TraceResult> sres;
        std::vector<trace::BatchLaneResult> bres;
        for (unsigned r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            sres = handLoop(tr, warmup, specs, p.lanes);
            auto t1 = std::chrono::steady_clock::now();
            loopWall = std::min(
                loopWall,
                std::chrono::duration<double>(t1 - t0).count());

            t0 = std::chrono::steady_clock::now();
            bres = poolRun(tr, warmup, specs, p.lanes, 1);
            t1 = std::chrono::steady_clock::now();
            helperWall = std::min(
                helperWall,
                std::chrono::duration<double>(t1 - t0).count());
        }

        for (unsigned k = 0; k < p.lanes; ++k) {
            if (!bres[k].ok()) {
                std::cerr << "lane " << bres[k].label
                          << " failed: " << bres[k].error << "\n";
                return 1;
            }
            identical &= bres[k].result.branches == sres[k].branches &&
                         bres[k].result.mispredicts ==
                             sres[k].mispredicts;
        }

        const double evals =
            static_cast<double>(p.lanes) *
            static_cast<double>(tr.size()) / 1000.0;
        const double loopRate = evals / loopWall;
        const double helperRate = evals / helperWall;
        const double speedup = loopWall / helperWall;
        logSum += std::log(speedup);

        const std::string label =
            std::string(p.wl) + "/lanes" + std::to_string(p.lanes);
        t.addRow({label, formatDouble(helperRate, 1),
                  formatDouble(loopRate, 1),
                  formatDouble(speedup, 2) + "x"});
        if (pi != 0) {
            pointsJson << ",\n";
            baselineJson << ",\n";
        }
        pointsJson << "    { \"label\": \"" << sim::jsonEscape(label)
                   << "\", \"lanes\": " << p.lanes
                   << ", \"kilocycles_per_sec\": " << helperRate
                   << ", \"baseline_kilocycles_per_sec\": "
                   << loopRate << ", \"speedup\": " << speedup
                   << " }";
        baselineJson << "    { \"label\": \"" << sim::jsonEscape(label)
                     << "\", \"kilocycles_per_sec\": " << loopRate
                     << " }";
    }
    t.print(std::cout);

    const double geomean = std::exp(
        logSum / static_cast<double>(std::size(kPoints)));
    std::cout << "\npool-helper geomean vs hand loop (one worker): "
              << formatDouble(geomean, 2) << "x\n\n";

    ok &= bench::shapeCheck(
        "pool-helper results bit-identical to the hand loop on every "
        "lane",
        identical);
    // Both sides walk the same trace once per candidate, so one
    // worker can only show the helper's overhead (task dispatch).
    // The gate asserts the helper never *costs* throughput; the
    // wall-clock win is the pool leg.
    ok &= bench::shapeCheck(
        "one-worker pool-helper geomean >= 0.9x hand loop (never a "
        "tax)",
        geomean >= 0.9);

    // ---- Pool scaling --------------------------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned poolJobs = std::min(hw == 0 ? 1u : hw, 16u);
    double poolSpeedup = 0.0;
    if (hw < 2) {
        std::cout << "\n  [SHAPE SKIP] pool scaling: host reports "
                  << hw << " hardware thread(s); the lanes are "
                  << "independent, but a pool speedup measured "
                  << "without real cores is noise\n";
    } else {
        const trace::DecodedTrace tr =
            trace::recordTrace(cache.get("mcf"), branches);
        double loopWall = 1e300;
        double poolWall = 1e300;
        for (unsigned r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            handLoop(tr, warmup, specs, kMaxLanes);
            auto t1 = std::chrono::steady_clock::now();
            loopWall = std::min(
                loopWall,
                std::chrono::duration<double>(t1 - t0).count());

            t0 = std::chrono::steady_clock::now();
            const auto outs =
                poolRun(tr, warmup, specs, kMaxLanes, poolJobs);
            t1 = std::chrono::steady_clock::now();
            poolWall = std::min(
                poolWall,
                std::chrono::duration<double>(t1 - t0).count());
            for (const auto& o : outs)
                identical &= o.ok();
        }
        poolSpeedup = loopWall / poolWall;
        std::cout << "\n16-lane pool: hand loop "
                  << formatDouble(loopWall, 2) << " s, jobs="
                  << poolJobs << " " << formatDouble(poolWall, 2)
                  << " s, speedup " << formatDouble(poolSpeedup, 2)
                  << "x\n";
        // The full >= 3x ISSUE target applies where a >= 16-worker
        // pool exists; smaller real-core hosts gate a scaled-down
        // floor.
        const double target = hw >= 16 ? 3.0 : hw >= 4 ? 2.0 : 1.2;
        ok &= bench::shapeCheck(
            "16-lane pool speedup >= " + formatDouble(target, 1) +
                "x at jobs=" + std::to_string(poolJobs),
            poolSpeedup >= target);
    }

    // ---- JSON report ---------------------------------------------------
    try {
        std::filesystem::create_directories("bench_results");
        std::ofstream j("bench_results/bench_batch_eval.json");
        j << "{\n  \"bench\": \"batch_eval\",\n"
          << "  \"note\": \"kilocycles_per_sec carries kilo-branch-"
          << "evals/s (lanes x trace records / wall) of the pool "
          << "helper on one worker; "
          << "pool_speedup is the jobs=" << poolJobs
          << " wall-clock ratio (0 when the host has no real "
          << "cores)\",\n"
          << "  \"shape_ok\": " << (ok ? "true" : "false") << ",\n"
          << "  \"reps\": " << reps << ",\n"
          << "  \"trace_branches\": " << branches << ",\n"
          << "  \"trace_warmup\": " << warmup << ",\n"
          << "  \"hardware_threads\": " << hw << ",\n"
          << "  \"pool_jobs\": " << poolJobs << ",\n"
          << "  \"pool_speedup\": " << poolSpeedup << ",\n"
          << "  \"geomean_speedup\": " << geomean << ",\n"
          << "  \"points\": [\n"
          << pointsJson.str() << "\n  ]\n}\n";
        std::ofstream b("bench_results/BASELINE_batch_eval.json");
        b << "{\n  \"bench\": \"batch_eval_baseline\",\n"
          << "  \"note\": \"hand-loop per-candidate kilo-branch-evals/s "
          << "from the same run as bench_batch_eval.json; the "
          << "denominator check_perf_regression.py divides by\",\n"
          << "  \"points\": [\n"
          << baselineJson.str() << "\n  ]\n}\n";
    } catch (const std::exception& e) {
        std::cerr << "[bench] JSON emit failed: " << e.what() << "\n";
    }

    return ok ? 0 : 1;
}
