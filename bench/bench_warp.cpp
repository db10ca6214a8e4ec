/**
 * @file
 * Warp-mode acceptance benchmark (docs/PERFORMANCE.md "Warp mode").
 * One long run — mcf on B2, >= 50M simulated cycles at full scale —
 * is simulated twice: a full detailed reference, then warp mode with
 * the documented default operating point (16 intervals, 25k-inst
 * midpoint samples, 20k-cycle detailed warmup). The harness reports
 * wall-clock speedup and the IPC / branch-MPKI estimation error with
 * the estimator's own 95% CI half-widths, and shape-checks the
 * acceptance envelope:
 *
 *   speedup >= 4x, |IPC error| <= 1%, |MPKI error| <= 2%.
 *
 * COBRA_FAST=1 shrinks the run for CI smoke; wall-clock at that scale
 * is noise, so only (looser) error bounds are checked there.
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "warp/warp.hpp"

using namespace cobra;

namespace {

using Clock = std::chrono::steady_clock;

double
pct(double got, double want)
{
    return want != 0.0 ? 100.0 * (got - want) / want : 0.0;
}

} // namespace

int
main()
{
    const bool fast = [] {
        const char* f = std::getenv("COBRA_FAST");
        return f != nullptr && f[0] == '1';
    }();

    prog::WorkloadCache cache;
    const prog::Program& prog = cache.get("mcf");

    sim::SimConfig cfg = sim::makeConfig(sim::Design::B2);
    cfg.warmupInsts = fast ? 10'000 : 50'000;
    cfg.maxInsts = fast ? 1'000'000 : 15'000'000;
    cfg.maxCycles = 400'000'000;

    warp::WarpConfig w;
    w.intervals = fast ? 8 : 16;
    w.sampleInsts = 25'000;
    w.warmupCycles = fast ? 10'000 : 20'000;

    std::cout << "warp-mode acceptance: mcf on B2, " << cfg.maxInsts
              << " measured insts (" << (fast ? "FAST" : "full")
              << " scale)\n"
              << "warp point: K=" << w.intervals << ", sample "
              << w.sampleInsts << " insts, warmup " << w.warmupCycles
              << " cycles\n\n";

    // ---- Full detailed reference --------------------------------------
    const auto t0 = Clock::now();
    sim::Simulator full(prog, sim::buildTopology(sim::Design::B2),
                        cfg);
    const sim::SimResult ref = full.run();
    const double fullWall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // ---- Warp run ------------------------------------------------------
    const auto t1 = Clock::now();
    const warp::WarpEstimate est = warp::runWarp(
        prog, [] { return sim::buildTopology(sim::Design::B2); }, cfg,
        w);
    const double warpWall =
        std::chrono::duration<double>(Clock::now() - t1).count();

    const double ipcErr = pct(est.ipc, ref.ipc());
    const double mpkiErr = pct(est.mpki, ref.mpki());
    const double speedup = warpWall > 0.0 ? fullWall / warpWall : 0.0;

    TextTable t;
    t.addRow({"", "full detailed", "warp", "error"});
    t.addRow({"IPC", formatDouble(ref.ipc(), 4),
              formatDouble(est.ipc, 4) + " +/- " +
                  formatDouble(est.ipcCi95, 4),
              formatDouble(ipcErr, 2) + "%"});
    t.addRow({"branch MPKI", formatDouble(ref.mpki(), 4),
              formatDouble(est.mpki, 4) + " +/- " +
                  formatDouble(est.mpkiCi95, 4),
              formatDouble(mpkiErr, 2) + "%"});
    t.addRow({"cycles", std::to_string(ref.cycles),
              std::to_string(est.estimate.cycles),
              formatDouble(pct(static_cast<double>(est.estimate.cycles),
                               static_cast<double>(ref.cycles)),
                           2) +
                  "%"});
    t.addRow({"wall seconds", formatDouble(fullWall, 2),
              formatDouble(warpWall, 2),
              formatDouble(speedup, 1) + "x speedup"});
    t.print(std::cout);
    std::cout << "\nwarp work split: " << est.ffInsts
              << " insts fast-forwarded, " << est.detailedInsts
              << " detailed (" << est.detailedCycles << " cycles, "
              << est.warmupCycles << " warmup)\n\n";

    bool ok = true;
    if (fast) {
        // CI smoke: the sample is too small for the full envelope and
        // single-digit-second wall clocks are scheduler noise.
        ok &= bench::shapeCheck("|IPC error| <= 5% (FAST smoke bound)",
                                std::fabs(ipcErr) <= 5.0);
        ok &= bench::shapeCheck(
            "|MPKI error| <= 10% (FAST smoke bound)",
            std::fabs(mpkiErr) <= 10.0);
    } else {
        ok &= bench::shapeCheck("reference run spans >= 50M cycles",
                                ref.cycles >= 50'000'000);
        ok &= bench::shapeCheck("warp wall-clock speedup >= 4x",
                                speedup >= 4.0);
        ok &= bench::shapeCheck("|IPC error| <= 1%",
                                std::fabs(ipcErr) <= 1.0);
        ok &= bench::shapeCheck("|MPKI error| <= 2%",
                                std::fabs(mpkiErr) <= 2.0);
    }

    try {
        std::filesystem::create_directories("bench_results");
        std::ofstream j("bench_results/bench_warp.json");
        j << "{\n  \"bench\": \"warp\",\n"
          << "  \"shape_ok\": " << (ok ? "true" : "false") << ",\n"
          << "  \"fast\": " << (fast ? "true" : "false") << ",\n"
          << "  \"loop\": \"" << full.loopVariant() << "\",\n"
          << "  \"workload\": \"mcf\",\n  \"design\": \"B2\",\n"
          << "  \"warmup_insts\": " << cfg.warmupInsts << ",\n"
          << "  \"measure_insts\": " << cfg.maxInsts << ",\n"
          << "  \"intervals\": " << w.intervals << ",\n"
          << "  \"sample_insts\": " << w.sampleInsts << ",\n"
          << "  \"warmup_cycles\": " << w.warmupCycles << ",\n"
          << "  \"full\": { \"ipc\": " << ref.ipc()
          << ", \"mpki\": " << ref.mpki()
          << ", \"cycles\": " << ref.cycles
          << ", \"wall_seconds\": " << fullWall << " },\n"
          << "  \"warp\": { \"ipc\": " << est.ipc
          << ", \"ipc_ci95\": " << est.ipcCi95
          << ", \"mpki\": " << est.mpki
          << ", \"mpki_ci95\": " << est.mpkiCi95
          << ", \"est_cycles\": " << est.estimate.cycles
          << ", \"ff_insts\": " << est.ffInsts
          << ", \"detailed_insts\": " << est.detailedInsts
          << ", \"detailed_cycles\": " << est.detailedCycles
          << ", \"wall_seconds\": " << warpWall << " },\n"
          << "  \"ipc_err_pct\": " << ipcErr << ",\n"
          << "  \"mpki_err_pct\": " << mpkiErr << ",\n"
          << "  \"speedup\": " << speedup << "\n}\n";
    } catch (const std::exception& e) {
        std::cerr << "[bench] JSON emit failed: " << e.what() << "\n";
    }

    return ok ? 0 : 1;
}
