/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses. Every
 * simulating harness queues its (design, workload, config) points on a
 * bench::Sweep, which runs them through the sim::SweepEngine thread
 * pool (--jobs via COBRA_JOBS) and emits a machine-readable copy of
 * the results to bench_results/<name>.json next to the text tables.
 */

#ifndef COBRA_BENCH_BENCH_UTIL_HPP
#define COBRA_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace cobra::bench {

/** Standard measurement lengths (override with COBRA_FAST=1). */
struct RunScale
{
    std::uint64_t warmup = 120'000;
    std::uint64_t measure = 400'000;

    static RunScale
    fromEnv()
    {
        RunScale s;
        const char* fast = std::getenv("COBRA_FAST");
        if (fast != nullptr && fast[0] == '1') {
            s.warmup = 20'000;
            s.measure = 60'000;
        }
        return s;
    }
};

/** Largest repetition count throughputReps() accepts. */
inline constexpr unsigned kMaxThroughputReps = 1000;

/**
 * Repetition count for the throughput harnesses: COBRA_THROUGHPUT_REPS
 * when set, else @p fallback. Anything but a whole number in
 * [1, kMaxThroughputReps] exits 2 with a message naming the variable,
 * so "-1" cannot wrap to 4294967295 repetitions and "abc" cannot
 * silently read as 1.
 */
inline unsigned
throughputReps(unsigned fallback)
{
    const char* env = std::getenv("COBRA_THROUGHPUT_REPS");
    if (env == nullptr)
        return fallback;
    const std::string text(env);
    unsigned long n = 0;
    if (!text.empty() && text.size() <= 9 &&
        text.find_first_not_of("0123456789") == std::string::npos)
        n = std::stoul(text);
    if (n < 1 || n > kMaxThroughputReps) {
        std::cerr << "COBRA_THROUGHPUT_REPS: '" << text
                  << "' is not a repetition count in [1, "
                  << kMaxThroughputReps << "]\n";
        std::exit(2);
    }
    return static_cast<unsigned>(n);
}

/** Print a PASS/FAIL shape check (the reproduction criterion). */
inline bool
shapeCheck(const std::string& what, bool ok)
{
    std::cout << (ok ? "  [SHAPE PASS] " : "  [SHAPE FAIL] ") << what
              << "\n";
    return ok;
}

/**
 * Harness-side front end to the SweepEngine: queue points (presets or
 * custom topologies), run them in parallel, read results back by the
 * submission handle, and finish() with a JSON dump of every point.
 *
 * Handles stay valid across multiple run() batches, so a harness can
 * interleave queue/run/print phases and still get one merged JSON
 * report at the end.
 */
class Sweep
{
  public:
    explicit Sweep(std::string name, unsigned jobs = 0)
        : name_(std::move(name)), engine_(jobs),
          scale_(RunScale::fromEnv())
    {
    }

    const RunScale& scale() const { return scale_; }
    unsigned jobs() const { return engine_.jobs(); }

    /** Build-or-fetch a workload Program (shared across points). */
    const prog::Program&
    workload(const std::string& name)
    {
        return cache_.get(name);
    }

    /** Queue a preset design on a library workload. */
    std::size_t
    add(sim::Design d, const std::string& wl)
    {
        return add(d, wl, [](sim::SimConfig&) {});
    }

    /** Queue a preset design with a config tweak. */
    template <typename Tweak>
    std::size_t
    add(sim::Design d, const std::string& wl, Tweak&& tweak)
    {
        sim::SweepPoint p = sim::SweepPoint::preset(d, cache_.get(wl));
        applyScale(p.cfg);
        tweak(p.cfg);
        return enqueue(std::move(p));
    }

    /**
     * Queue a custom topology. @p topo is a factory invoked on the
     * worker that runs the point; @p cfgBase picks the SimConfig
     * preset the tweak starts from.
     */
    template <typename Factory, typename Tweak>
    std::size_t
    add(std::string label, const std::string& wl, Factory&& topo,
        sim::Design cfgBase, Tweak&& tweak)
    {
        sim::SweepPoint p;
        p.label = std::move(label);
        p.topology = std::forward<Factory>(topo);
        p.program = &cache_.get(wl);
        p.cfg = sim::makeConfig(cfgBase);
        applyScale(p.cfg);
        tweak(p.cfg);
        return enqueue(std::move(p));
    }

    template <typename Factory>
    std::size_t
    add(std::string label, const std::string& wl, Factory&& topo,
        sim::Design cfgBase)
    {
        return add(std::move(label), wl, std::forward<Factory>(topo),
                   cfgBase, [](sim::SimConfig&) {});
    }

    /**
     * Queue a prepared point, such as one whose execute hook reads the
     * live Simulator, at this harness's run scale.
     */
    std::size_t
    add(sim::SweepPoint p)
    {
        applyScale(p.cfg);
        return enqueue(std::move(p));
    }

    /** Run every queued point; previously-run handles stay valid. */
    void
    run()
    {
        for (auto& o : engine_.run())
            outcomes_.push_back(std::move(o));
    }

    /** SimResult for a handle; throws if that point failed. */
    const sim::SimResult&
    res(std::size_t h) const
    {
        const sim::SweepOutcome& o = outcomes_.at(h);
        if (!o.ok())
            throw std::runtime_error("sweep point '" + o.label +
                                     "' failed: " + o.error);
        return o.result;
    }

    const sim::SweepOutcome&
    outcome(std::size_t h) const
    {
        return outcomes_.at(h);
    }

    /**
     * Write bench_results/<name>.json and print a one-line host
     * throughput summary; returns the process exit code for @p ok.
     */
    int
    finish(bool ok)
    {
        try {
            std::filesystem::create_directories("bench_results");
            std::ostringstream extra;
            extra << "\"shape_ok\": " << (ok ? "true" : "false")
                  << ",\n  \"warmup_insts\": " << scale_.warmup
                  << ",\n  \"measure_insts\": " << scale_.measure;
            sim::writeSweepJson("bench_results/" + name_ + ".json",
                                name_, outcomes_, engine_.jobs(),
                                extra.str());
            if (const char* p = std::getenv("COBRA_STATS_JSON"))
                sim::writeStatsJson(p, name_, outcomes_,
                                    engine_.jobs());
        } catch (const std::exception& e) {
            std::cerr << "[bench] JSON emit failed: " << e.what()
                      << "\n";
        }
        double wall = 0.0;
        std::uint64_t cycles = 0;
        for (const auto& o : outcomes_) {
            wall += o.host.wallSeconds;
            cycles += o.host.simCycles;
        }
        std::cerr << "[bench] " << name_ << ": " << outcomes_.size()
                  << " points, jobs=" << engine_.jobs() << ", "
                  << formatDouble(wall, 2) << " s simulating, "
                  << formatDouble(
                         wall > 0 ? static_cast<double>(cycles) / 1e3 /
                                        wall
                                  : 0.0,
                         1)
                  << " kilocycles/s aggregate\n";
        return ok ? 0 : 1;
    }

  private:
    void
    applyScale(sim::SimConfig& cfg) const
    {
        cfg.warmupInsts = scale_.warmup;
        cfg.maxInsts = scale_.measure;
        // COBRA_STATS_JSON=PATH: harness runs additionally emit the
        // full CobraScope stat hierarchy (used by the CI smoke job).
        if (const char* p = std::getenv("COBRA_STATS_JSON"))
            cfg.output.statsJsonPath = p;
    }

    std::size_t
    enqueue(sim::SweepPoint p)
    {
        return outcomes_.size() + engine_.add(std::move(p));
    }

    std::string name_;
    sim::SweepEngine engine_;
    RunScale scale_;
    prog::WorkloadCache cache_;
    std::vector<sim::SweepOutcome> outcomes_;
};

} // namespace cobra::bench

#endif // COBRA_BENCH_BENCH_UTIL_HPP
