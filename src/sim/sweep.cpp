#include "sim/sweep.hpp"

#include "common/json.hpp"
#include "guard/errors.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>

namespace cobra::sim {

SweepPoint
SweepPoint::preset(Design d, const prog::Program& program)
{
    SweepPoint p;
    p.label = std::string(designName(d)) + "/" + program.name();
    p.topology = [d] { return buildTopology(d); };
    p.program = &program;
    p.cfg = makeConfig(d);
    return p;
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
}

unsigned
SweepEngine::defaultJobs()
{
    if (const char* env = std::getenv("COBRA_JOBS")) {
        // Decimal digits only, so a typo, a sign or an oversized value
        // is an error naming the variable, never a silent 1 or a
        // count wrapped modulo 2^32.
        constexpr unsigned long long kMax =
            std::numeric_limits<unsigned>::max();
        const std::string text(env);
        unsigned long long n = kMax + 1;
        if (!text.empty() && text.size() <= 10 &&
            text.find_first_not_of("0123456789") == std::string::npos)
            n = std::stoull(text);
        if (n > kMax)
            throw guard::ConfigError(
                "COBRA_JOBS", "'" + text +
                                  "' is not a worker count in [0, " +
                                  std::to_string(kMax) + "]");
        return n >= 1 ? static_cast<unsigned>(n) : 1u;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1u;
}

std::size_t
SweepEngine::add(SweepPoint p)
{
    if (!p.topology)
        throw std::invalid_argument("SweepPoint without a topology");
    if (p.program == nullptr)
        throw std::invalid_argument("SweepPoint without a program");
    points_.push_back(std::move(p));
    return points_.size() - 1;
}

SweepOutcome
SweepEngine::runPoint(std::size_t idx, const SweepPoint& pt) const
{
    SweepOutcome out;
    out.label = pt.label;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        Simulator s(*pt.program, pt.topology(), pt.cfg);
        out.result = pt.execute ? pt.execute(s) : s.run();
        out.host.simCycles = s.cycles();
        out.host.simInsts = s.backend().committedInsts();
        out.host.tickedCycles = s.tickedCycles();
        // CobraScope renders on the worker, while the Simulator is
        // alive; the writers later concatenate in submission order.
        if (!pt.cfg.output.statsJsonPath.empty())
            out.statsJson = renderPointStats(pt.label, s, out.result);
        if (s.tracer() != nullptr) {
            std::ostringstream oss;
            s.tracer()->writeChromeTrace(oss, static_cast<unsigned>(idx),
                                         pt.label);
            out.traceEvents = oss.str();
        }
    } catch (...) {
        // A throwing topology factory or execute hook fails only its
        // own point; the worker pool keeps going.
        guard::captureCurrentException(out.error, out.errorClass);
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.host.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return out;
}

std::vector<SweepOutcome>
SweepEngine::run()
{
    std::vector<SweepPoint> points = std::move(points_);
    points_.clear();
    std::vector<SweepOutcome> outcomes(points.size());

    // Progress goes to stderr only (stdout must stay byte-identical
    // with and without it). The counter is shared across workers; the
    // line itself is a single atomic-enough fprintf.
    std::atomic<std::size_t> completed{0};
    auto report = [&](std::size_t idx, const SweepOutcome& o) {
        if (onOutcome_)
            onOutcome_(idx, o);
        if (!progress_)
            return;
        const std::size_t k = completed.fetch_add(1) + 1;
        std::fprintf(stderr, "[%zu/%zu] %s: %.0f kcps%s\n", k,
                     points.size(), o.label.c_str(),
                     o.host.kiloCyclesPerSec(),
                     o.ok() ? "" : " (FAILED)");
    };

    // The stop flag is polled between points, so a point that has
    // started always finishes.
    runTasks(points.size(), [&](std::size_t idx) {
        if (stopped()) {
            outcomes[idx].label = points[idx].label;
            outcomes[idx].error = "interrupted before start";
            outcomes[idx].errorClass = "interrupted";
            return;
        }
        outcomes[idx] = runPoint(idx, points[idx]);
        report(idx, outcomes[idx]);
    });
    return outcomes;
}

void
SweepEngine::runTasks(std::size_t num_tasks,
                      const std::function<void(std::size_t)>& task) const
{
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, num_tasks));

    if (workers <= 1) {
        // Inline serial path: the deterministic reference, and the
        // zero-overhead path for single-point "sweeps" (cobra_sim).
        for (std::size_t i = 0; i < num_tasks; ++i)
            task(i);
        return;
    }

    // One shared counter hands out the indices: every task is a whole
    // simulation, lane or interval, so contention on it is negligible
    // next to the work it hands out.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t t = next.fetch_add(1); t < num_tasks;
             t = next.fetch_add(1))
            task(t);
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);
    for (auto& t : pool)
        t.join();
}

std::string
jsonEscape(const std::string& s)
{
    return cobra::jsonEscape(s);
}

void
writeResultFields(std::ostream& os, const SimResult& r,
                  const std::string& pad, bool trailing_comma)
{
    r.forEachField([&](const char* name, const auto& v) {
        os << pad << "\"" << cobra::jsonKeyFromCamel(name) << "\": ";
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            os << (v ? "true" : "false");
        else if constexpr (std::is_same_v<T, std::string>)
            os << "\"" << cobra::jsonEscape(v) << "\"";
        else
            os << v;
        os << ",\n";
    });
    os << pad << "\"ipc\": " << r.ipc() << ",\n"
       << pad << "\"mpki\": " << r.mpki() << ",\n"
       << pad << "\"accuracy\": " << r.accuracy()
       << (trailing_comma ? ",\n" : "\n");
}

void
writeSweepJson(const std::string& path, const std::string& name,
               const std::vector<SweepOutcome>& outcomes, unsigned jobs,
               const std::string& extra)
{
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    f << "{\n  \"bench\": \"" << jsonEscape(name) << "\",\n"
      << "  \"jobs\": " << jobs << ",\n";
    if (!extra.empty())
        f << "  " << extra << ",\n";
    f << "  \"points\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome& o = outcomes[i];
        f << "    {\n      \"label\": \"" << jsonEscape(o.label)
          << "\",\n";
        if (!o.ok()) {
            f << "      \"error_class\": \""
              << jsonEscape(o.errorClass.empty() ? "internal"
                                                 : o.errorClass)
              << "\",\n      \"error\": \"" << jsonEscape(o.error)
              << "\"\n    }";
        } else {
            writeResultFields(f, o.result, "      ",
                              /*trailing_comma=*/true);
            f << "      \"host\": {\n"
              << "        \"wall_seconds\": " << o.host.wallSeconds
              << ",\n"
              << "        \"sim_cycles\": " << o.host.simCycles << ",\n"
              << "        \"ticked_cycles\": " << o.host.tickedCycles
              << ",\n"
              << "        \"sim_insts\": " << o.host.simInsts << ",\n"
              << "        \"kilocycles_per_sec\": "
              << o.host.kiloCyclesPerSec() << ",\n"
              << "        \"kips\": " << o.host.kips() << "\n"
              << "      }\n    }";
        }
        f << (i + 1 < outcomes.size() ? ",\n" : "\n");
    }
    f << "  ]\n}\n";
}

std::string
renderPointStats(const std::string& label, const Simulator& s,
                 const SimResult& r)
{
    std::ostringstream os;
    s.statRegistry().writeJson(os, 6);
    return renderPointStats(label, r, os.str());
}

std::string
renderPointStats(const std::string& label, const SimResult& r,
                 const std::string& groups_json)
{
    std::ostringstream os;
    os << "    {\n      \"label\": \"" << jsonEscape(label) << "\",\n"
       << "      \"result\": {\n";
    writeResultFields(os, r, "        ", /*trailing_comma=*/false);
    os << "      },\n      \"groups\": " << groups_json << "\n    }";
    return os.str();
}

void
writeStatsJson(const std::string& path, const std::string& tool,
               const std::vector<SweepOutcome>& outcomes, unsigned jobs)
{
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    f << "{\n  \"tool\": \"" << jsonEscape(tool) << "\",\n"
      << "  \"version\": 1,\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"points\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome& o = outcomes[i];
        if (!o.statsJson.empty()) {
            f << o.statsJson;
        } else {
            f << "    {\n      \"label\": \"" << jsonEscape(o.label)
              << "\",\n      \"error\": \""
              << jsonEscape(o.ok() ? "stats not rendered" : o.error)
              << "\"\n    }";
        }
        f << (i + 1 < outcomes.size() ? ",\n" : "\n");
    }
    f << "  ]\n}\n";
}

void
writeTraceEvents(const std::string& path,
                 const std::vector<SweepOutcome>& outcomes)
{
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    f << "[\n";
    for (const SweepOutcome& o : outcomes)
        f << o.traceEvents;
    // Final no-comma metadata event closes the array legally even
    // when no point traced anything.
    f << "{\"name\": \"cobra_trace\", \"ph\": \"M\", \"pid\": 0, "
         "\"tid\": 0, \"args\": {\"points\": "
      << outcomes.size() << "}}\n]\n";
}

} // namespace cobra::sim
