/**
 * @file
 * cobra_perfbench, the end-to-end benchmark program. One invocation
 * runs one workload — `sweep`, `search` or `serve` — through the public
 * entry points the tools use (sim::SweepEngine::run, search::runSearch +
 * search::frontierJson, serve::Daemon::run over a spool) and writes a
 * raw report: set-up samples, per-op turnaround and output, process
 * CPU and the op sequence's wall time. run.py turns the report into
 * metrics and checks the outputs.
 *
 * With --trace 1 it instead runs a prefix of the op sequence twice
 * (untraced, then traced), then a fixed probe suite, and records spans
 * around every call it makes into a layer. Spans live in memory
 * and are written at exit as a Chrome trace-event file (Perfetto
 * loads it). All spans are recorded from this file, around calls into
 * the library; nothing inside the library is instrumented.
 *
 *   cobra_perfbench --workload W --seed N --seconds S --trace 0|1
 *                   --out DIR [--plan | --setup-only]
 *
 * --seed feeds only the generators (sweep oracle seeds, search seeds,
 * the serve request sequence); --plan prints the generated op plan and
 * exits without running it; --setup-only does the workload's set-up
 * once, reports its time and exits without running an op.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bpu/composer.hpp"
#include "program/workload.hpp"
#include "search/driver.hpp"
#include "search/space.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/request.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/batch_eval.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "warp/fastforward.hpp"

namespace fs = std::filesystem;
using namespace cobra;

namespace {

// ---- Clocks ----------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** CPU time of the calling thread alone. */
double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

void
sleepUs(long us)
{
    std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/**
 * Moves the calling thread round the CPUs it may use, one CPU per
 * next(). On a shared host each core's speed swings with what other
 * guests run beside it, and a single busy thread tends to stay on one
 * core, riding that core's swings for the whole run. Stepping after
 * every op spreads the run evenly over all the allowed cores. The
 * original CPU mask is restored on destruction.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
        }
    }
    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[step_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t step_ = 0;
};

// ---- Small JSON writer -----------------------------------------------

/** Builds one JSON object; values are appended in call order. */
class Obj
{
  public:
    Obj& num(const std::string& k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return raw(k, buf);
    }
    Obj& u64(const std::string& k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Obj& boolean(const std::string& k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Obj& str(const std::string& k, const std::string& v)
    {
        return raw(k, "\"" + sim::jsonEscape(v) + "\"");
    }
    Obj& raw(const std::string& k, const std::string& json)
    {
        body_.append(body_.empty() ? "\"" : ", \"");
        body_.append(k);
        body_.append("\": ");
        body_.append(json);
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonList(const std::vector<std::string>& items)
{
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        s += (i ? ", " : "") + items[i];
    return s + "]";
}

std::string
quoted(const std::string& s)
{
    return "\"" + sim::jsonEscape(s) + "\"";
}

std::string
resultJson(const sim::SimResult& r)
{
    Obj o;
    r.forEachField([&](const char* name, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            o.boolean(name, v);
        else if constexpr (std::is_same_v<T, std::string>)
            o.str(name, v);
        else
            o.u64(name, static_cast<std::uint64_t>(v));
    });
    return o.text();
}

void
writeText(const fs::path& p, const std::string& text)
{
    std::ofstream f(p, std::ios::binary | std::ios::trunc);
    f << text;
    if (!f)
        throw std::runtime_error("cannot write " + p.string());
}

// ---- Span recorder ---------------------------------------------------

/**
 * In-memory span recorder. Every span has a name, start, end, parent
 * and the id of the op (point, search or request) it belongs to; args
 * carry the counts measured at the same boundary. Off, open() returns
 * -1 and close() returns at once, so the untraced path pays one branch.
 * Only the main thread records.
 */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    int
    open(const std::string& name, const std::string& op = "")
    {
        if (!on_)
            return -1;
        const int id = add(name, nowS(), 0.0, op, "");
        stack_.push_back(id);
        return id;
    }

    void
    close(int id, const std::string& args = "")
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].t1 = nowS();
        spans_[static_cast<std::size_t>(id)].args = args;
        while (!stack_.empty()) {
            const int top = stack_.back();
            stack_.pop_back();
            if (top == id)
                break;
        }
    }

    /** Record an already-finished span under the innermost open span. */
    int
    add(const std::string& name, double t0, double t1,
        const std::string& op, const std::string& args)
    {
        return addUnder(stack_.empty() ? -1 : stack_.back(), name, t0, t1,
                        op, args);
    }

    /** Record an already-finished span under span @p parent. */
    int
    addUnder(int parent, const std::string& name, double t0, double t1,
             const std::string& op, const std::string& args)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.t0 = t0;
        s.t1 = t1;
        s.parent = parent;
        s.op = op;
        s.args = args;
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size() - 1);
    }

    /** Chrome trace-event document ("X" events, microseconds). */
    void
    write(const fs::path& path) const
    {
        std::ostringstream os;
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            Obj args;
            args.u64("span", i)
                .raw("parent", std::to_string(s.parent))
                .str("op", s.op)
                .raw("counts", s.args.empty() ? "{}" : s.args);
            Obj ev;
            ev.str("name", s.name)
                .str("ph", "X")
                .num("ts", s.t0 * 1e6)
                .num("dur", (s.t1 - s.t0) * 1e6)
                .u64("pid", 1)
                .u64("tid", 1)
                .raw("args", args.text());
            os << ev.text() << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]}\n";
        writeText(path, os.str());
    }

  private:
    struct Span
    {
        std::string name;
        double t0 = 0.0;
        double t1 = 0.0;
        int parent = -1;
        std::string op;
        std::string args;
    };

    bool on_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; closes with the args set last (or none). */
class Scope
{
  public:
    Scope(Spans& sp, const std::string& name, const std::string& op = "")
        : sp_(sp), id_(sp.open(name, op))
    {
    }
    ~Scope() { sp_.close(id_, args_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void setArgs(const Obj& o) { args_ = o.text(); }

  private:
    Spans& sp_;
    int id_;
    std::string args_;
};

/**
 * Redirects fd 2 into a pipe while alive; a reader thread timestamps
 * every line. runSearch reports tier progress only through stderr
 * notes (SearchConfig::progress), so their arrival times are the tier
 * boundaries seen from outside.
 */
class StderrTap
{
  public:
    StderrTap()
    {
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe() failed");
        std::fflush(stderr);
        saved_ = ::dup(2);
        ::dup2(fds[1], 2);
        ::close(fds[1]);
        readFd_ = fds[0];
        reader_ = std::thread([this] { readLoop(); });
    }

    ~StderrTap() { finish(); }
    StderrTap(const StderrTap&) = delete;
    StderrTap& operator=(const StderrTap&) = delete;

    /** Restore stderr, join the reader, return (time, line) pairs. */
    std::vector<std::pair<double, std::string>>
    finish()
    {
        if (saved_ >= 0) {
            std::fflush(stderr);
            ::dup2(saved_, 2); // Drops the last write end: reader EOFs.
            ::close(saved_);
            saved_ = -1;
            reader_.join();
            ::close(readFd_);
        }
        std::lock_guard<std::mutex> lk(m_);
        return lines_;
    }

  private:
    void
    readLoop()
    {
        std::string partial;
        char buf[4096];
        for (;;) {
            const ssize_t n = ::read(readFd_, buf, sizeof buf);
            if (n <= 0)
                break;
            const double t = nowS();
            partial.append(buf, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = partial.find('\n')) != std::string::npos) {
                std::lock_guard<std::mutex> lk(m_);
                lines_.emplace_back(t, partial.substr(0, nl));
                partial.erase(0, nl + 1);
            }
        }
    }

    int saved_ = -1;
    int readFd_ = -1;
    std::mutex m_;
    std::vector<std::pair<double, std::string>> lines_;
    std::thread reader_;
};

// ---- Seeded generator ------------------------------------------------

/** splitmix64: the only consumer of --seed (portable, unlike the
 *  standard distributions). */
class Gen
{
  public:
    Gen(std::uint64_t seed, std::uint64_t stream)
        : s_(seed * 0x9E3779B97F4A7C15ull ^ stream)
    {
    }
    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

// ---- Workload definitions --------------------------------------------

const std::vector<sim::Design> kDesigns = {
    sim::Design::Tourney, sim::Design::B2, sim::Design::TageL,
    sim::Design::RefBig};
const std::vector<std::string> kDesignNames = {"tourney", "b2", "tagel",
                                               "refbig"};

// sweep: the four paper presets x SPECint17 proxies that spread static
// footprint (gcc is the largest), IPC (omnetpp lowest, mcf highest)
// and MPKI; jobs 1, execute mode. Points are a fifth of full scale so
// one run holds >= 100 of them (p90 needs ten samples beyond it).
const std::vector<std::string> kSweepProxies = {"gcc", "mcf", "leela",
                                                "x264", "omnetpp"};
constexpr std::uint64_t kSweepWarmup = 24'000;
constexpr std::uint64_t kSweepInsts = 80'000;
constexpr double kSweepOpsPerSecond = 3.4;

// search: one budgeted search per op at jobs 2, alternating workloads,
// sized so the trace-driven tiers 0/1 (BatchTraceEvaluator on the
// pool) take most of the time. The warp tier has a floor: each of the
// four always-kept paper anchors fast-forwards its default warm-up.
const std::vector<std::string> kSearchWorkloads = {"mcf", "leela"};
constexpr unsigned kSearchJobs = 2;
constexpr double kSearchOpsPerSecond = 1.0;

// serve: closed-loop client against an in-process daemon at jobs 2.
constexpr unsigned kServeJobs = 2;
constexpr double kServeOpsPerSecond = 10.5;
constexpr std::uint64_t kServeWarmup = 4'000;
constexpr std::uint64_t kServeInsts = 16'000;
constexpr std::uint64_t kWarpWarmup = 4'000;
constexpr std::uint64_t kWarpInsts = 40'000;
const std::string kReplayWorkload = "leela";
const std::vector<std::string> kServeWorkloads = {"leela", "mcf", "gcc",
                                                  "x264"};
const std::vector<std::string> kWarpDesigns = {"tagel", "b2"};
const std::vector<std::string> kWarpWorkloads = {"mcf", "leela"};
/** Per-request turnaround after which the client gives up (deadlock). */
constexpr double kRequestTimeoutS = 60.0;
/**
 * The daemon's idle poll (ServeConfig::pollMs; the default is 200 ms).
 * A sequential client waits out most of one poll per request, so a
 * short poll keeps that fixed sleep from hiding the request's own work.
 */
constexpr std::uint64_t kPollMs = 25;
/**
 * Client pause between a result landing and the next submission. The
 * daemon needs well under a millisecond after publishing a result to
 * go idle (one poll period of sleep); a client faster than that races
 * it and its next request skips the sleep. The pause makes every
 * request meet a sleeping daemon, so turnaround is not bimodal.
 */
constexpr long kThinkUs = 10'000;

std::size_t
opsFor(double seconds, double per_second)
{
    return static_cast<std::size_t>(
        std::max(1.0, std::ceil(seconds * per_second)));
}

search::SearchConfig
searchConfig(const std::string& workload, std::uint64_t seed)
{
    search::SearchConfig c;
    c.seed = seed;
    c.pool = 32;
    c.workloads = {workload};
    c.seedEvals = 12;
    c.functionalSurvivors = 16;
    c.warpSurvivors = 4;
    c.finalists = 1;
    c.traceBranches = 40'000;
    c.traceWarmup = 10'000;
    c.warpInsts = 16'000;
    c.warpIntervals = 2;
    c.warpWarmupCycles = 1'000;
    c.warpSampleInsts = 2'000;
    c.detailInsts = 4'000;
    c.detailWarmup = 1'000;
    c.jobs = kSearchJobs;
    return c;
}

std::string
searchFixedJson()
{
    const search::SearchConfig c = searchConfig("mcf", 0);
    Obj o;
    o.u64("pool", c.pool)
        .u64("seed_evals", c.seedEvals)
        .u64("survivors", c.functionalSurvivors)
        .u64("warp_survivors", c.warpSurvivors)
        .u64("finalists", c.finalists)
        .u64("trace_branches", c.traceBranches)
        .u64("trace_warmup", c.traceWarmup)
        .u64("warp_insts", c.warpInsts)
        .u64("warp_intervals", c.warpIntervals)
        .u64("warp_warmup_cycles", c.warpWarmupCycles)
        .u64("warp_sample_insts", c.warpSampleInsts)
        .u64("detail_insts", c.detailInsts)
        .u64("detail_warmup", c.detailWarmup)
        .u64("jobs", c.jobs);
    return o.text();
}

/** One op of any workload: the generated inputs plus what ran. */
struct Op
{
    std::string id;
    std::string kind;
    // sweep
    sim::Design design = sim::Design::TageL;
    std::string workload;
    std::uint64_t oracleSeed = 0;
    // search
    std::uint64_t searchSeed = 0;
    // serve
    std::string doc;
    std::uint64_t budgetInsts = 0;
};

/** What one executed op reports. */
struct OpRun
{
    double wall = 0.0;
    bool ok = false;
    std::string error;
    std::uint64_t insts = 0;
    std::string output; ///< JSON value checked by run.py.
    /** search: seconds spent in tiers 0..3 and the frontier (JSON list). */
    std::string stages;
};

/** One pass over an op sequence, timed around the op loop only. */
struct Pass
{
    std::vector<OpRun> runs;
    double wall = 0.0;
    double cpu = 0.0;
    /** serve: CPU of the client thread alone (part of cpu). */
    double clientCpu = 0.0;
};

std::vector<Op>
sweepPlan(std::uint64_t seed, std::size_t n)
{
    Gen g(seed, 1);
    std::vector<Op> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
        Op& op = ops[i];
        char id[24];
        std::snprintf(id, sizeof id, "p%03zu", i);
        op.id = id;
        op.kind = "point";
        op.design = kDesigns[i % kDesigns.size()];
        op.workload =
            kSweepProxies[(i / kDesigns.size()) % kSweepProxies.size()];
        op.oracleSeed = g.next();
    }
    return ops;
}

std::vector<Op>
searchPlan(std::uint64_t seed, std::size_t n)
{
    Gen g(seed, 2);
    std::vector<Op> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
        char id[24];
        std::snprintf(id, sizeof id, "s%03zu", i);
        ops[i].id = id;
        ops[i].kind = "search";
        ops[i].workload = kSearchWorkloads[i % kSearchWorkloads.size()];
        ops[i].searchSeed = g.next();
    }
    return ops;
}

/**
 * The serve request sequence: a fixed multiset of requests in seeded
 * order. A quarter are trace replays, 30% warp requests and the rest
 * light detailed grids, and within each kind the designs and workloads
 * rotate, so every run submits the same requests and only their order
 * depends on the seed. Warp requests cycle through four (design,
 * workload) pairs, so all but the first of each pair hit the warm
 * snapshot cache.
 */
std::vector<Op>
servePlan(std::uint64_t seed, std::size_t n, const std::string& trace_path)
{
    static const std::pair<int, int> kPairs[] = {{0, 1}, {0, 2}, {0, 3},
                                                 {1, 2}, {1, 3}, {2, 3}};
    const std::size_t nReplay = (n + 2) / 4;
    const std::size_t nWarp = std::min(n - nReplay, (n * 3 + 5) / 10);
    std::vector<Op> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
        Op& op = ops[i];
        Obj d;
        if (i < nReplay || i >= nReplay + nWarp) {
            const bool replay = i < nReplay;
            const std::size_t j = replay ? i : i - nReplay - nWarp;
            const auto [a, b] = kPairs[j % std::size(kPairs)];
            const std::string wl =
                replay ? kReplayWorkload
                       : kServeWorkloads[j % kServeWorkloads.size()];
            op.kind = replay ? "replay" : "detailed";
            d.raw("designs", jsonList({quoted(kDesignNames[a]),
                                       quoted(kDesignNames[b])}))
                .raw("workloads", jsonList({quoted(wl)}))
                .u64("insts", kServeInsts)
                .u64("warmup", kServeWarmup);
            if (replay)
                d.str("trace", trace_path);
            op.budgetInsts = 2 * (kServeInsts + kServeWarmup);
        } else {
            const std::size_t j = i - nReplay;
            Obj w;
            w.u64("intervals", 2)
                .u64("warmup_cycles", 2'000)
                .u64("sample_insts", 8'000);
            op.kind = "warp";
            d.raw("designs", jsonList({quoted(
                                 kWarpDesigns[j % kWarpDesigns.size()])}))
                .raw("workloads",
                     jsonList({quoted(kWarpWorkloads[(j / 2) %
                                                     kWarpWorkloads.size()])}))
                .u64("insts", kWarpInsts)
                .u64("warmup", kWarpWarmup)
                .raw("warp", w.text());
            op.budgetInsts = kWarpInsts + kWarpWarmup;
        }
        op.doc = d.text();
    }
    Gen g(seed, 3);
    for (std::size_t i = n; i > 1; --i)
        std::swap(ops[i - 1], ops[g.below(i)]);
    for (std::size_t i = 0; i < n; ++i) {
        char id[24];
        std::snprintf(id, sizeof id, "r%03zu", i);
        ops[i].id = id;
        // Put the id and client envelope in front of the request body.
        const std::string head = Obj()
                                     .str("id", ops[i].id)
                                     .str("client", "perfbench")
                                     .u64("priority", 1)
                                     .text();
        ops[i].doc =
            head.substr(0, head.size() - 1) + ", " + ops[i].doc.substr(1);
    }
    return ops;
}

std::string
planJson(const std::string& workload, std::uint64_t seed,
         const std::vector<Op>& ops)
{
    Obj fixed;
    if (workload == "sweep") {
        fixed.u64("warmup", kSweepWarmup)
            .u64("insts", kSweepInsts)
            .u64("jobs", 1);
    } else if (workload == "search") {
        fixed.raw("config", searchFixedJson());
    } else {
        fixed.u64("jobs", kServeJobs)
            .u64("warmup", kServeWarmup)
            .u64("insts", kServeInsts)
            .u64("warp_warmup", kWarpWarmup)
            .u64("warp_insts", kWarpInsts);
    }
    std::vector<std::string> items;
    for (const Op& op : ops) {
        Obj o;
        o.str("id", op.id).str("kind", op.kind);
        if (workload == "sweep") {
            o.str("design", sim::designName(op.design))
                .str("workload", op.workload)
                .u64("oracle_seed", op.oracleSeed);
        } else if (workload == "search") {
            o.str("workload", op.workload)
                .u64("search_seed", op.searchSeed);
        } else {
            o.raw("request", op.doc);
        }
        items.push_back(o.text());
    }
    Obj p;
    p.str("workload", workload)
        .u64("seed", seed)
        .raw("fixed", fixed.text())
        .raw("ops", jsonList(items));
    return p.text();
}

// ---- Shared set-up steps ---------------------------------------------

const prog::Program&
buildProgram(Spans& sp, prog::WorkloadCache& cache, const std::string& w)
{
    Scope s(sp, "program.build", w);
    const prog::Program& p = cache.get(w);
    s.setArgs(Obj().u64("static_insts", p.size()));
    return p;
}

// ---- sweep -----------------------------------------------------------

/** Builds the programs and one point per op; the points borrow the
 *  returned cache's programs. */
std::unique_ptr<prog::WorkloadCache>
sweepSetup(Spans& sp, const std::vector<Op>& ops,
           std::vector<sim::SweepPoint>& points)
{
    auto cache = std::make_unique<prog::WorkloadCache>();
    for (const std::string& w : kSweepProxies)
        buildProgram(sp, *cache, w);
    for (const Op& op : ops) {
        sim::SweepPoint pt =
            sim::SweepPoint::preset(op.design, cache->get(op.workload));
        pt.label = op.id + ":" + pt.label;
        pt.cfg.warmupInsts = kSweepWarmup;
        pt.cfg.maxInsts = kSweepInsts;
        pt.cfg.oracleSeed = op.oracleSeed;
        points.push_back(std::move(pt));
    }
    return cache;
}

Pass
sweepRun(Spans& sp, const std::vector<Op>& ops,
         std::vector<sim::SweepPoint> points)
{
    sim::SweepEngine eng(1);
    for (sim::SweepPoint& pt : points)
        eng.add(std::move(pt));
    // At jobs 1 the points run inline on this thread, one after another,
    // and each reports on this thread as it finishes.
    CpuRotation cpus;
    std::vector<double> doneAt(ops.size(), 0.0);
    eng.setOnOutcome([&](std::size_t i, const sim::SweepOutcome&) {
        doneAt[i] = nowS();
        cpus.next();
    });
    cpus.next();
    const double c0 = cpuS();
    const int runSpan = sp.open("sweep.run");
    const double t0 = nowS();
    const std::vector<sim::SweepOutcome> outs = eng.run();
    const double t1 = nowS();

    const double cpu = cpuS() - c0;
    Pass pass;
    pass.wall = t1 - t0;
    pass.cpu = cpu;
    pass.runs.resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const sim::SweepOutcome& o = outs[i];
        OpRun& r = pass.runs[i];
        const double start = i == 0 ? t0 : doneAt[i - 1];
        r.wall = doneAt[i] - start;
        r.ok = o.ok() && !o.result.deadlocked;
        r.error = o.ok() ? (o.result.deadlocked ? "deadlocked" : "")
                         : o.errorClass + ": " + o.error;
        r.insts = o.host.simInsts;
        Obj out;
        out.str("design", sim::designName(ops[i].design))
            .str("workload", ops[i].workload)
            .u64("oracle_seed", ops[i].oracleSeed)
            .u64("warmup", kSweepWarmup)
            .u64("max_insts", kSweepInsts)
            .raw("result", resultJson(o.result));
        r.output = out.text();
        if (sp.on()) {
            sp.add("sim.point", start, doneAt[i], ops[i].id,
                   Obj()
                       .str("workload", ops[i].workload)
                       .u64("sim_cycles", o.host.simCycles)
                       .u64("sim_insts", o.host.simInsts)
                       .raw("result", resultJson(o.result))
                       .text());
        }
    }
    sp.close(runSpan, Obj()
                          .u64("jobs", 1)
                          .num("cpu_s", cpu)
                          .num("wall_s", pass.wall)
                          .text());
    return pass;
}

// ---- search ----------------------------------------------------------

std::uint64_t
certifiedInsts(const search::SearchResult& r)
{
    std::uint64_t n = 0;
    for (const search::Candidate& c : r.candidates) {
        if (c.hasDetail)
            n += c.detail.insts + r.cfg.detailWarmup * r.cfg.workloads.size();
    }
    return n;
}

OpRun
searchOne(Spans& sp, const Op& op, prog::WorkloadCache& cache)
{
    search::SearchConfig cfg = searchConfig(op.workload, op.searchSeed);
    // Tier boundaries are only visible from outside as the progress
    // notes runSearch writes to stderr, so every search runs tapped.
    cfg.progress = true;
    OpRun r;
    const double c0 = cpuS();
    const int span = sp.open("search.run", op.id);
    StderrTap tap;
    const double t0 = nowS();
    std::string frontier;
    search::SearchResult res;
    try {
        res = search::runSearch(cfg, cache);
        frontier = search::frontierJson(res);
        r.ok = true;
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    const double t1 = nowS();
    r.wall = t1 - t0;
    // Each "tier N:" note closes tier N; the stage after tier 3 is the
    // Pareto frontier and its artifact.
    std::vector<std::string> stages;
    auto stage = [&](const std::string& name, double from, double to) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", to - from);
        stages.emplace_back(buf);
        sp.add(name, from, to, op.id, "");
    };
    double prev = t0;
    for (const auto& [t, line] : tap.finish()) {
        for (int k = 0; k <= 3; ++k) {
            const std::string key = "tier " + std::to_string(k) + ":";
            if (line.find(key) == std::string::npos)
                continue;
            stage("search.tier" + std::to_string(k), prev, t);
            prev = t;
        }
    }
    if (r.ok && stages.size() != 4) {
        r.ok = false;
        r.error = "expected 4 tier notes, saw " +
                  std::to_string(stages.size());
    }
    stage("search.frontier", prev, t1);
    r.insts = r.ok ? certifiedInsts(res) : 0;
    Obj out;
    out.str("workload", op.workload)
        .u64("search_seed", op.searchSeed)
        .u64("pool", cfg.pool)
        .u64("certified_insts", r.insts)
        .str("frontier_json", frontier);
    r.output = out.text();
    r.stages = jsonList(stages);
    sp.close(span, Obj()
                       .u64("jobs", cfg.jobs)
                       .num("cpu_s", cpuS() - c0)
                       .num("wall_s", r.wall)
                       .u64("pool", cfg.pool)
                       .u64("functional_evals", res.functionalEvals)
                       .u64("evals_saved", res.evalsSaved)
                       .u64("warp_evals", res.warpEvals)
                       .u64("detailed_evals", res.detailedEvals)
                       .text());
    return r;
}

Pass
searchRun(Spans& sp, const std::vector<Op>& ops, prog::WorkloadCache& cache)
{
    Pass pass;
    const double c0 = cpuS();
    const int span = sp.open("search.client");
    const double t0 = nowS();
    for (const Op& op : ops)
        pass.runs.push_back(searchOne(sp, op, cache));
    pass.wall = nowS() - t0;
    pass.cpu = cpuS() - c0;
    sp.close(span, Obj()
                       .u64("jobs", kSearchJobs)
                       .num("cpu_s", pass.cpu)
                       .num("wall_s", pass.wall)
                       .text());
    return pass;
}

// ---- serve -----------------------------------------------------------

/** A running in-process daemon over a fresh spool. */
class DaemonHandle
{
  public:
    explicit DaemonHandle(const fs::path& spool)
    {
        serve::ServeConfig cfg;
        cfg.spoolRoot = spool.string();
        cfg.jobs = kServeJobs;
        cfg.pollMs = kPollMs;
        daemon_ = std::make_unique<serve::Daemon>(cfg);
        thread_ = std::thread([this] {
            try {
                daemon_->run(stop_);
            } catch (const std::exception& e) {
                std::cerr << "cobra_perfbench: daemon: " << e.what()
                          << "\n";
                failed_ = true;
            }
        });
        // run() writes status.json once recovery is done: serving.
        const fs::path status = spool / "status.json";
        const double t0 = nowS();
        while (!fs::exists(status)) {
            if (failed_ || nowS() - t0 > 30.0) {
                stop_ = true;
                thread_.join();
                throw std::runtime_error("daemon did not start");
            }
            sleepUs(100);
        }
    }
    ~DaemonHandle()
    {
        stop_ = true;
        thread_.join();
    }
    DaemonHandle(const DaemonHandle&) = delete;
    DaemonHandle& operator=(const DaemonHandle&) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::atomic<bool> failed_{false};
    std::unique_ptr<serve::Daemon> daemon_;
    std::thread thread_;
};

/** Everything serve needs before its first request. */
struct ServeSetup
{
    std::unique_ptr<DaemonHandle> daemon;
    fs::path spool;
};

ServeSetup
serveSetup(Spans& sp, const fs::path& dir, const std::string& trace_path)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    prog::WorkloadCache cache;
    const prog::Program& p = buildProgram(sp, cache, kReplayWorkload);
    {
        Scope s(sp, "trace.capture", kReplayWorkload);
        trace::captureTrace(p, trace_path, kServeWarmup + kServeInsts);
        s.setArgs(Obj().u64("insts", kServeWarmup + kServeInsts +
                                         trace::kCaptureSlackInsts));
    }
    {
        Scope s(sp, "trace.decode", kReplayWorkload);
        const auto tr = trace::loadTrace(trace_path);
        s.setArgs(Obj().u64("records", tr->size()));
    }
    ServeSetup st;
    st.spool = dir / "spool";
    Scope s(sp, "serve.start");
    st.daemon = std::make_unique<DaemonHandle>(st.spool);
    return st;
}

/**
 * Submit one request the way clients must (write a temp file, rename it
 * into incoming/), then poll until the result document lands. Returns
 * the result document, or "" when none arrived in time.
 */
std::string
serveOne(Spans& sp, const Op& op, const fs::path& spool, OpRun& r)
{
    const fs::path tmp = spool / "incoming" / (op.id + ".json.tmp");
    const fs::path in = spool / "incoming" / (op.id + ".json");
    const fs::path res = spool / "results" / (op.id + ".json");
    writeText(tmp, op.doc);
    const double tSubmit = nowS();
    fs::rename(tmp, in);
    double tAdmit = -1.0, tDone = -1.0;
    for (;;) {
        const double t = nowS();
        if (tAdmit < 0.0 && !fs::exists(in))
            tAdmit = t;
        if (fs::exists(res)) {
            tDone = t;
            break;
        }
        if (t - tSubmit > kRequestTimeoutS)
            break;
        sleepUs(200);
    }
    if (tDone < 0.0) {
        r.wall = nowS() - tSubmit;
        r.error = "no result after " + std::to_string(kRequestTimeoutS) +
                  " s (deadlock)";
        return "";
    }
    if (tAdmit < 0.0)
        tAdmit = tDone;
    r.wall = tDone - tSubmit;
    const std::string doc = serve::readFileText(res.string());
    r.ok = true; // Status and points are checked by run.py.
    r.insts = op.budgetInsts;
    if (sp.on()) {
        // The result document says how long its points ran; the
        // remainder after admission is rendering and publishing.
        double run = 0.0;
        unsigned hits = 0, intervals = 0;
        try {
            const serve::Json d = serve::Json::parse(doc);
            if (const serve::Json* pts = d.find("points")) {
                for (const serve::Json& p : pts->asArray()) {
                    run = std::max(run, p.getDouble("wall_seconds", 0.0));
                    if (const serve::Json* w = p.find("warp")) {
                        hits += static_cast<unsigned>(
                            w->getU64("warm_hits", 0));
                        intervals += static_cast<unsigned>(
                            w->getU64("intervals", 0));
                    }
                }
            }
        } catch (const std::exception&) {
        }
        const double runEnd = std::min(tDone, tAdmit + run);
        const int req = sp.add("serve.request", tSubmit, tDone, op.id,
                               Obj()
                                   .str("kind", op.kind)
                                   .u64("warm_hits", hits)
                                   .u64("intervals", intervals)
                                   .text());
        sp.addUnder(req, "serve.admit", tSubmit, tAdmit, op.id, "");
        sp.addUnder(req, "serve.run", tAdmit, runEnd, op.id,
                    Obj().num("wall_seconds", run).text());
        sp.addUnder(req, "serve.publish", runEnd, tDone, op.id, "");
    }
    return doc;
}

Pass
serveRun(Spans& sp, const std::vector<Op>& ops, const fs::path& spool)
{
    Pass pass;
    std::vector<OpRun>& runs = pass.runs;
    runs.resize(ops.size());
    const double c0 = cpuS();
    const double client0 = threadCpuS();
    const int loop = sp.open("serve.client");
    const double t0 = nowS();
    bool stalled = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        OpRun& r = runs[i];
        if (stalled) {
            r.error = "not run: an earlier request deadlocked";
            r.output = "null";
            continue;
        }
        if (i > 0)
            sleepUs(kThinkUs);
        // serve.request spans hang under the client loop span.
        const std::string doc = serveOne(sp, ops[i], spool, r);
        stalled = !r.ok;
        Obj out;
        out.raw("request", ops[i].doc)
            .raw("result", doc.empty() ? "null" : doc);
        r.output = out.text();
    }
    pass.wall = nowS() - t0;
    pass.cpu = cpuS() - c0;
    pass.clientCpu = threadCpuS() - client0;
    sp.close(loop, Obj()
                       .u64("jobs", kServeJobs)
                       .num("cpu_s", pass.cpu)
                       .num("wall_s", pass.wall)
                       .text());
    return pass;
}

// ---- Layer probes (traced runs only) ---------------------------------

/** A small sweep-sized point config for @p d. */
sim::SimConfig
probeConfig(sim::Design d)
{
    sim::SimConfig cfg = sim::makeConfig(d);
    cfg.warmupInsts = kSweepWarmup;
    cfg.maxInsts = kSweepInsts;
    return cfg;
}

std::string
simRunArgs(const char* design, const char* mode, sim::Simulator& s,
           const sim::SimResult& r)
{
    return Obj()
        .str("design", design)
        .str("mode", mode)
        .u64("sim_cycles", s.cycles())
        .u64("sim_insts", s.backend().committedInsts())
        .raw("result", resultJson(r))
        .text();
}

void
probeSim(Spans& sp, prog::WorkloadCache& cache)
{
    const prog::Program& p = cache.get("leela");
    for (std::size_t i = 0; i < kDesigns.size(); ++i) {
        const sim::Design d = kDesigns[i];
        const char* name = kDesignNames[i].c_str();
        const sim::SimConfig cfg = probeConfig(d);
        const int c = sp.open("sim.construct", name);
        sim::Simulator s(p, sim::buildTopology(d), cfg);
        sp.close(c, Obj().str("design", name).text());
        const int r = sp.open("sim.run", name);
        const sim::SimResult res = s.run();
        sp.close(r, simRunArgs(name, "execute", s, res));
    }
}

void
probeTrace(Spans& sp, prog::WorkloadCache& cache, const fs::path& dir)
{
    const prog::Program& p = cache.get("leela");
    const std::uint64_t budget = kSweepWarmup + kSweepInsts;
    const std::string path = (dir / "probe-leela.cbtr").string();
    {
        Scope s(sp, "trace.capture", "leela");
        trace::captureTrace(p, path, budget);
        s.setArgs(Obj().u64("insts", budget + trace::kCaptureSlackInsts));
    }
    std::shared_ptr<const trace::DecodedTrace> tr;
    {
        Scope s(sp, "trace.decode", "leela");
        tr = trace::loadTrace(path);
        s.setArgs(Obj().u64("records", tr->size()));
    }
    sim::SimConfig cfg = probeConfig(sim::Design::TageL);
    cfg.replayTrace = tr;
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL), cfg);
    const int r = sp.open("sim.run", "tagel");
    const sim::SimResult res = s.run();
    sp.close(r, simRunArgs("tagel", "replay", s, res));
}

void
probeBpu(Spans& sp, prog::WorkloadCache& cache)
{
    const search::SearchConfig sc = searchConfig("mcf", 1);
    trace::BranchTrace tr;
    {
        Scope s(sp, "trace.record", "mcf");
        tr = trace::recordTrace(cache.get("mcf"), sc.traceBranches);
        s.setArgs(Obj().u64("branches", tr.size()));
    }
    for (std::size_t i = 0; i < kDesigns.size(); ++i) {
        const sim::DesignSpec spec = sim::presetSpec(kDesigns[i]);
        bpu::ComposedPredictor pred(sim::buildTopology(spec),
                                    spec.fetchWidth);
        trace::TraceDrivenEvaluator ev(std::move(pred), spec.bpu.ghistBits,
                                       spec.bpu.lhistBits);
        Scope s(sp, "bpu.trace_eval", kDesignNames[i]);
        const trace::TraceResult res = ev.evaluate(tr, sc.traceWarmup);
        s.setArgs(Obj()
                      .str("design", kDesignNames[i])
                      .u64("branches", tr.size())
                      .u64("mispredicts", res.mispredicts));
    }
    // The search's tier-0/1 path: one trace streamed across a pool of
    // candidate lanes on kSearchJobs workers.
    search::SearchSpace space(1);
    std::vector<sim::DesignSpec> specs;
    while (specs.size() < 16) {
        try {
            specs.push_back(space.sample());
        } catch (const std::exception&) {
        }
    }
    trace::BatchTraceEvaluator be(kSearchJobs);
    for (const sim::DesignSpec& spec : specs) {
        trace::BatchLane lane;
        lane.label = spec.name;
        lane.predictor = [p = &spec] {
            return bpu::ComposedPredictor(sim::buildTopology(*p),
                                          p->fetchWidth);
        };
        lane.ghistBits = spec.bpu.ghistBits;
        lane.lhistBits = spec.bpu.lhistBits;
        be.addLane(std::move(lane));
    }
    Scope s(sp, "trace.batch_eval", "mcf");
    const auto outs = be.evaluate(tr, sc.traceWarmup);
    std::size_t failed = 0;
    for (const auto& o : outs)
        failed += o.ok() ? 0 : 1;
    if (failed != 0)
        throw std::runtime_error("batch probe: a lane failed");
    s.setArgs(Obj()
                  .u64("lanes", outs.size())
                  .u64("branches", tr.size())
                  .u64("jobs", kSearchJobs));
}

void
probeWarp(Spans& sp, prog::WorkloadCache& cache)
{
    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.warmupInsts = 0;
    cfg.maxInsts = 400'000;
    sim::Simulator s(cache.get("mcf"), sim::buildTopology(sim::Design::TageL),
                     cfg);
    Scope sc(sp, "warp.ff", "mcf");
    const warp::FastForwardResult r = warp::fastForward(s, 200'000);
    sc.setArgs(Obj().u64("insts", r.insts));
}

void
probeServeParts(Spans& sp, const std::vector<Op>& reqs, const fs::path& dir)
{
    constexpr unsigned kParses = 200;
    {
        Scope s(sp, "serve.parse");
        for (unsigned i = 0; i < kParses; ++i) {
            const Op& op = reqs[i % reqs.size()];
            (void)serve::SweepRequest::parse(op.doc, op.id);
        }
        s.setArgs(Obj().u64("count", kParses));
    }
    constexpr unsigned kAppends = 50;
    serve::Journal j((dir / "probe-journal.log").string());
    Scope s(sp, "serve.journal_append");
    for (unsigned i = 0; i < kAppends; ++i)
        j.append(serve::Journal::doneLine("probe-" + std::to_string(i),
                                          "ok"));
    s.setArgs(Obj().u64("count", kAppends));
}

// ---- Report ----------------------------------------------------------

struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    double setup = 0.0;
    double wall = 0.0;
    double cpu = 0.0;
    double clientCpu = 0.0;
    std::vector<std::string> ops; ///< Rendered op records.
    // Traced runs only.
    double untracedWall = 0.0;
    double tracedWall = 0.0;
    std::size_t probeFailures = 0;
};

void
recordOps(Report& rep, const std::vector<Op>& ops,
          const std::vector<OpRun>& runs, const char* pass)
{
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const OpRun& r = runs[i];
        rep.ops.push_back(Obj()
                              .str("id", ops[i].id)
                              .str("kind", ops[i].kind)
                              .str("pass", pass)
                              .num("wall_s", r.wall)
                              .boolean("ok", r.ok)
                              .str("error", r.error)
                              .u64("insts", r.insts)
                              .raw("stages", r.stages.empty() ? "[]"
                                                              : r.stages)
                              .raw("output", r.output.empty() ? "null"
                                                              : r.output)
                              .text());
    }
}

void
writeReport(const fs::path& path, const Report& rep)
{
    Obj o;
    o.str("workload", rep.workload)
        .u64("seed", rep.seed)
        .num("seconds", rep.seconds)
        .boolean("traced", rep.traced)
        .num("setup_s", rep.setup)
        .num("wall_s", rep.wall)
        .num("cpu_s", rep.cpu)
        .num("client_cpu_s", rep.clientCpu);
    if (rep.traced) {
        o.num("untraced_wall_s", rep.untracedWall)
            .num("traced_wall_s", rep.tracedWall)
            .u64("probe_failures", rep.probeFailures);
    }
    std::string text = o.text();
    text.pop_back();
    text += ", \"ops\": [\n";
    for (std::size_t i = 0; i < rep.ops.size(); ++i)
        text += rep.ops[i] + (i + 1 < rep.ops.size() ? ",\n" : "\n");
    text += "]}\n";
    writeText(path, text);
}

// ---- Running a workload ----------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool plan = false;
    bool setupOnly = false;
    fs::path out;
};

/** Runs a list of ops once and times it. */
using PassFn = std::function<Pass(Spans&, const std::vector<Op>&)>;

void
runPasses(const Args& a, Report& rep, const std::vector<Op>& ops,
          Spans& sp, const PassFn& pass)
{
    if (!a.trace) {
        const Pass p = pass(sp, ops);
        rep.wall = p.wall;
        rep.cpu = p.cpu;
        rep.clientCpu = p.clientCpu;
        recordOps(rep, ops, p.runs, "timed");
        return;
    }
    // Traced: the same prefix untraced, then traced; their wall-time
    // ratio is the tracing overhead.
    const std::size_t k = std::max<std::size_t>(1, ops.size() / 3);
    const std::vector<Op> prefix(ops.begin(), ops.begin() + k);
    sp.setOn(false);
    const Pass plain = pass(sp, prefix);
    sp.setOn(true);
    const Pass traced = pass(sp, prefix);
    recordOps(rep, prefix, plain.runs, "untraced");
    recordOps(rep, prefix, traced.runs, "traced");
    rep.wall = traced.wall;
    rep.cpu = traced.cpu;
    rep.untracedWall = plain.wall;
    rep.tracedWall = traced.wall;
}

void
runSweep(const Args& a, Report& rep, Spans& sp)
{
    const std::vector<Op> ops =
        sweepPlan(a.seed, opsFor(a.seconds, kSweepOpsPerSecond));
    std::vector<sim::SweepPoint> points;
    const double t0 = nowS();
    const auto cache = sweepSetup(sp, ops, points);
    rep.setup = nowS() - t0;
    if (a.setupOnly)
        return;
    runPasses(a, rep, ops, sp,
              [&](Spans& s, const std::vector<Op>& o) {
                  std::vector<sim::SweepPoint> pts(
                      points.begin(),
                      points.begin() + static_cast<std::ptrdiff_t>(o.size()));
                  return sweepRun(s, o, std::move(pts));
              });
}

void
runSearchWl(const Args& a, Report& rep, Spans& sp)
{
    const std::vector<Op> ops =
        searchPlan(a.seed, opsFor(a.seconds, kSearchOpsPerSecond));
    const double t0 = nowS();
    prog::WorkloadCache cache;
    for (const std::string& w : kSearchWorkloads)
        buildProgram(sp, cache, w);
    for (const Op& op : ops)
        searchConfig(op.workload, op.searchSeed).validate();
    rep.setup = nowS() - t0;
    if (a.setupOnly)
        return;
    runPasses(a, rep, ops, sp, [&](Spans& s, const std::vector<Op>& o) {
        return searchRun(s, o, cache);
    });
}

void
runServe(const Args& a, Report& rep, Spans& sp)
{
    const fs::path trace = fs::absolute(a.out / "replay-leela.cbtr");
    const std::vector<Op> ops = servePlan(
        a.seed, opsFor(a.seconds, kServeOpsPerSecond), trace.string());
    int pass = 0;
    auto setUp = [&](Spans& s) {
        const double t0 = nowS();
        ServeSetup st = serveSetup(
            s, a.out / ("pass-" + std::to_string(pass++)), trace.string());
        // A traced run sets up once per pass; the first is reported.
        if (pass == 1)
            rep.setup = nowS() - t0;
        return st;
    };
    if (a.setupOnly) {
        setUp(sp);
        return;
    }
    runPasses(a, rep, ops, sp, [&](Spans& s, const std::vector<Op>& o) {
        // Every pass gets a fresh spool, daemon and warm cache.
        ServeSetup st = setUp(s);
        return serveRun(s, o, st.spool);
    });
}

void
runProbes(const Args& a, Spans& sp, Report& rep)
{
    prog::WorkloadCache cache;
    const int all = sp.open("probes");
    probeSim(sp, cache);
    probeTrace(sp, cache, a.out);
    probeBpu(sp, cache);
    probeWarp(sp, cache);
    const fs::path trace = fs::absolute(a.out / "probe-replay.cbtr");
    const std::vector<Op> reqs = servePlan(1, 20, trace.string());
    probeServeParts(sp, reqs, a.out);
    // Layers the workload itself does not reach get a small run of the
    // workload that does, so every per-layer metric is measured.
    std::vector<OpRun> extra;
    if (a.workload != "search")
        extra = searchRun(sp, searchPlan(1, 2), cache).runs;
    if (a.workload != "serve") {
        ServeSetup st = serveSetup(sp, a.out / "probe-serve",
                                   trace.string());
        for (const OpRun& r : serveRun(sp, reqs, st.spool).runs)
            extra.push_back(r);
    }
    sp.close(all, "");
    for (const OpRun& r : extra)
        rep.probeFailures += r.ok ? 0 : 1;
}

int
usage(const char* msg)
{
    std::cerr << "cobra_perfbench: " << msg
              << "\nusage: cobra_perfbench --workload sweep|search|serve "
                 "--seed N --seconds S --trace 0|1 --out DIR "
                 "[--plan | --setup-only]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(k + " needs a value");
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = val();
            else if (k == "--seed")
                a.seed = std::stoull(val());
            else if (k == "--seconds")
                a.seconds = std::stod(val());
            else if (k == "--trace")
                a.trace = val() == "1";
            else if (k == "--out")
                a.out = val();
            else if (k == "--plan")
                a.plan = true;
            else if (k == "--setup-only")
                a.setupOnly = true;
            else
                return usage(("unknown flag " + k).c_str());
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (a.workload != "sweep" && a.workload != "search" &&
        a.workload != "serve")
        return usage("unknown workload");
    if (a.seconds <= 0.0)
        return usage("--seconds must be > 0");

    if (a.plan) {
        std::vector<Op> ops;
        if (a.workload == "sweep")
            ops = sweepPlan(a.seed, opsFor(a.seconds, kSweepOpsPerSecond));
        else if (a.workload == "search")
            ops = searchPlan(a.seed, opsFor(a.seconds, kSearchOpsPerSecond));
        else
            ops = servePlan(a.seed, opsFor(a.seconds, kServeOpsPerSecond),
                            "TRACE");
        std::cout << planJson(a.workload, a.seed, ops) << "\n";
        return 0;
    }
    if (a.out.empty())
        return usage("--out is required");

    try {
        fs::create_directories(a.out);
        Report rep;
        rep.workload = a.workload;
        rep.seed = a.seed;
        rep.seconds = a.seconds;
        rep.traced = a.trace;
        Spans sp(a.trace);
        if (a.workload == "sweep")
            runSweep(a, rep, sp);
        else if (a.workload == "search")
            runSearchWl(a, rep, sp);
        else
            runServe(a, rep, sp);
        if (a.trace && !a.setupOnly) {
            runProbes(a, sp, rep);
            sp.write(a.out / "trace.json");
        }
        writeReport(a.out / "report.json", rep);
    } catch (const std::exception& e) {
        std::cerr << "cobra_perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
