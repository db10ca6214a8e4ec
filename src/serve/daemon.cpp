#include "serve/daemon.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <system_error>
#include <thread>

#include "common/json.hpp"
#include "guard/errors.hpp"
#include "search/driver.hpp"
#include "sim/presets.hpp"
#include "trace/replay.hpp"
#include "warp/state_io.hpp"
#include "warp/warp.hpp"

namespace cobra::serve {

namespace {

std::string
fragmentHead(const std::string& label, const std::string& status,
             unsigned attempts)
{
    std::ostringstream os;
    os << "    {\n      \"label\": \"" << jsonEscape(label) << "\",\n"
       << "      \"status\": \"" << status << "\",\n"
       << "      \"attempts\": " << attempts;
    return os.str();
}

std::string
okFragment(const std::string& label, unsigned attempts,
           const sim::SimResult& r, double wall_seconds,
           const warp::WarpEstimate* est)
{
    std::ostringstream os;
    os << fragmentHead(label, "ok", attempts) << ",\n";
    sim::writeResultFields(os, r, "      ", /*trailing_comma=*/true);
    if (est != nullptr) {
        os << "      \"warp\": {\n"
           << "        \"intervals\": " << est->intervals.size()
           << ",\n"
           << "        \"warm_hits\": " << est->warmHits << ",\n"
           << "        \"ff_insts\": " << est->ffInsts << ",\n"
           << "        \"ipc_ci95\": " << est->ipcCi95 << ",\n"
           << "        \"mpki_ci95\": " << est->mpkiCi95 << "\n"
           << "      },\n";
    }
    os << "      \"wall_seconds\": " << wall_seconds << "\n    }";
    return os.str();
}

std::string
failedFragment(const PointRecord& rec)
{
    std::ostringstream os;
    os << fragmentHead(rec.label, rec.status, rec.attempts) << ",\n"
       << "      \"error_class\": \"" << jsonEscape(rec.errorClass)
       << "\",\n"
       << "      \"error\": \"" << jsonEscape(rec.error)
       << "\"\n    }";
    return os.str();
}

std::string
stubFragment(const std::string& label, const std::string& status,
             unsigned attempts)
{
    return fragmentHead(label, status, attempts) + "\n    }";
}

/** Re-indent a pretty-printed JSON document for inline embedding:
 *  every line but the first gets @p pad; the trailing newline goes. */
std::string
indentInline(const std::string& doc, const char* pad)
{
    std::string out;
    out.reserve(doc.size());
    for (std::size_t i = 0; i < doc.size(); ++i) {
        out += doc[i];
        if (doc[i] == '\n' && i + 1 < doc.size())
            out += pad;
    }
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

std::string
searchFragment(const std::string& label, unsigned attempts,
               const search::SearchResult& r, double wall_seconds)
{
    std::ostringstream os;
    os << fragmentHead(label, "ok", attempts) << ",\n"
       << "      \"functional_evals\": " << r.functionalEvals << ",\n"
       << "      \"warp_evals\": " << r.warpEvals << ",\n"
       << "      \"detailed_evals\": " << r.detailedEvals << ",\n"
       << "      \"evals_saved\": " << r.evalsSaved << ",\n"
       << "      \"frontier_size\": " << r.frontier.size() << ",\n"
       << "      \"search\": "
       << indentInline(search::frontierJson(r), "      ") << ",\n"
       << "      \"wall_seconds\": " << wall_seconds << "\n    }";
    return os.str();
}

/** Wall-clock seconds since @p t0. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
stemOf(const std::string& fname)
{
    return fname.size() > 5 ? fname.substr(0, fname.size() - 5)
                            : fname;
}

/** Longest idle wait: an hour, and an int for poll(). */
constexpr std::uint64_t kMaxPollMs = 3'600'000;

/** @p cfg checked, with jobs == 0 resolved once, so a bad COBRA_JOBS
 *  fails the daemon's start rather than its first request. */
ServeConfig
validated(const ServeConfig& cfg)
{
    cfg.validate();
    ServeConfig out = cfg;
    if (out.jobs == 0)
        out.jobs = sim::SweepEngine::defaultJobs();
    return out;
}

} // namespace

void
ServeConfig::validate() const
{
    // 0 would spin, rewriting status.json in a tight loop.
    if (pollMs < 1 || pollMs > kMaxPollMs)
        throw guard::ConfigError(
            "pollMs", "must be in [1, " + std::to_string(kMaxPollMs) +
                          "] ms, got " + std::to_string(pollMs));
}

Daemon::Daemon(const ServeConfig& cfg)
    : cfg_(validated(cfg)), spool_(cfg.spoolRoot),
      journal_(spool_.journalPath()), warm_(spool_.warmDir())
{
    registry_.add("serve", stats_);
    registry_.add("serve.warm_cache", warm_.stats());
}

std::size_t
Daemon::run(const std::atomic<bool>& stop)
{
    // Armed before the first scan of incoming/, and each wait drains
    // it, so every arrival after a scan rings for the next wait.
    // --once never waits, and closing an armed watch costs ~15 ms of
    // kernel teardown, so it stays disarmed there.
    IncomingWatch doorbell =
        cfg_.once ? IncomingWatch() : spool_.watchIncoming();
    recover();
    writeStatusDoc("running");

    while (!stop.load(std::memory_order_relaxed)) {
        admitIncoming();
        const bool ran = executeNext(stop);
        writeStatusDoc(stop.load(std::memory_order_relaxed)
                           ? "draining"
                           : "running");
        if (cfg_.once) {
            if (!ran && queue_.empty() && spool_.scanIncoming().empty())
                break;
            continue;
        }
        if (!ran && !stop.load(std::memory_order_relaxed) &&
            doorbell.wait(static_cast<int>(cfg_.pollMs)))
            ++arrivalWakeups_;
    }

    // Graceful exit: whatever is still queued stays in active/ with
    // its journal records intact, so the next daemon resumes it.
    checkpointJournal();
    writeStatusDoc("stopped");
    return retired_;
}

// ---- Intake -------------------------------------------------------------

void
Daemon::recover()
{
    Journal::replay(spool_.journalPath(), [this](const Json& rec) {
        const std::string ev = rec.getString("ev", "");
        const std::string id = rec.getString("id", "");
        if (ev == "point") {
            PointRecord p;
            p.status = rec.getString("status", "failed");
            p.errorClass = rec.getString("error_class", "");
            p.error = rec.getString("error", "");
            p.attempts =
                static_cast<unsigned>(rec.getU64("attempts", 1));
            p.fragment = rec.getString("fragment", "");
            recovered_[id][static_cast<std::size_t>(
                rec.getU64("idx", 0))] = std::move(p);
        } else if (ev == "done") {
            recoveredDone_[id] = rec.getString("status", "failed");
        }
    });

    for (const std::string& fname : spool_.scanActive()) {
        std::string text;
        try {
            text = readFileText(spool_.activeDir() + "/" + fname);
        } catch (const std::exception&) {
            continue;
        }
        const std::string stem = stemOf(fname);
        SweepRequest req;
        try {
            req = SweepRequest::parse(text, stem);
        } catch (const RequestError& e) {
            spool_.writeResult(
                stem, renderResultDoc(stem, "", 0, "rejected",
                                      "invalid_request", e.what(), {}));
            journal_.append(Journal::doneLine(stem, "rejected"));
            spool_.finish(fname, /*ok=*/false);
            ++rejectedReqs_;
            continue;
        }

        const auto done = recoveredDone_.find(req.id);
        if (done != recoveredDone_.end()) {
            // Crashed between the done record and the retire rename:
            // the result document is already published; just retire.
            spool_.finish(fname, done->second == "ok");
            ++retired_;
            continue;
        }

        RequestState rs;
        rs.fname = fname;
        rs.req = req;
        rs.specs = req.points();
        rs.points.resize(rs.specs.size());
        for (std::size_t i = 0; i < rs.specs.size(); ++i)
            rs.points[i].label = rs.specs[i].label;
        std::size_t replayed = 0;
        const auto rec = recovered_.find(req.id);
        if (rec != recovered_.end()) {
            for (const auto& [idx, p] : rec->second) {
                if (idx >= rs.points.size())
                    continue;
                rs.points[idx] = p;
                rs.points[idx].label = rs.specs[idx].label;
                ++recoveredPoints_;
                ++replayed;
            }
        }
        if (cfg_.verbose) {
            std::cerr << "cobra_serve: recovered " << req.id << " ("
                      << replayed << " of " << rs.points.size()
                      << " points journaled)\n";
        }
        queue_.push_back(std::move(rs));
    }
    recovered_.clear();
    recoveredDone_.clear();
    // Compact away retired requests and any torn tail. An empty
    // journal (a fresh spool) has neither, so a cold start skips the
    // durable rewrite.
    std::error_code ec;
    if (std::filesystem::file_size(spool_.journalPath(), ec) != 0)
        checkpointJournal();
}

void
Daemon::admitIncoming()
{
    for (const std::string& fname : spool_.scanIncoming())
        admitOne(fname);
}

std::size_t
Daemon::clientLoad(const std::string& client) const
{
    std::size_t n = 0;
    for (const RequestState& rs : queue_) {
        if (rs.req.client == client)
            n += rs.specs.size();
    }
    return n;
}

bool
Daemon::admitOne(const std::string& fname)
{
    std::string text;
    try {
        text = readFileText(spool_.incomingDir() + "/" + fname);
    } catch (const std::exception&) {
        return false; // Vanished between scan and read.
    }
    const std::string stem = stemOf(fname);

    SweepRequest req;
    try {
        req = SweepRequest::parse(text, stem);
    } catch (const RequestError& e) {
        rejectIncoming(fname, stem, "invalid_request", e.what(), {});
        return false;
    }
    const std::vector<PointSpec> specs = req.points();

    if (!req.tracePath.empty()) {
        // Open, decode and check the replay trace now: a corrupt file
        // or a (program, seed, budget) mismatch is an admission-time
        // rejection with the validator's own message, not N failing
        // points later. The decode is content-addressed, so the
        // worker-side getTrace below is a cache hit.
        try {
            const auto tr = programs_.getTrace(req.tracePath);
            trace::validateReplayMeta(
                tr->meta, programs_.get(req.workloads.front()),
                req.makeConfig(req.designs.front()).oracleSeed,
                req.warmup + req.insts);
        } catch (const std::exception& e) {
            rejectIncoming(fname, req.id, "invalid_trace", e.what(),
                           specs);
            return false;
        }
    }

    for (const RequestState& rs : queue_) {
        if (rs.req.id == req.id) {
            rejectIncoming(fname, req.id, "duplicate_id",
                           "a queued request already uses this id",
                           specs);
            return false;
        }
    }
    if (specs.size() > cfg_.maxPointsPerRequest) {
        rejectIncoming(fname, req.id, "too_large",
                       std::to_string(specs.size()) +
                           " points exceeds the per-request limit of " +
                           std::to_string(cfg_.maxPointsPerRequest),
                       specs);
        return false;
    }
    if (clientLoad(req.client) + specs.size() >
        cfg_.maxPointsPerClient) {
        rejectIncoming(fname, req.id, "quota",
                       "client '" + req.client +
                           "' would exceed its queued-point quota of " +
                           std::to_string(cfg_.maxPointsPerClient),
                       specs);
        return false;
    }
    if (queue_.size() >= cfg_.maxQueue) {
        // Shed the lowest-priority queued request (latest submission
        // among equals) if the newcomer outranks it; otherwise refuse
        // the newcomer. Either way the loser gets an explicit
        // `rejected` result document.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < queue_.size(); ++i) {
            if (queue_[i].req.priority <= queue_[victim].req.priority)
                victim = i;
        }
        if (queue_[victim].req.priority >= req.priority) {
            rejectIncoming(fname, req.id, "queue_full",
                           "queue is full and no queued request has "
                           "lower priority",
                           specs);
            return false;
        }
        RequestState rs = std::move(queue_[victim]);
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(victim));
        for (std::size_t i = 0; i < rs.points.size(); ++i) {
            if (!rs.points[i].final()) {
                rs.points[i].status = "rejected";
                rs.points[i].fragment = stubFragment(
                    rs.points[i].label, "rejected", 0);
            }
        }
        spool_.writeResult(
            rs.req.id,
            renderResultDoc(rs.req.id, rs.req.client, rs.req.priority,
                            "rejected", "shed",
                            "evicted by a priority-" +
                                std::to_string(req.priority) +
                                " request on a full queue",
                            rs.points));
        journal_.append(Journal::doneLine(rs.req.id, "rejected"));
        spool_.finish(rs.fname, /*ok=*/false);
        ++shed_;
        if (cfg_.verbose) {
            std::cerr << "cobra_serve: shed " << rs.req.id
                      << " (priority " << rs.req.priority << ") for "
                      << req.id << " (priority " << req.priority
                      << ")\n";
        }
    }

    // Journal the acceptance BEFORE the claim rename: a crash between
    // the two replays as a harmless re-admission, never a lost file.
    journal_.append(Journal::acceptLine(req.id, req.client,
                                        req.priority, specs.size()));
    if (!spool_.claim(fname))
        return false; // The client withdrew it; accept record is inert.

    RequestState rs;
    rs.fname = fname;
    rs.req = std::move(req);
    rs.specs = specs;
    rs.points.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        rs.points[i].label = specs[i].label;
    if (cfg_.verbose) {
        std::cerr << "cobra_serve: accepted " << rs.req.id << " ("
                  << rs.specs.size() << " points, priority "
                  << rs.req.priority << ", client " << rs.req.client
                  << ")\n";
    }
    queue_.push_back(std::move(rs));
    ++accepted_;
    return true;
}

void
Daemon::rejectIncoming(const std::string& fname, const std::string& id,
                       const std::string& reason,
                       const std::string& detail,
                       const std::vector<PointSpec>& specs)
{
    std::vector<PointRecord> points(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        points[i].label = specs[i].label;
        points[i].status = "rejected";
        points[i].fragment =
            stubFragment(specs[i].label, "rejected", 0);
    }
    spool_.writeResult(id, renderResultDoc(id, "", 0, "rejected",
                                           reason, detail, points));
    spool_.reject(fname);
    ++rejectedReqs_;
    if (cfg_.verbose) {
        std::cerr << "cobra_serve: rejected " << id << " (" << reason
                  << ": " << detail << ")\n";
    }
}

// ---- Execution ----------------------------------------------------------

bool
Daemon::executeNext(const std::atomic<bool>& stop)
{
    if (queue_.empty() || stop.load(std::memory_order_relaxed))
        return false;
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].req.priority > queue_[best].req.priority)
            best = i;
    }
    RequestState rs = std::move(queue_[best]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

    executeRequest(rs, stop);

    if (!rs.allFinal()) {
        finishRequest(rs, /*interrupted=*/true);
        parked_.push_back(std::move(rs));
    } else {
        finishRequest(rs, /*interrupted=*/false);
    }
    return true;
}

void
Daemon::executeRequest(RequestState& rs, const std::atomic<bool>& stop)
{
    unsigned attempt = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::size_t> pending;
        for (std::size_t i = 0; i < rs.points.size(); ++i) {
            if (!rs.points[i].final())
                pending.push_back(i);
        }
        if (pending.empty())
            break;
        if (attempt > 0) {
            retries_ += pending.size();
            backoffSleep(attempt, stop);
            if (stop.load(std::memory_order_relaxed))
                break;
        }
        if (rs.req.kind == "search") {
            // A search request is one logical point: the autopilot
            // drives its own SweepEngine tiers internally. It rides
            // the same retry/backoff/drain machinery as sweep points.
            for (std::size_t idx : pending) {
                if (stop.load(std::memory_order_relaxed))
                    break;
                runSearchPoint(rs, idx, attempt);
            }
        } else if (rs.req.warp) {
            // Warp points run one at a time, each a one-job runWarps
            // batch whose intervals share the pool. Serve does not
            // batch them the way cobra_sim --warp does: the journal
            // records each point as it finishes, and WarmCache's
            // lookup and store hooks are not synchronised, which a
            // batch's concurrent serial phases would need.
            for (std::size_t idx : pending) {
                if (stop.load(std::memory_order_relaxed))
                    break;
                runWarpPoint(rs, idx, attempt);
            }
        } else {
            runDetailedRound(rs, pending, attempt, stop);
        }
        if (attempt >= rs.req.maxRetries)
            break; // handleOutcome finalized everything this round.
        ++attempt;
    }
}

void
Daemon::runDetailedRound(RequestState& rs,
                         const std::vector<std::size_t>& idxs,
                         unsigned attempt,
                         const std::atomic<bool>& stop)
{
    sim::SweepEngine engine(cfg_.jobs);
    engine.setStopFlag(&stop);
    engine.setOnOutcome(
        [this, &rs, &idxs, attempt](std::size_t sub,
                                    const sim::SweepOutcome& o) {
            std::lock_guard<std::mutex> lk(finalizeM_);
            handleOutcome(rs, idxs[sub], o, attempt);
        });

    for (std::size_t idx : idxs) {
        const PointSpec& spec = rs.specs[idx];
        sim::SweepPoint pt;
        pt.label = spec.label;
        pt.topology = [d = spec.design] {
            return sim::buildTopology(d);
        };
        pt.program = &programs_.get(spec.workload);
        pt.cfg = rs.req.makeConfig(spec.design);
        if (!rs.req.tracePath.empty())
            pt.cfg.replayTrace = programs_.getTrace(rs.req.tracePath);
        if (rs.req.pointTimeoutMs > 0) {
            // Cooperative wall-clock watchdog: drive the simulation
            // in bounded cycle slices and check the deadline between
            // them, so a runaway point becomes a guard::TimeoutError
            // instead of a hung worker.
            const std::uint64_t limit_ms = rs.req.pointTimeoutMs;
            const std::uint64_t slice = cfg_.watchdogSliceCycles;
            const std::string label = spec.label;
            pt.execute = [limit_ms, slice,
                          label](sim::Simulator& s) {
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(limit_ms);
                std::uint64_t stop_cycle = slice;
                while (s.advanceTo(stop_cycle)) {
                    if (std::chrono::steady_clock::now() >= deadline)
                        throw guard::TimeoutError(label, limit_ms);
                    stop_cycle += slice;
                }
                // finishRun(), not run(): run() would tick a stalled
                // point once more before reporting it.
                return s.finishRun();
            };
        }
        engine.add(std::move(pt));
    }
    engine.run(); // Outcomes are consumed by the onOutcome hook.
}

void
Daemon::runInlinePoint(RequestState& rs, std::size_t idx,
                       unsigned attempt, const InlineWork& work)
{
    sim::SweepOutcome o;
    o.label = rs.specs[idx].label;
    const auto t0 = std::chrono::steady_clock::now();
    std::string fragment;
    try {
        fragment = work(o, t0);
    } catch (...) {
        guard::captureCurrentException(o.error, o.errorClass);
    }
    o.host.wallSeconds = secondsSince(t0);

    std::lock_guard<std::mutex> lk(finalizeM_);
    handleOutcome(rs, idx, o, attempt, std::move(fragment));
}

void
Daemon::runWarpPoint(RequestState& rs, std::size_t idx,
                     unsigned attempt)
{
    const PointSpec& spec = rs.specs[idx];
    const SweepRequest& req = rs.req;
    runInlinePoint(rs, idx, attempt, [&](sim::SweepOutcome& o, auto t0) {
        warp::WarpJob job{&programs_.get(spec.workload),
                          [d = spec.design] { return sim::buildTopology(d); },
                          req.makeConfig(spec.design), {}};
        if (!req.tracePath.empty())
            job.cfg.replayTrace = programs_.getTrace(req.tracePath);
        job.wcfg.intervals = req.intervals;
        job.wcfg.warmupCycles = req.warmupCycles;
        job.wcfg.sampleInsts = req.sampleInsts;
        const std::uint64_t hash = configHash(req, spec.design);
        const auto key = [&, hash](unsigned i) {
            return warm_.keyPath(spec.workload, hash, req.intervals, i);
        };
        job.wcfg.snapshotLookup = [&](unsigned i, warp::Snapshot& out) {
            return warm_.lookup(key(i), out);
        };
        job.wcfg.snapshotStore = [&](unsigned i, const warp::Snapshot& s) {
            warm_.store(key(i), s);
        };

        const std::vector<warp::WarpOutcome> out =
            warp::runWarps({job}, cfg_.jobs);
        if (out[0].exception)
            std::rethrow_exception(out[0].exception);
        o.result = out[0].estimate.estimate;
        return okFragment(o.label, attempt + 1, o.result,
                          secondsSince(t0), &out[0].estimate);
    });
}

void
Daemon::runSearchPoint(RequestState& rs, std::size_t idx,
                       unsigned attempt)
{
    search::SearchConfig cfg = rs.req.searchCfg;
    if (cfg.jobs == 0)
        cfg.jobs = cfg_.jobs;
    runInlinePoint(rs, idx, attempt, [&](sim::SweepOutcome& o, auto t0) {
        const search::SearchResult r = search::runSearch(cfg, programs_);
        return searchFragment(o.label, attempt + 1, r, secondsSince(t0));
    });
}

void
Daemon::handleOutcome(RequestState& rs, std::size_t idx,
                      const sim::SweepOutcome& o, unsigned attempt,
                      std::string fragment)
{
    if (o.errorClass == "interrupted")
        return; // Never ran: stays pending for the next daemon.

    PointRecord rec = rs.points[idx];
    rec.attempts = attempt + 1;

    if (o.ok() && !o.result.deadlocked) {
        rec.status = "ok";
        rec.errorClass.clear();
        rec.error.clear();
        rec.fragment = fragment.empty()
                           ? okFragment(rec.label, rec.attempts,
                                        o.result, o.host.wallSeconds,
                                        nullptr)
                           : std::move(fragment);
        finalizePoint(rs, idx, std::move(rec));
        return;
    }

    // Simulator::run() reports a watchdog deadlock in the result
    // rather than throwing; fold it into the same taxonomy.
    const std::string cls = o.ok() ? "deadlock" : o.errorClass;
    const std::string err =
        o.ok() ? "no commit progress (deadlock watchdog)" : o.error;
    if (cls == "timeout")
        ++timeouts_;

    if (guard::errorClassTransient(cls) &&
        attempt < rs.req.maxRetries) {
        // Provisional: the point stays pending and retries after
        // backoff; only its final outcome reaches the journal.
        rs.points[idx].attempts = rec.attempts;
        rs.points[idx].errorClass = cls;
        rs.points[idx].error = err;
        return;
    }

    rec.status = "failed";
    rec.errorClass = cls;
    rec.error = err;
    rec.fragment = failedFragment(rec);
    finalizePoint(rs, idx, std::move(rec));
}

void
Daemon::finalizePoint(RequestState& rs, std::size_t idx,
                      PointRecord rec)
{
    journal_.append(Journal::pointLine(rs.req.id, idx, rec.status,
                                       rec.errorClass, rec.error,
                                       rec.attempts, rec.fragment));
    if (rec.status == "ok")
        ++pointsOk_;
    else
        ++pointsFailed_;
    if (cfg_.verbose) {
        std::cerr << "cobra_serve:   " << rs.req.id << "[" << idx
                  << "] " << rec.label << ": " << rec.status
                  << (rec.errorClass.empty() ? ""
                                             : " (" + rec.errorClass +
                                                   ")")
                  << "\n";
    }
    rs.points[idx] = std::move(rec);
}

void
Daemon::backoffSleep(unsigned attempt,
                     const std::atomic<bool>& stop) const
{
    std::uint64_t ms = cfg_.backoffBaseMs
                       << std::min(attempt - 1, 6u);
    ms = std::min<std::uint64_t>(ms, 5'000);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms);
    while (!stop.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint64_t>(ms, 20)));
    }
}

void
Daemon::finishRequest(RequestState& rs, bool interrupted)
{
    if (interrupted) {
        // Drain: flush what finished as a partial result document and
        // leave the request in active/ with its journal records so
        // the next daemon resumes the pending points.
        spool_.writeResult(
            rs.req.id,
            renderResultDoc(rs.req.id, rs.req.client, rs.req.priority,
                            "interrupted", "", "", rs.points));
        ++interrupted_;
        if (cfg_.verbose) {
            std::cerr << "cobra_serve: parked " << rs.req.id
                      << " (drain)\n";
        }
        return;
    }

    bool all_ok = true;
    for (const PointRecord& p : rs.points)
        all_ok = all_ok && p.status == "ok";
    const std::string status = all_ok ? "ok" : "failed";

    // Result first, then the done record, then the retire rename:
    // each crash window replays forward to this exact state.
    spool_.writeResult(rs.req.id,
                       renderResultDoc(rs.req.id, rs.req.client,
                                       rs.req.priority, status, "", "",
                                       rs.points));
    journal_.append(Journal::doneLine(rs.req.id, status));
    spool_.finish(rs.fname, all_ok);
    if (all_ok)
        ++completedOk_;
    else
        ++completedFailed_;
    ++retired_;
    if (cfg_.verbose) {
        std::cerr << "cobra_serve: retired " << rs.req.id << " ("
                  << status << ")\n";
    }
}

// ---- Documents ----------------------------------------------------------

std::string
Daemon::renderResultDoc(const std::string& id, const std::string& client,
                        int priority, const std::string& status,
                        const std::string& reason,
                        const std::string& detail,
                        const std::vector<PointRecord>& points) const
{
    std::ostringstream os;
    os << "{\n  \"tool\": \"cobra_serve\",\n"
       << "  \"id\": \"" << jsonEscape(id) << "\",\n"
       << "  \"client\": \"" << jsonEscape(client) << "\",\n"
       << "  \"priority\": " << priority << ",\n"
       << "  \"status\": \"" << jsonEscape(status) << "\",\n";
    if (!reason.empty())
        os << "  \"reason\": \"" << jsonEscape(reason) << "\",\n";
    if (!detail.empty())
        os << "  \"detail\": \"" << jsonEscape(detail) << "\",\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointRecord& p = points[i];
        if (!p.fragment.empty())
            os << p.fragment;
        else
            os << stubFragment(p.label,
                               p.final() ? p.status : "pending",
                               p.attempts);
        os << (i + 1 < points.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    return os.str();
}

void
Daemon::writeStatusDoc(const std::string& state)
{
    std::ostringstream os;
    os << "{\n  \"tool\": \"cobra_serve\",\n"
       << "  \"state\": \"" << state << "\",\n"
       << "  \"queued\": " << queue_.size() << ",\n"
       << "  \"parked\": " << parked_.size() << ",\n"
       << "  \"retired\": " << retired_ << ",\n"
       << "  \"stats\": ";
    registry_.writeJson(os, 2);
    os << "\n}\n";
    writeFileAtomic(spool_.statusPath(), os.str(), Durability::Advisory);
}

void
Daemon::checkpointJournal()
{
    std::vector<std::string> lines;
    auto emit = [&lines](const RequestState& rs) {
        lines.push_back(Journal::acceptLine(rs.req.id, rs.req.client,
                                            rs.req.priority,
                                            rs.specs.size()));
        for (std::size_t i = 0; i < rs.points.size(); ++i) {
            const PointRecord& p = rs.points[i];
            if (p.final()) {
                lines.push_back(Journal::pointLine(
                    rs.req.id, i, p.status, p.errorClass, p.error,
                    p.attempts, p.fragment));
            }
        }
    };
    for (const RequestState& rs : queue_)
        emit(rs);
    for (const RequestState& rs : parked_)
        emit(rs);
    journal_.checkpoint(lines);
}

std::uint64_t
Daemon::configHash(const SweepRequest& r,
                   const sim::DesignSpec& d) const
{
    // Every field that can influence checkpointed simulator state
    // feeds the content address; an extra field only costs a cold
    // fast-forward pass, a missing one would be caught anyway by the
    // fingerprint check inside warp::runWarps (defense in depth).
    // Hashing the full serialized spec (not just its name) keeps two
    // inline "design_spec" documents that share a name from aliasing
    // each other's warm snapshots. The fault rate goes in as its bit
    // pattern: printed at stream precision, 1e-4 and 1.0000001e-4
    // would share a key and evict each other's snapshots.
    std::ostringstream os;
    os << d.toJson() << '|' << r.insts << '|' << r.warmup
       << '|' << static_cast<int>(r.ghist) << '|' << r.sfb << '|'
       << r.serialize << '|' << r.audit << '|'
       << std::bit_cast<std::uint64_t>(r.faultRate) << '|'
       << r.faultSeed << '|' << r.deadlockCycles << '|' << r.intervals
       << '|' << r.warmupCycles << '|' << r.sampleInsts;
    const std::string key = os.str();
    return warp::fnv1a(reinterpret_cast<const std::uint8_t*>(key.data()),
                       key.size());
}

} // namespace cobra::serve
