/**
 * @file
 * cobra_serve: a long-lived, fault-tolerant sweep-evaluation daemon.
 * Clients drop JSON sweep-request documents into `<spool>/incoming/`
 * (write-then-rename); the daemon admits them through priority/quota
 * control, executes each (design x workload) grid on the SweepEngine
 * pool with per-point isolation, retries, and wall-clock watchdogs,
 * and publishes one result document per request under
 * `<spool>/results/` plus a continuously-refreshed
 * `<spool>/status.json`. See docs/SERVICE.md for schemas, the failure
 * taxonomy, and the drain/restart runbook.
 *
 * Usage:
 *   cobra_serve --spool DIR [--jobs N] [--once] [--poll-ms N]
 *               [--max-queue N] [--max-points N] [--client-quota N]
 *               [--backoff-ms N] [--verbose]
 *
 * Intake: the rename into incoming/ wakes an idle daemon at once
 * (inotify); --poll-ms only bounds the idle wait, which matters for
 * writers that skip the rename and where inotify is unavailable.
 *
 * Signals: SIGTERM/SIGINT start a graceful drain — in-flight points
 * finish, partial results flush, the journal checkpoints, and undone
 * work stays in `active/` for the next daemon. An idle daemon drains
 * at once: the signal ends its wait. A second signal (or kill -9) is
 * also safe: recovery replays the journal on restart.
 */

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_flags.hpp"
#include "serve/daemon.hpp"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

void
usage()
{
    std::cout <<
        "cobra_serve — fault-tolerant sweep-evaluation daemon\n"
        "\n"
        "  --spool DIR        spool root (default ./spool); creates\n"
        "                     incoming/ active/ done/ failed/ results/\n"
        "                     warm/ plus journal.log and status.json\n"
        "  --jobs N           sweep worker threads (default: COBRA_JOBS,\n"
        "                     else hardware concurrency)\n"
        "  --once             drain the spool and exit (no watch loop)\n"
        "  --poll-ms N        longest idle wait in ms, 1..3600000\n"
        "                     (default 200). A request renamed into\n"
        "                     incoming/ wakes the daemon at once; this\n"
        "                     bounds the rescan for writers that skip\n"
        "                     the rename, or where inotify is missing\n"
        "  --max-queue N      max admitted-but-not-running requests\n"
        "                     (default 8); a full queue sheds the\n"
        "                     lowest-priority entry for a higher one\n"
        "  --max-points N     max grid points per request (default 64)\n"
        "  --client-quota N   max queued points per client (default 128)\n"
        "  --backoff-ms N     transient-failure retry backoff base\n"
        "                     (default 50; doubles per attempt)\n"
        "  --verbose          log admissions/retirements to stderr\n";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cobra::cli;

    cobra::serve::ServeConfig cfg;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    throw std::runtime_error("missing value for " + a);
                return argv[i];
            };
            if (a == "--spool")
                cfg.spoolRoot = next();
            else if (a == "--jobs")
                cfg.jobs = parseUnsigned(a, next());
            else if (a == "--once")
                cfg.once = true;
            else if (a == "--poll-ms")
                cfg.pollMs = parseU64(a, next());
            else if (a == "--max-queue")
                cfg.maxQueue = parseU64(a, next());
            else if (a == "--max-points")
                cfg.maxPointsPerRequest = parseU64(a, next());
            else if (a == "--client-quota")
                cfg.maxPointsPerClient = parseU64(a, next());
            else if (a == "--backoff-ms")
                cfg.backoffBaseMs = parseU64(a, next());
            else if (a == "--verbose")
                cfg.verbose = true;
            else if (a == "--help" || a == "-h") {
                usage();
                return 0;
            } else {
                throw std::runtime_error("unknown option: " + a);
            }
        }
        cfg.validate();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n\n";
        usage();
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    try {
        cobra::serve::Daemon daemon(cfg);
        const std::size_t retired = daemon.run(g_stop);
        std::cerr << "cobra_serve: "
                  << (g_stop.load() ? "drained" : "done") << ", "
                  << retired << " request(s) retired\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
