/**
 * @file
 * cobra_search — the design-space autopilot CLI (docs/SEARCH.md).
 *
 * Samples a budgeted pool of predictor compositions, prunes it with
 * the functional-feature ridge surrogate, ranks survivors with warp
 * interval sampling, certifies finalists with full detailed runs, and
 * emits the reproducible Pareto-frontier artifact.
 *
 * Exit codes: 0 success, 1 usage/config error.
 */

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "program/workload.hpp"
#include "search/driver.hpp"

namespace {

void
usage()
{
    std::cout <<
        "cobra_search — budgeted composition search over predictor "
        "designs\n"
        "\n"
        "  --search-seed N      candidate-generation seed (default\n"
        "                       0xC0B7A); the same seed reproduces the\n"
        "                       same frontier byte-for-byte\n"
        "  --pool N             candidate pool size incl. the paper\n"
        "                       anchors (default 32)\n"
        "  --budget-kb N        storage budget in KB (default 0 =\n"
        "                       unlimited)\n"
        "  --budget-um2 X       area budget in um^2 under the FinFET\n"
        "                       proxy (default 0 = unlimited)\n"
        "  --workload NAMES     comma-separated workloads scored by\n"
        "                       every tier (default mcf)\n"
        "  --no-anchors         exclude the paper presets from the pool\n"
        "  --seed-evals N       functional evals fitting the surrogate\n"
        "                       (default 10; >= pool disables pruning)\n"
        "  --survivors N        candidates kept past the surrogate\n"
        "                       prune (default 14)\n"
        "  --warp-survivors N   candidates ranked by warp sampling\n"
        "                       (default 5)\n"
        "  --finalists N        non-anchor candidates certified by\n"
        "                       full detailed runs (default 2)\n"
        "  --trace-branches N   tier-0/1 trace length (default 60000)\n"
        "  --trace-warmup N     unmeasured trace prefix (default 15000)\n"
        "  --warp-insts N       tier-2 run length (default 200000)\n"
        "  --intervals N        tier-2 warp intervals (default 4)\n"
        "  --sample-insts N     tier-2 detailed insts per interval\n"
        "                       (default 0 = whole interval)\n"
        "  --insts N            tier-3 run length (default 400000)\n"
        "  --warmup N           tier-3 warmup (default 120000)\n"
        "  --ridge-lambda X     surrogate L2 penalty (default 1.0)\n"
        "  --jobs N             worker threads (all tiers)\n"
        "  --out PATH           write the frontier artifact JSON to\n"
        "                       PATH (default: stdout after the table)\n"
        "  --progress           per-tier progress on stderr\n"
        "  --help\n";
}

std::uint64_t
parseU64(const std::string& flag, const std::string& v)
{
    try {
        std::size_t end = 0;
        const std::uint64_t n = std::stoull(v, &end, 0); // 0x ok
        if (end != v.size())
            throw std::invalid_argument(v);
        return n;
    } catch (const std::exception&) {
        throw std::runtime_error("invalid number for " + flag + ": '" +
                                 v + "'");
    }
}

double
parseDouble(const std::string& flag, const std::string& v)
{
    try {
        std::size_t end = 0;
        const double d = std::stod(v, &end);
        if (end != v.size())
            throw std::invalid_argument(v);
        return d;
    } catch (const std::exception&) {
        throw std::runtime_error("invalid number for " + flag + ": '" +
                                 v + "'");
    }
}

std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cobra;

    search::SearchConfig cfg;
    std::string outPath;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    throw std::runtime_error("missing value for " + a);
                return argv[i];
            };
            if (a == "--search-seed")
                cfg.seed = parseU64(a, next());
            else if (a == "--pool")
                cfg.pool = static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--budget-kb")
                cfg.budget.storageKb = parseU64(a, next());
            else if (a == "--budget-um2")
                cfg.budget.areaUm2 = parseDouble(a, next());
            else if (a == "--workload")
                cfg.workloads = splitList(next());
            else if (a == "--no-anchors")
                cfg.anchors = false;
            else if (a == "--seed-evals")
                cfg.seedEvals =
                    static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--survivors")
                cfg.functionalSurvivors =
                    static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--warp-survivors")
                cfg.warpSurvivors =
                    static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--finalists")
                cfg.finalists =
                    static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--trace-branches")
                cfg.traceBranches = parseU64(a, next());
            else if (a == "--trace-warmup")
                cfg.traceWarmup = parseU64(a, next());
            else if (a == "--warp-insts")
                cfg.warpInsts = parseU64(a, next());
            else if (a == "--intervals")
                cfg.warpIntervals =
                    static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--sample-insts")
                cfg.warpSampleInsts = parseU64(a, next());
            else if (a == "--insts")
                cfg.detailInsts = parseU64(a, next());
            else if (a == "--warmup")
                cfg.detailWarmup = parseU64(a, next());
            else if (a == "--ridge-lambda")
                cfg.ridgeLambda = parseDouble(a, next());
            else if (a == "--jobs")
                cfg.jobs = static_cast<unsigned>(parseU64(a, next()));
            else if (a == "--out")
                outPath = next();
            else if (a == "--progress")
                cfg.progress = true;
            else if (a == "--help" || a == "-h") {
                usage();
                return 0;
            } else {
                throw std::runtime_error("unknown flag: " + a);
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "cobra_search: " << e.what() << "\n\n";
        usage();
        return 1;
    }

    try {
        prog::WorkloadCache cache;
        const search::SearchResult r = search::runSearch(cfg, cache);

        // Human summary: the certified frontier.
        std::printf("cobra_search: seed %llu, pool %zu, "
                    "%u functional / %u warp / %u detailed evals "
                    "(%u saved by surrogate)\n",
                    static_cast<unsigned long long>(cfg.seed),
                    r.candidates.size(), r.functionalEvals,
                    r.warpEvals, r.detailedEvals, r.evalsSaved);
        std::printf("%-16s %10s %12s %8s %10s %10s\n", "frontier",
                    "accuracy", "area um^2", "latency", "ipc",
                    "mpki");
        for (std::size_t i : r.frontier) {
            const auto& c = r.candidates[i];
            std::printf("%-16s %10.4f %12.1f %8u %10.4f %10.4f\n",
                        c.id.c_str(), c.detail.accuracy, c.areaUm2,
                        c.latency, c.detail.ipc, c.detail.mpki);
        }

        const std::string doc = search::frontierJson(r);
        if (outPath.empty()) {
            std::cout << doc;
        } else {
            std::ofstream out(outPath);
            if (!out)
                throw std::runtime_error("cannot write " + outPath);
            out << doc;
            std::printf("frontier artifact: %s\n", outPath.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "cobra_search: " << e.what() << '\n';
        return 1;
    }
}
