#include "search/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "bpu/composer.hpp"
#include "common/json.hpp"
#include "guard/errors.hpp"
#include "search/space.hpp"
#include "search/surrogate.hpp"
#include "sim/sweep.hpp"
#include "trace/batch_eval.hpp"
#include "trace/trace.hpp"
#include "warp/warp.hpp"

namespace cobra::search {

namespace {

constexpr std::uint64_t kBitsPerKb = 8192;

const char*
presetCliName(sim::Design d)
{
    switch (d) {
      case sim::Design::Tourney: return "tourney";
      case sim::Design::B2: return "b2";
      case sim::Design::TageL: return "tagel";
      case sim::Design::RefBig: return "refbig";
    }
    return "?";
}

void
note(const SearchConfig& cfg, const std::string& line)
{
    if (cfg.progress)
        std::fprintf(stderr, "cobra_search: %s\n", line.c_str());
}

/** Stable ordering key: sort by a metric, tie on area then id. */
template <typename Metric>
std::vector<std::size_t>
rankBy(const std::vector<Candidate>& cands,
       const std::vector<std::size_t>& idx, Metric metric,
       bool descending)
{
    std::vector<std::size_t> order = idx;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double ma = metric(cands[a]);
                  const double mb = metric(cands[b]);
                  if (ma != mb)
                      return descending ? ma > mb : ma < mb;
                  if (cands[a].areaUm2 != cands[b].areaUm2)
                      return cands[a].areaUm2 < cands[b].areaUm2;
                  return cands[a].id < cands[b].id;
              });
    return order;
}

// ---- JSON helpers -----------------------------------------------------

std::string
num(double v, int digits = 6)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

/** Re-indent a pretty-printed JSON document for inline embedding. */
std::string
indentDoc(const std::string& doc, const std::string& pad)
{
    std::string out;
    out.reserve(doc.size() + 256);
    for (char ch : doc) {
        out.push_back(ch);
        if (ch == '\n')
            out += pad;
    }
    return out;
}

} // namespace

void
SearchConfig::validate() const
{
    using guard::ConfigError;
    if (pool < 1)
        throw ConfigError("search.pool", "must be >= 1");
    if (workloads.empty())
        throw ConfigError("search.workloads", "must be non-empty");
    for (const auto& w : workloads) {
        const auto known = prog::WorkloadLibrary::all();
        if (std::find(known.begin(), known.end(), w) == known.end())
            throw ConfigError("search.workloads",
                              "unknown workload '" + w + "'");
    }
    if (seedEvals < 2)
        throw ConfigError("search.seed_evals",
                          "ridge fit needs >= 2 seed evaluations");
    if (functionalSurvivors < 1)
        throw ConfigError("search.functional_survivors",
                          "must be >= 1");
    if (warpSurvivors < 1)
        throw ConfigError("search.warp_survivors", "must be >= 1");
    if (finalists < 1)
        throw ConfigError("search.finalists", "must be >= 1");
    if (traceBranches == 0 || traceWarmup >= traceBranches)
        throw ConfigError("search.trace",
                          "warmup must be < branches (and branches "
                          "nonzero)");
    if (warpIntervals < 1)
        throw ConfigError("search.warp_intervals", "must be >= 1");
    if (warpInsts == 0)
        throw ConfigError("search.warp_insts", "must be nonzero");
    if (detailInsts == 0 || detailWarmup >= detailInsts)
        throw ConfigError("search.detail",
                          "warmup must be < insts (and insts nonzero)");
    if (!(ridgeLambda >= 0.0))
        throw ConfigError("search.ridge_lambda", "must be >= 0");
    if (!(mutateFrac >= 0.0 && mutateFrac <= 1.0))
        throw ConfigError("search.mutate_frac", "must be in [0, 1]");
}

bool
withinBudget(const sim::DesignSpec& spec, const SearchBudget& budget,
             const phys::AreaModel& model)
{
    if (budget.storageKb > 0 &&
        sim::specStorageBits(spec) > budget.storageKb * kBitsPerKb)
        return false;
    if (budget.areaUm2 > 0.0 &&
        sim::specAreaUm2(spec, model) > budget.areaUm2)
        return false;
    return true;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<Candidate>& cands)
{
    std::vector<std::size_t> certified;
    for (std::size_t i = 0; i < cands.size(); ++i)
        if (cands[i].hasDetail)
            certified.push_back(i);

    auto dominates = [&](const Candidate& a, const Candidate& b) {
        const bool geAcc = a.detail.accuracy >= b.detail.accuracy;
        const bool leArea = a.areaUm2 <= b.areaUm2;
        const bool leLat = a.latency <= b.latency;
        const bool strict = a.detail.accuracy > b.detail.accuracy ||
                            a.areaUm2 < b.areaUm2 ||
                            a.latency < b.latency;
        return geAcc && leArea && leLat && strict;
    };

    std::vector<std::size_t> frontier;
    for (std::size_t i : certified) {
        bool dominated = false;
        for (std::size_t j : certified)
            if (j != i && dominates(cands[j], cands[i])) {
                dominated = true;
                break;
            }
        if (!dominated)
            frontier.push_back(i);
    }
    std::sort(frontier.begin(), frontier.end(),
              [&](std::size_t a, std::size_t b) {
                  if (cands[a].areaUm2 != cands[b].areaUm2)
                      return cands[a].areaUm2 < cands[b].areaUm2;
                  return cands[a].id < cands[b].id;
              });
    return frontier;
}

SearchResult
runSearch(const SearchConfig& cfg, prog::WorkloadCache& cache)
{
    cfg.validate();
    const phys::AreaModel model;
    SearchResult r;
    r.cfg = cfg;

    // ---- Pool construction -------------------------------------------
    std::vector<sim::DesignSpec> anchorSpecs;
    if (cfg.anchors) {
        for (sim::Design d :
             {sim::Design::Tourney, sim::Design::B2,
              sim::Design::TageL, sim::Design::RefBig}) {
            sim::DesignSpec spec = sim::presetSpec(d);
            if (!withinBudget(spec, cfg.budget, model)) {
                ++r.anchorsDropped;
                continue;
            }
            Candidate c;
            c.spec = std::move(spec);
            c.id = std::string("preset-") + presetCliName(d);
            c.anchor = true;
            r.candidates.push_back(std::move(c));
            anchorSpecs.push_back(r.candidates.back().spec);
        }
    }

    SearchSpace space(cfg.seed);
    const unsigned mutants =
        anchorSpecs.empty()
            ? 0
            : static_cast<unsigned>(cfg.mutateFrac * cfg.pool);
    unsigned attempts = 0;
    const unsigned maxAttempts = 64 * cfg.pool + 64;
    unsigned mutTried = 0, acceptedMut = 0, acceptedCand = 0;
    while (r.candidates.size() < cfg.pool && attempts < maxAttempts) {
        ++attempts;
        Candidate c;
        bool isMutant = false;
        try {
            if (mutTried < mutants) {
                c.spec = space.mutate(
                    anchorSpecs[mutTried % anchorSpecs.size()]);
                ++mutTried;
                isMutant = true;
            } else {
                c.spec = space.sample();
            }
        } catch (const guard::ConfigError&) {
            continue; // over-constrained draw; redraw
        }
        if (!withinBudget(c.spec, cfg.budget, model))
            continue; // over budget; the slot falls to sampling
        char id[16];
        std::snprintf(id, sizeof id, "%s-%03u",
                      isMutant ? "mut" : "cand",
                      isMutant ? acceptedMut++ : acceptedCand++);
        c.id = id;
        c.spec.name = c.id;
        r.candidates.push_back(std::move(c));
    }
    if (r.candidates.empty())
        throw guard::ConfigError("search.budget",
                                 "no candidate fits the budget");
    note(cfg, "pool: " + std::to_string(r.candidates.size()) +
                  " candidates (" +
                  std::to_string(r.anchorsDropped) +
                  " anchors over budget)");

    // Static properties.
    for (auto& c : r.candidates) {
        c.storageBits = sim::specStorageBits(c.spec);
        c.areaUm2 = sim::specAreaUm2(c.spec, model);
        c.latency = sim::specMaxLatency(c.spec);
    }

    // ---- Workload features + shared traces ---------------------------
    std::vector<trace::DecodedTrace> traces;
    for (const auto& w : cfg.workloads) {
        traces.push_back(
            trace::recordTrace(cache.get(w), cfg.traceBranches));
        r.features.push_back(workloadFeatures(w, traces.back(),
                                              cfg.traceWarmup));
    }

    // ---- Tier 0: seed evals + surrogate prune ------------------------
    // Per-workload accuracies kept aside for the surrogate fit (the
    // candidate record carries only the workload mean).
    std::vector<std::vector<double>> funcAcc(r.candidates.size());
    auto finishFunctional = [&](std::size_t i) {
        auto& c = r.candidates[i];
        double mean = 0.0;
        for (double a : funcAcc[i])
            mean += a;
        c.functionalAccuracy =
            mean / static_cast<double>(funcAcc[i].size());
        c.hasFunctional = true;
        c.tier = "functional";
        ++r.functionalEvals;
    };
    // Evaluate every not-yet-measured candidate in @p set: one batch
    // lane per candidate per shared trace (trace/batch_eval.hpp).
    // Lanes are independent, so the per-candidate accuracies — and
    // therefore the frontier artifact — are identical at any --jobs
    // (the CI batch-exactness leg byte-compares jobs 1 and 4).
    auto evalFunctionalSet = [&](const std::vector<std::size_t>& set) {
        std::vector<std::size_t> need;
        for (std::size_t i : set)
            if (!r.candidates[i].hasFunctional)
                need.push_back(i);
        if (need.empty())
            return;
        for (std::size_t i : need)
            funcAcc[i].resize(traces.size());
        for (std::size_t wi = 0; wi < traces.size(); ++wi) {
            trace::BatchTraceEvaluator be(cfg.jobs);
            for (std::size_t i : need) {
                const auto& c = r.candidates[i];
                trace::BatchLane lane;
                lane.label = c.id;
                const sim::DesignSpec* spec = &c.spec;
                lane.predictor = [spec] {
                    return bpu::ComposedPredictor(
                        sim::buildTopology(*spec), spec->fetchWidth);
                };
                lane.ghistBits = c.spec.bpu.ghistBits;
                lane.lhistBits = c.spec.bpu.lhistBits;
                be.addLane(std::move(lane));
            }
            const auto outs = be.evaluate(traces[wi], cfg.traceWarmup);
            for (std::size_t k = 0; k < need.size(); ++k) {
                if (!outs[k].ok()) {
                    // A candidate that cannot be built or evaluated
                    // fails the whole search with its original
                    // exception.
                    std::rethrow_exception(outs[k].exception);
                }
                funcAcc[need[k]][wi] = outs[k].result.accuracy();
            }
        }
        for (std::size_t i : need)
            finishFunctional(i);
    };

    std::vector<std::size_t> all(r.candidates.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;

    std::vector<std::size_t> seedSet;
    for (std::size_t i : all)
        if (r.candidates[i].anchor)
            seedSet.push_back(i);
    if (seedSet.size() < cfg.seedEvals) {
        // Deterministic stride through the non-anchor pool.
        std::vector<std::size_t> rest;
        for (std::size_t i : all)
            if (!r.candidates[i].anchor)
                rest.push_back(i);
        const std::size_t want = cfg.seedEvals - seedSet.size();
        const std::size_t stride =
            std::max<std::size_t>(1, rest.size() / std::max<std::size_t>(
                                                       1, want));
        for (std::size_t k = 0;
             k < rest.size() && seedSet.size() < cfg.seedEvals;
             k += stride)
            seedSet.push_back(rest[k]);
    }
    evalFunctionalSet(seedSet);
    note(cfg, "tier 0: " + std::to_string(seedSet.size()) +
                  " seed evaluations");

    RidgeModel surrogate;
    if (r.functionalEvals < r.candidates.size()) {
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (std::size_t i : all) {
            const auto& c = r.candidates[i];
            if (!c.hasFunctional)
                continue;
            // One row per (candidate, workload): per-workload targets
            // sharpen the fit over fitting the workload mean.
            const DesignFeatures df = designFeatures(c.spec, model);
            for (std::size_t wi = 0; wi < traces.size(); ++wi) {
                x.push_back(pairFeatures(df, r.features[wi]));
                y.push_back(funcAcc[i][wi]);
            }
        }
        surrogate.fit(x, y, cfg.ridgeLambda);
        r.surrogateUsed = true;
        r.surrogateRmse = surrogate.trainRmse();
        for (std::size_t i : all) {
            auto& c = r.candidates[i];
            if (c.hasFunctional)
                continue;
            const DesignFeatures df = designFeatures(c.spec, model);
            double score = 0.0;
            for (const auto& wf : r.features)
                score += surrogate.predict(pairFeatures(df, wf));
            c.surrogateScore =
                score / static_cast<double>(r.features.size());
            c.hasSurrogate = true;
            c.tier = "surrogate";
        }
        note(cfg, "surrogate: rmse " + num(r.surrogateRmse, 4));
    }

    // ---- Tier 1: functional evals of the surrogate survivors ---------
    auto scoreOf = [](const Candidate& c) {
        return c.hasFunctional ? c.functionalAccuracy
                               : c.surrogateScore;
    };
    std::vector<std::size_t> ranked =
        rankBy(r.candidates, all, scoreOf, /*descending=*/true);
    std::vector<std::size_t> survivors;
    for (std::size_t i : ranked)
        if (r.candidates[i].anchor)
            survivors.push_back(i);
    for (std::size_t i : ranked) {
        if (survivors.size() >= cfg.functionalSurvivors)
            break;
        if (!r.candidates[i].anchor)
            survivors.push_back(i);
    }
    evalFunctionalSet(survivors);
    note(cfg, "tier 1: " + std::to_string(survivors.size()) +
                  " functional survivors");

    // ---- Tier 2: warp interval-sampled ranking -----------------------
    std::vector<std::size_t> warpSet;
    {
        auto order = rankBy(
            r.candidates, survivors,
            [](const Candidate& c) { return c.functionalAccuracy; },
            /*descending=*/true);
        for (std::size_t i : order)
            if (r.candidates[i].anchor)
                warpSet.push_back(i);
        for (std::size_t i : order) {
            if (warpSet.size() >= cfg.warpSurvivors)
                break;
            if (!r.candidates[i].anchor)
                warpSet.push_back(i);
        }
    }
    // Every (candidate, workload) warp run goes to the pool as one
    // batch (warp/warp.hpp: runWarps), so one run's serial
    // fast-forward overlaps the others. Outcomes come back
    // candidate-major; each depends only on its own job, so the
    // frontier artifact is the same at any --jobs.
    warp::WarpConfig wcfg;
    wcfg.intervals = cfg.warpIntervals;
    wcfg.warmupCycles = cfg.warpWarmupCycles;
    wcfg.sampleInsts = cfg.warpSampleInsts;
    std::vector<warp::WarpJob> warpJobs;
    for (std::size_t i : warpSet) {
        const sim::DesignSpec& spec = r.candidates[i].spec;
        for (const auto& w : cfg.workloads) {
            warp::WarpJob job{&cache.get(w),
                              [&spec] { return sim::buildTopology(spec); },
                              sim::makeConfig(spec), wcfg};
            job.cfg.maxInsts = cfg.warpInsts;
            warpJobs.push_back(std::move(job));
        }
    }
    const std::vector<warp::WarpOutcome> warpOuts =
        warp::runWarps(warpJobs, cfg.jobs);
    // The first failure in candidate-then-workload order fails the
    // search with its original exception.
    for (const warp::WarpOutcome& o : warpOuts)
        if (o.exception)
            std::rethrow_exception(o.exception);
    for (std::size_t k = 0; k < warpSet.size(); ++k) {
        auto& c = r.candidates[warpSet[k]];
        WarpMetrics m;
        for (std::size_t wi = 0; wi < cfg.workloads.size(); ++wi) {
            const warp::WarpEstimate& est =
                warpOuts[k * cfg.workloads.size() + wi].estimate;
            m.ipc += est.ipc;
            m.mpki += est.mpki;
            m.ipcCi95 += est.ipcCi95;
            m.mpkiCi95 += est.mpkiCi95;
        }
        const double n = static_cast<double>(cfg.workloads.size());
        c.warp = {m.ipc / n, m.mpki / n, m.ipcCi95 / n,
                  m.mpkiCi95 / n};
        c.hasWarp = true;
        c.tier = "warp";
        ++r.warpEvals;
    }
    note(cfg, "tier 2: " + std::to_string(warpSet.size()) +
                  " warp rankings");

    // ---- Tier 3: detailed certification ------------------------------
    std::vector<std::size_t> finalSet;
    {
        auto order = rankBy(
            r.candidates, warpSet,
            [](const Candidate& c) { return c.warp.mpki; },
            /*descending=*/false);
        for (std::size_t i : order)
            if (r.candidates[i].anchor)
                finalSet.push_back(i);
        unsigned extras = 0;
        for (std::size_t i : order) {
            if (extras >= cfg.finalists)
                break;
            if (!r.candidates[i].anchor) {
                finalSet.push_back(i);
                ++extras;
            }
        }
        std::sort(finalSet.begin(), finalSet.end());
    }
    {
        sim::SweepEngine eng(cfg.jobs);
        std::vector<std::pair<std::size_t, std::string>> points;
        for (std::size_t i : finalSet) {
            const sim::DesignSpec& spec = r.candidates[i].spec;
            for (const auto& w : cfg.workloads) {
                sim::SweepPoint p;
                p.label = r.candidates[i].id + ":" + w;
                p.topology = [&spec] {
                    return sim::buildTopology(spec);
                };
                p.program = &cache.get(w);
                p.cfg = sim::makeConfig(spec);
                p.cfg.maxInsts = cfg.detailInsts;
                p.cfg.warmupInsts = cfg.detailWarmup;
                eng.add(std::move(p));
                points.emplace_back(i, w);
            }
        }
        const auto outcomes = eng.run();
        for (std::size_t k = 0; k < outcomes.size(); ++k) {
            const auto& out = outcomes[k];
            auto& c = r.candidates[points[k].first];
            if (!out.error.empty()) {
                c.certifyError = out.errorClass + ": " + out.error;
                continue;
            }
            c.detail.ipc += out.result.ipc();
            c.detail.mpki += out.result.mpki();
            c.detail.accuracy += out.result.accuracy();
            c.detail.cycles += out.result.cycles;
            c.detail.insts += out.result.insts;
        }
        const double n = static_cast<double>(cfg.workloads.size());
        for (std::size_t i : finalSet) {
            auto& c = r.candidates[i];
            if (!c.certifyError.empty()) {
                c.detail = {};
                continue;
            }
            c.detail.ipc /= n;
            c.detail.mpki /= n;
            c.detail.accuracy /= n;
            c.hasDetail = true;
            c.tier = "detailed";
            ++r.detailedEvals;
        }
    }
    note(cfg, "tier 3: " + std::to_string(r.detailedEvals) +
                  " certified");

    r.evalsSaved =
        static_cast<unsigned>(r.candidates.size()) - r.functionalEvals;
    r.frontier = paretoFrontier(r.candidates);
    for (std::size_t i : r.frontier)
        r.candidates[i].onFrontier = true;
    note(cfg, "frontier: " + std::to_string(r.frontier.size()) +
                  " points");
    return r;
}

std::string
frontierJson(const SearchResult& r)
{
    std::ostringstream os;
    const auto& cfg = r.cfg;
    os << "{\n";
    os << "  \"tool\": \"cobra_search\",\n";
    os << "  \"version\": 1,\n";
    os << "  \"seed\": " << cfg.seed << ",\n";
    os << "  \"budget\": {\"storage_kb\": " << cfg.budget.storageKb
       << ", \"area_um2\": " << num(cfg.budget.areaUm2, 1) << "},\n";
    os << "  \"workloads\": [";
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(cfg.workloads[i])
           << '"';
    os << "],\n";
    os << "  \"tiers\": {\"pool\": " << cfg.pool
       << ", \"seed_evals\": " << cfg.seedEvals
       << ", \"functional_survivors\": " << cfg.functionalSurvivors
       << ", \"warp_survivors\": " << cfg.warpSurvivors
       << ", \"finalists\": " << cfg.finalists << "},\n";
    os << "  \"trace\": {\"branches\": " << cfg.traceBranches
       << ", \"warmup\": " << cfg.traceWarmup << "},\n";
    os << "  \"warp\": {\"insts\": " << cfg.warpInsts
       << ", \"intervals\": " << cfg.warpIntervals
       << ", \"sample_insts\": " << cfg.warpSampleInsts << "},\n";
    os << "  \"detail\": {\"insts\": " << cfg.detailInsts
       << ", \"warmup\": " << cfg.detailWarmup << "},\n";
    os << "  \"evals\": {\"pool\": " << r.candidates.size()
       << ", \"functional\": " << r.functionalEvals
       << ", \"warp\": " << r.warpEvals
       << ", \"detailed\": " << r.detailedEvals
       << ", \"saved_by_surrogate\": " << r.evalsSaved
       << ", \"anchors_dropped\": " << r.anchorsDropped << "},\n";
    os << "  \"surrogate\": {\"used\": "
       << (r.surrogateUsed ? "true" : "false")
       << ", \"lambda\": " << num(cfg.ridgeLambda, 3)
       << ", \"train_rmse\": " << num(r.surrogateRmse)
       << ", \"features\": [";
    {
        const auto names = pairFeatureNames();
        for (std::size_t i = 0; i < names.size(); ++i)
            os << (i ? ", " : "") << '"' << jsonEscape(names[i])
               << '"';
    }
    os << "]},\n";

    os << "  \"workload_features\": [\n";
    for (std::size_t i = 0; i < r.features.size(); ++i) {
        const auto& f = r.features[i];
        os << "    {\"workload\": \"" << jsonEscape(f.workload)
           << "\", \"branches\": " << f.branches
           << ", \"static_branches\": " << f.staticBranches;
        const auto names = WorkloadFeatures::names();
        const auto vals = f.vec();
        for (std::size_t k = 0; k < names.size(); ++k)
            os << ", \"" << names[k] << "\": " << num(vals[k]);
        os << '}' << (i + 1 < r.features.size() ? "," : "") << '\n';
    }
    os << "  ],\n";

    os << "  \"candidates\": [\n";
    for (std::size_t i = 0; i < r.candidates.size(); ++i) {
        const auto& c = r.candidates[i];
        os << "    {\"id\": \"" << jsonEscape(c.id) << "\", \"name\": \""
           << jsonEscape(c.spec.name) << "\", \"anchor\": "
           << (c.anchor ? "true" : "false") << ", \"tier\": \""
           << c.tier << "\", \"storage_bits\": " << c.storageBits
           << ", \"storage_kb\": "
           << num(static_cast<double>(c.storageBits) / kBitsPerKb, 2)
           << ", \"area_um2\": " << num(c.areaUm2, 1)
           << ", \"latency\": " << c.latency;
        if (c.hasSurrogate)
            os << ", \"surrogate_score\": " << num(c.surrogateScore);
        if (c.hasFunctional)
            os << ", \"functional_accuracy\": "
               << num(c.functionalAccuracy);
        if (c.hasWarp)
            os << ", \"warp\": {\"ipc\": " << num(c.warp.ipc)
               << ", \"mpki\": " << num(c.warp.mpki)
               << ", \"ipc_ci95\": " << num(c.warp.ipcCi95)
               << ", \"mpki_ci95\": " << num(c.warp.mpkiCi95) << '}';
        if (c.hasDetail)
            os << ", \"detailed\": {\"ipc\": " << num(c.detail.ipc)
               << ", \"mpki\": " << num(c.detail.mpki)
               << ", \"accuracy\": " << num(c.detail.accuracy)
               << ", \"cycles\": " << c.detail.cycles
               << ", \"insts\": " << c.detail.insts << '}';
        if (!c.certifyError.empty())
            os << ", \"certify_error\": \""
               << jsonEscape(c.certifyError) << '"';
        os << ", \"on_frontier\": " << (c.onFrontier ? "true" : "false")
           << '}' << (i + 1 < r.candidates.size() ? "," : "") << '\n';
    }
    os << "  ],\n";

    os << "  \"frontier\": [\n";
    for (std::size_t k = 0; k < r.frontier.size(); ++k) {
        const auto& c = r.candidates[r.frontier[k]];
        os << "    {\"id\": \"" << jsonEscape(c.id)
           << "\", \"accuracy\": " << num(c.detail.accuracy)
           << ", \"mpki\": " << num(c.detail.mpki)
           << ", \"ipc\": " << num(c.detail.ipc)
           << ", \"area_um2\": " << num(c.areaUm2, 1)
           << ", \"storage_kb\": "
           << num(static_cast<double>(c.storageBits) / kBitsPerKb, 2)
           << ", \"latency\": " << c.latency << ",\n"
           << "     \"spec\": "
           << indentDoc(c.spec.toJson(), "     ") << '}'
           << (k + 1 < r.frontier.size() ? "," : "") << '\n';
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace cobra::search
