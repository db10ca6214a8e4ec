/**
 * @file
 * Composition-search autopilot tests: determinism (the same seed
 * reproduces the same frontier artifact byte for byte), budget
 * respect (every pool member fits the storage/area ceiling), Pareto
 * consistency of the emitted frontier, the exhaustive-mode surrogate
 * bypass, and configuration validation.
 *
 * Tier budgets are kept tiny — these tests exercise the control flow
 * and invariants, not simulation fidelity (the paper numbers come
 * from bench/ and the CI search-smoke job).
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "search/driver.hpp"
#include "search/space.hpp"
#include "search/surrogate.hpp"
#include "serve/json.hpp"
#include "sim/design_spec.hpp"
#include "warp/warp.hpp"

using namespace cobra;
using guard::ConfigError;

namespace {

prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

/** A search config small enough to run in a unit test. */
search::SearchConfig
tinyConfig()
{
    search::SearchConfig cfg;
    cfg.seed = 7;
    cfg.pool = 8;
    cfg.workloads = {"mcf"};
    cfg.seedEvals = 4;
    cfg.functionalSurvivors = 5;
    cfg.warpSurvivors = 2;
    cfg.finalists = 1;
    cfg.traceBranches = 10'000;
    cfg.traceWarmup = 2'000;
    cfg.warpInsts = 40'000;
    cfg.warpIntervals = 2;
    cfg.detailInsts = 60'000;
    cfg.detailWarmup = 10'000;
    cfg.jobs = 2;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(Search, SameSeedReproducesTheSameFrontierByteForByte)
{
    const search::SearchConfig cfg = tinyConfig();
    const search::SearchResult a = search::runSearch(cfg, cache());
    const search::SearchResult b = search::runSearch(cfg, cache());
    EXPECT_EQ(search::frontierJson(a), search::frontierJson(b));
    EXPECT_EQ(a.frontier, b.frontier);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].spec, b.candidates[i].spec) << i;
}

TEST(Search, TwoWorkloadWarpTierMatchesSoloRunsAtOneAndThreeJobs)
{
    // Tier 2 batches every (candidate, workload) warp run. The
    // frontier must not depend on the pool width, and each candidate's
    // warp metrics must be the workload mean of its one-job-batch
    // estimates: a slip in the batch's candidate-major indexing would
    // hand a candidate another run's estimate.
    search::SearchConfig cfg = tinyConfig();
    cfg.workloads = {"mcf", "leela"};
    cfg.warpInsts = 20'000;
    cfg.detailInsts = 20'000;
    cfg.detailWarmup = 5'000;
    cfg.jobs = 1;
    const search::SearchResult inline1 = search::runSearch(cfg, cache());
    cfg.jobs = 3;
    const search::SearchResult pool3 = search::runSearch(cfg, cache());
    EXPECT_EQ(search::frontierJson(inline1), search::frontierJson(pool3));

    warp::WarpConfig w;
    w.intervals = cfg.warpIntervals;
    w.warmupCycles = cfg.warpWarmupCycles;
    w.sampleInsts = cfg.warpSampleInsts;
    unsigned checked = 0;
    for (const search::Candidate& c : pool3.candidates) {
        if (!c.hasWarp)
            continue;
        double ipc = 0.0, mpki = 0.0;
        for (const std::string& wl : cfg.workloads) {
            sim::SimConfig scfg = sim::makeConfig(c.spec);
            scfg.maxInsts = cfg.warpInsts;
            const std::vector<warp::WarpOutcome> out = warp::runWarps(
                {{&cache().get(wl),
                  [&c] { return sim::buildTopology(c.spec); }, scfg, w}},
                1);
            ASSERT_FALSE(out[0].exception) << c.id;
            ipc += out[0].estimate.ipc;
            mpki += out[0].estimate.mpki;
        }
        EXPECT_EQ(c.warp.ipc, ipc / 2.0) << c.id;
        EXPECT_EQ(c.warp.mpki, mpki / 2.0) << c.id;
        ++checked;
    }
    EXPECT_EQ(checked, pool3.warpEvals);
    EXPECT_GE(checked, 2u);
}

TEST(Search, SpaceSamplingIsDeterministicUnderSeed)
{
    search::SearchSpace s1(123), s2(123), s3(321);
    bool diverged = false;
    for (int i = 0; i < 8; ++i) {
        const sim::DesignSpec a = s1.sample();
        const sim::DesignSpec b = s2.sample();
        EXPECT_EQ(a, b) << "sample " << i;
        if (!(a == s3.sample()))
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "different seeds produced an identical "
                             "8-sample stream";
}

// ---------------------------------------------------------------------
// Budget respect (property over the whole pool)
// ---------------------------------------------------------------------

TEST(Search, EveryPoolMemberRespectsTheBudget)
{
    search::SearchConfig cfg = tinyConfig();
    cfg.budget.areaUm2 = 60'000.0; // Tourney and TAGE-L fit; REF-BIG not.
    cfg.budget.storageKb = 64;
    const search::SearchResult r = search::runSearch(cfg, cache());
    const phys::AreaModel model;
    EXPECT_GE(r.anchorsDropped, 1u); // REF-BIG is over this budget.
    for (const search::Candidate& c : r.candidates) {
        EXPECT_TRUE(search::withinBudget(c.spec, cfg.budget, model))
            << c.id;
        EXPECT_LE(c.areaUm2, cfg.budget.areaUm2) << c.id;
        EXPECT_LE(c.storageBits, cfg.budget.storageKb * 8192) << c.id;
        EXPECT_NE(c.id, "preset-refbig");
    }
    EXPECT_FALSE(r.frontier.empty());
}

TEST(Search, ImpossibleBudgetIsAStructuredError)
{
    search::SearchConfig cfg = tinyConfig();
    cfg.budget.storageKb = 1; // No sampleable candidate fits 1 KB.
    EXPECT_THROW(search::runSearch(cfg, cache()), ConfigError);
}

// ---------------------------------------------------------------------
// Frontier properties
// ---------------------------------------------------------------------

TEST(Search, FrontierIsParetoConsistent)
{
    const search::SearchResult r = search::runSearch(tinyConfig(),
                                                     cache());
    ASSERT_FALSE(r.frontier.empty());
    // onFrontier flags agree with the index list.
    std::set<std::size_t> fset(r.frontier.begin(), r.frontier.end());
    for (std::size_t i = 0; i < r.candidates.size(); ++i)
        EXPECT_EQ(r.candidates[i].onFrontier, fset.count(i) > 0) << i;
    // No certified candidate dominates a frontier member.
    for (std::size_t fi : r.frontier) {
        const search::Candidate& f = r.candidates[fi];
        EXPECT_TRUE(f.hasDetail) << f.id;
        for (const search::Candidate& c : r.candidates) {
            if (!c.hasDetail || &c == &f)
                continue;
            const bool dominates =
                c.detail.accuracy >= f.detail.accuracy &&
                c.areaUm2 <= f.areaUm2 && c.latency <= f.latency &&
                (c.detail.accuracy > f.detail.accuracy ||
                 c.areaUm2 < f.areaUm2 || c.latency < f.latency);
            EXPECT_FALSE(dominates)
                << c.id << " dominates frontier member " << f.id;
        }
    }
    // Anchors are always certified, so the paper's TAGE-L point is on
    // the frontier or dominated by a frontier member (never absent).
    bool tagelCertified = false;
    for (const search::Candidate& c : r.candidates)
        if (c.id == "preset-tagel" && c.hasDetail)
            tagelCertified = true;
    EXPECT_TRUE(tagelCertified);
}

TEST(Search, ExhaustiveSeedEvalsDisableTheSurrogate)
{
    search::SearchConfig cfg = tinyConfig();
    cfg.seedEvals = cfg.pool; // Tier 0 covers the whole pool.
    const search::SearchResult r = search::runSearch(cfg, cache());
    EXPECT_FALSE(r.surrogateUsed);
    EXPECT_EQ(r.evalsSaved, 0u);
    for (const search::Candidate& c : r.candidates)
        EXPECT_TRUE(c.hasFunctional) << c.id;
}

// ---------------------------------------------------------------------
// Artifact schema
// ---------------------------------------------------------------------

TEST(Search, FrontierArtifactCarriesProvenanceAndParses)
{
    const search::SearchResult r = search::runSearch(tinyConfig(),
                                                     cache());
    const std::string doc = search::frontierJson(r);
    const serve::Json j = serve::Json::parse(doc);
    EXPECT_EQ(j.getString("tool", ""), "cobra_search");
    EXPECT_EQ(j.getU64("seed", 0), 7u);
    ASSERT_NE(j.find("budget"), nullptr);
    ASSERT_NE(j.find("tiers"), nullptr);
    ASSERT_NE(j.find("evals"), nullptr);
    ASSERT_NE(j.find("surrogate"), nullptr);
    const serve::Json* cands = j.find("candidates");
    ASSERT_NE(cands, nullptr);
    EXPECT_EQ(cands->asArray().size(), r.candidates.size());
    const serve::Json* frontier = j.find("frontier");
    ASSERT_NE(frontier, nullptr);
    ASSERT_EQ(frontier->asArray().size(), r.frontier.size());
    for (const serve::Json& f : frontier->asArray()) {
        // Frontier entries carry the full inline spec (provenance:
        // the artifact alone reproduces the design).
        ASSERT_NE(f.find("spec"), nullptr);
        const sim::DesignSpec spec =
            sim::DesignSpec::fromJson(*f.find("spec"));
        EXPECT_FALSE(spec.name.empty());
        EXPECT_NE(f.find("accuracy"), nullptr);
        EXPECT_NE(f.find("area_um2"), nullptr);
        EXPECT_NE(f.find("latency"), nullptr);
    }
}

// ---------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------

TEST(Search, InvalidConfigsAreRejected)
{
    {
        search::SearchConfig cfg = tinyConfig();
        cfg.pool = 0;
        EXPECT_THROW(cfg.validate(), ConfigError);
    }
    {
        search::SearchConfig cfg = tinyConfig();
        cfg.workloads = {"nope"};
        EXPECT_THROW(cfg.validate(), ConfigError);
    }
    {
        search::SearchConfig cfg = tinyConfig();
        cfg.traceWarmup = cfg.traceBranches;
        EXPECT_THROW(cfg.validate(), ConfigError);
    }
    {
        search::SearchConfig cfg = tinyConfig();
        cfg.ridgeLambda = -1.0;
        EXPECT_THROW(cfg.validate(), ConfigError);
    }
    {
        search::SearchConfig cfg = tinyConfig();
        cfg.seedEvals = 1;
        EXPECT_THROW(cfg.validate(), ConfigError);
    }
}

// ---------------------------------------------------------------------
// Surrogate unit behaviour
// ---------------------------------------------------------------------

TEST(Search, RidgeModelRecoversALinearTarget)
{
    // y = 3 + 2*x0 - x1, exactly representable: near-zero train RMSE
    // and accurate interpolation with a tiny lambda.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 12; ++i) {
        const double x0 = i * 0.5, x1 = (i % 4) * 1.25;
        x.push_back({x0, x1});
        y.push_back(3.0 + 2.0 * x0 - x1);
    }
    search::RidgeModel m;
    m.fit(x, y, 1e-9);
    ASSERT_TRUE(m.fitted());
    EXPECT_LT(m.trainRmse(), 1e-6);
    EXPECT_NEAR(m.predict({2.0, 1.0}), 3.0 + 4.0 - 1.0, 1e-5);
}

TEST(Search, RidgeModelIsDeterministic)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 20; ++i) {
        x.push_back({static_cast<double>(i % 5),
                     static_cast<double>((i * 7) % 11), i * 0.1});
        y.push_back(0.9 - 0.01 * (i % 3));
    }
    search::RidgeModel a, b;
    a.fit(x, y, 1.0);
    b.fit(x, y, 1.0);
    for (const auto& row : x)
        EXPECT_DOUBLE_EQ(a.predict(row), b.predict(row));
}
