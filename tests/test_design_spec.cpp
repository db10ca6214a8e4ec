/**
 * @file
 * DesignSpec tests: lossless JSON round-trips, bit-identity between
 * spec-built and preset-built designs across the paper tuples and
 * their SFB/ghist variants, and the malformed-spec
 * rejection table (every bad document is a structured ConfigError
 * naming the offending field, never a mis-built topology).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "serve/json.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "test_util.hpp"

using namespace cobra;
using guard::ConfigError;

namespace {

prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

const std::vector<sim::Design>&
allDesigns()
{
    static const std::vector<sim::Design> d = {
        sim::Design::Tourney, sim::Design::B2, sim::Design::TageL,
        sim::Design::RefBig};
    return d;
}

/** Run one point and return (result, stats doc) for exact compares. */
std::pair<sim::SimResult, std::string>
runPoint(bpu::Topology topo, sim::SimConfig cfg, const std::string& wl)
{
    sim::Simulator s(cache().get(wl), std::move(topo), cfg);
    const sim::SimResult r = s.run();
    return {r, sim::renderPointStats("p", s, r)};
}

} // namespace

// ---------------------------------------------------------------------
// JSON round-trips
// ---------------------------------------------------------------------

TEST(DesignSpec, RoundTripsThroughJsonExactly)
{
    for (sim::Design d : allDesigns()) {
        const sim::DesignSpec spec = sim::presetSpec(d);
        const std::string text = spec.toJson();
        const sim::DesignSpec back = sim::DesignSpec::fromJson(text);
        EXPECT_EQ(spec, back) << sim::designName(d);
        // Serialization is canonical: a second trip is byte-stable.
        EXPECT_EQ(text, back.toJson()) << sim::designName(d);
    }
}

TEST(DesignSpec, ParsedJsonValueOverloadMatchesTextOverload)
{
    for (sim::Design d : allDesigns()) {
        const std::string text = sim::presetSpec(d).toJson();
        const serve::Json doc = serve::Json::parse(text);
        EXPECT_EQ(sim::DesignSpec::fromJson(doc),
                  sim::DesignSpec::fromJson(text))
            << sim::designName(d);
    }
}

TEST(DesignSpec, PresetNamesResolveWithAliases)
{
    EXPECT_EQ(sim::presetSpec("tagel").name, "TAGE-L");
    EXPECT_EQ(sim::presetSpec("tage-l"), sim::presetSpec("tagel"));
    EXPECT_EQ(sim::presetSpec("ref-big"), sim::presetSpec("refbig"));
    EXPECT_THROW(sim::presetSpec("bogus"), ConfigError);
}

// ---------------------------------------------------------------------
// Spec-built == preset-built, across run-option variants
// ---------------------------------------------------------------------

TEST(DesignSpec, SpecBuiltMatchesPresetBuiltAcrossVariants)
{
    struct Variant
    {
        const char* name;
        bool sfb;
        bpu::GhistRepairMode ghist;
    };
    const Variant variants[] = {
        {"default", false, bpu::GhistRepairMode::RepairAndReplay},
        {"sfb", true, bpu::GhistRepairMode::RepairAndReplay},
        {"ghist-repair", false, bpu::GhistRepairMode::RepairOnly},
        {"ghist-none", false, bpu::GhistRepairMode::None},
    };
    for (sim::Design d : allDesigns()) {
        const sim::DesignSpec spec = sim::presetSpec(d);
        for (const Variant& v : variants) {
            sim::SimConfig pcfg = sim::makeConfig(d);
            sim::SimConfig scfg = sim::makeConfig(spec);
            for (sim::SimConfig* cfg : {&pcfg, &scfg}) {
                cfg->warmupInsts = 2000;
                cfg->maxInsts = 30'000;
                cfg->backend.sfbEnabled = v.sfb;
                cfg->bpu.ghistMode = v.ghist;
            }
            const auto [rp, sp] =
                runPoint(sim::buildTopology(d), pcfg, "leela");
            const auto [rs, ss] =
                runPoint(sim::buildTopology(spec), scfg, "leela");
            EXPECT_EQ(rp, rs)
                << sim::designName(d) << " variant " << v.name;
            EXPECT_EQ(sp, ss)
                << sim::designName(d) << " variant " << v.name;
        }
    }
}

TEST(DesignSpec, StorageAndAreaMatchTheBuiltTopology)
{
    const phys::AreaModel model;
    for (sim::Design d : allDesigns()) {
        const sim::DesignSpec spec = sim::presetSpec(d);
        bpu::Topology topo = sim::buildTopology(spec);
        std::uint64_t bits = 0;
        double um2 = 0.0;
        for (const auto* c : topo.componentList()) {
            bits += c->storageBits();
            um2 += model.area(c->physicalCost());
        }
        EXPECT_EQ(sim::specStorageBits(spec), bits)
            << sim::designName(d);
        EXPECT_DOUBLE_EQ(sim::specAreaUm2(spec, model), um2)
            << sim::designName(d);
        EXPECT_EQ(sim::specMaxLatency(spec), topo.maxLatency())
            << sim::designName(d);
    }
}

// ---------------------------------------------------------------------
// Malformed-spec rejection table
// ---------------------------------------------------------------------

TEST(DesignSpec, MalformedDocumentsAreRejectedWithConfigErrors)
{
    const char* bad[] = {
        "not json at all",
        "[1, 2]", // not an object
        // Unknown top-level field.
        "{\"name\": \"x\", \"zzz\": 1, \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}], \"tree\": \"A\"}",
        // Missing / malformed components.
        "{\"name\": \"x\", \"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": {}, \"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": [], \"tree\": \"A\"}",
        // Component without id / kind.
        "{\"name\": \"x\", \"components\": [{\"kind\": \"bim\"}], "
        "\"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": [{\"id\": \"A\"}], "
        "\"tree\": \"A\"}",
        // Unknown kind, unknown knob, bad sizing, bad mode.
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"nope\"}], \"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": [{\"id\": \"A\", \"kind\": "
        "\"bim\", \"knobs\": {\"bogus\": 1}}], \"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": [{\"id\": \"A\", \"kind\": "
        "\"bim\", \"knobs\": {\"sets\": 3000}}], \"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": [{\"id\": \"A\", \"kind\": "
        "\"bim\", \"mode\": \"warp\"}], \"tree\": \"A\"}",
        // Duplicate component id.
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}, "
        "{\"id\": \"A\", \"kind\": \"bim\"}], \"tree\": \"A\"}",
        // Missing name (validate requires it).
        "{\"components\": [{\"id\": \"A\", \"kind\": \"bim\"}], "
        "\"tree\": \"A\"}",
        // Tree violations: missing, dangling ref, unused component,
        // arb whose arbiter is not an arbiter kind.
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}]}",
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}], \"tree\": \"B\"}",
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}, "
        "{\"id\": \"B\", \"kind\": \"bim\"}], \"tree\": \"A\"}",
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}, "
        "{\"id\": \"B\", \"kind\": \"bim\"}], "
        "\"tree\": {\"arb\": \"A\", \"children\": [\"B\"]}}",
        // tage needs tables.
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"tage\"}], \"tree\": \"A\"}",
        // Tree node that is neither string, chain, nor arb.
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}], \"tree\": 7}",
        // Unknown field inside a known block.
        "{\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"bim\"}], \"tree\": \"A\", "
        "\"bpu\": {\"zzz\": 1}}",
    };
    for (const char* text : bad) {
        EXPECT_THROW(sim::DesignSpec::fromJson(std::string(text)),
                     ConfigError)
            << "accepted: " << text;
    }
}

TEST(DesignSpec, SizingFieldsOutOfRangeNameTheField)
{
    // An empty RAS would reach the model and divide by zero; an
    // oversized structure would be allocated as asked.
    for (const auto& [field, spec] : test::outOfRangeSizingSpecs()) {
        try {
            (void)sim::DesignSpec::fromJson(spec.toJson());
            ADD_FAILURE() << "accepted out-of-range " << field;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(DesignSpec, MinimalSingleComponentSpecIsValid)
{
    const sim::DesignSpec spec = sim::DesignSpec::fromJson(
        std::string("{\"name\": \"mini\", \"components\": "
                    "[{\"id\": \"A\", \"kind\": \"bim\"}], "
                    "\"tree\": \"A\"}"));
    EXPECT_EQ(spec.name, "mini");
    bpu::Topology topo = sim::buildTopology(spec);
    EXPECT_GT(sim::specStorageBits(spec), 0u);
    // And it simulates end to end.
    sim::SimConfig cfg = sim::makeConfig(spec);
    cfg.warmupInsts = 500;
    cfg.maxInsts = 5000;
    const auto [r, s] = runPoint(std::move(topo), cfg, "leela");
    EXPECT_GT(r.insts, 0u);
    EXPECT_FALSE(s.empty());
}
