#include "serve/request.hpp"

#include <algorithm>
#include <set>

#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "serve/json.hpp"

namespace cobra::serve {

namespace {

bpu::GhistRepairMode
ghistFromName(const std::string& name)
{
    if (name == "none")
        return bpu::GhistRepairMode::None;
    if (name == "repair")
        return bpu::GhistRepairMode::RepairOnly;
    if (name == "replay")
        return bpu::GhistRepairMode::RepairAndReplay;
    throw RequestError("unknown ghist mode '" + name +
                       "' (none | repair | replay)");
}

std::vector<std::string>
stringList(const Json& doc, const char* key)
{
    const Json* v = doc.find(key);
    if (v == nullptr || !v->isArray() || v->asArray().empty())
        throw RequestError(std::string("'") + key +
                           "' must be a non-empty array of strings");
    std::vector<std::string> out;
    for (const Json& e : v->asArray()) {
        if (!e.isString())
            throw RequestError(std::string("'") + key +
                               "' entries must be strings");
        out.push_back(e.asString());
    }
    return out;
}

/**
 * Resolve the request's designs through the one DesignSpec path:
 * "designs" holds preset names (sim::presetSpec), "design_spec" holds
 * inline spec documents (object or array of objects). Either field
 * alone suffices; together they concatenate, names first.
 */
std::vector<sim::DesignSpec>
parseDesigns(const Json& doc)
{
    std::vector<sim::DesignSpec> out;
    const Json* names = doc.find("designs");
    const Json* specs = doc.find("design_spec");
    if (names == nullptr && specs == nullptr)
        throw RequestError(
            "a sweep request needs 'designs' (preset names) and/or "
            "'design_spec' (inline spec documents)");
    if (names != nullptr) {
        for (const std::string& d : stringList(doc, "designs")) {
            try {
                out.push_back(sim::presetSpec(d));
            } catch (const guard::ConfigError&) {
                throw RequestError("unknown design '" + d +
                                   "' (tourney | b2 | tagel | refbig)");
            }
        }
    }
    if (specs != nullptr) {
        const std::vector<Json> one;
        const std::vector<Json>& entries =
            specs->isArray() ? specs->asArray() : one;
        try {
            if (specs->isArray()) {
                if (entries.empty())
                    throw RequestError(
                        "'design_spec' must not be an empty array");
                for (const Json& e : entries)
                    out.push_back(sim::DesignSpec::fromJson(e));
            } else {
                out.push_back(sim::DesignSpec::fromJson(*specs));
            }
        } catch (const guard::ConfigError& e) {
            throw RequestError(std::string("'design_spec': ") +
                               e.what());
        }
        for (std::size_t i = out.size() - (specs->isArray()
                                               ? entries.size()
                                               : 1);
             i < out.size(); ++i) {
            if (out[i].name.empty())
                throw RequestError("'design_spec' documents need a "
                                   "non-empty \"name\" (it labels "
                                   "result points)");
        }
    }
    return out;
}

/** The "search" block of a `"kind": "search"` request. */
search::SearchConfig
parseSearchBlock(const Json& doc)
{
    search::SearchConfig cfg;
    const Json* s = doc.find("search");
    if (s == nullptr)
        return cfg; // All-defaults search is valid.
    if (!s->isObject())
        throw RequestError("'search' must be an object");
    cfg.seed = s->getU64("seed", cfg.seed);
    cfg.pool =
        static_cast<unsigned>(s->getU64("pool", cfg.pool));
    cfg.budget.storageKb =
        s->getU64("budget_kb", cfg.budget.storageKb);
    cfg.budget.areaUm2 =
        s->getDouble("budget_um2", cfg.budget.areaUm2);
    cfg.anchors = s->getBool("anchors", cfg.anchors);
    cfg.seedEvals = static_cast<unsigned>(
        s->getU64("seed_evals", cfg.seedEvals));
    cfg.functionalSurvivors = static_cast<unsigned>(
        s->getU64("survivors", cfg.functionalSurvivors));
    cfg.warpSurvivors = static_cast<unsigned>(
        s->getU64("warp_survivors", cfg.warpSurvivors));
    cfg.finalists = static_cast<unsigned>(
        s->getU64("finalists", cfg.finalists));
    cfg.traceBranches =
        s->getU64("trace_branches", cfg.traceBranches);
    cfg.traceWarmup = s->getU64("trace_warmup", cfg.traceWarmup);
    cfg.warpInsts = s->getU64("warp_insts", cfg.warpInsts);
    cfg.warpIntervals = static_cast<unsigned>(
        s->getU64("intervals", cfg.warpIntervals));
    cfg.warpSampleInsts =
        s->getU64("sample_insts", cfg.warpSampleInsts);
    cfg.detailInsts = s->getU64("insts", cfg.detailInsts);
    cfg.detailWarmup = s->getU64("warmup", cfg.detailWarmup);
    cfg.ridgeLambda = s->getDouble("ridge_lambda", cfg.ridgeLambda);
    return cfg;
}

} // namespace

SweepRequest
SweepRequest::parse(const std::string& text,
                    const std::string& fallback_id)
{
    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const JsonError& e) {
        throw RequestError(e.what());
    }
    if (!doc.isObject())
        throw RequestError("document must be a JSON object");

    SweepRequest r;
    try {
        r.id = doc.getString("id", fallback_id);
        r.client = doc.getString("client", "");
        r.priority = static_cast<int>(doc.getU64("priority", 1));
        r.kind = doc.getString("kind", "sweep");
        if (r.kind != "sweep" && r.kind != "search")
            throw RequestError("'kind' must be sweep | search, got '" +
                               r.kind + "'");

        if (r.kind == "sweep")
            r.designs = parseDesigns(doc);
        else if (doc.find("designs") != nullptr ||
                 doc.find("design_spec") != nullptr)
            throw RequestError("a search request explores designs "
                               "itself; drop 'designs'/'design_spec'");
        r.workloads = stringList(doc, "workloads");

        r.tracePath = doc.getString("trace", "");
        r.insts = doc.getU64("insts", r.insts);
        r.warmup = doc.getU64("warmup", r.warmup);
        r.ghist = ghistFromName(doc.getString("ghist", "replay"));
        r.sfb = doc.getBool("sfb", false);
        r.serialize = doc.getBool("serialize", false);
        r.audit = doc.getBool("audit", false);
        r.faultRate = doc.getDouble("fault_rate", 0.0);
        r.faultSeed = doc.getU64("fault_seed", r.faultSeed);
        r.deadlockCycles =
            doc.getU64("deadlock_cycles", r.deadlockCycles);
        {
            const std::string sp =
                doc.getString("specialize", "auto");
            if (sp == "auto")
                r.specialize = sim::SpecializeMode::Auto;
            else if (sp == "off")
                r.specialize = sim::SpecializeMode::Off;
            else if (sp == "require")
                r.specialize = sim::SpecializeMode::Require;
            else
                throw RequestError("'specialize' must be auto | off "
                                   "| require, got '" +
                                   sp + "'");
        }
        r.pointTimeoutMs = doc.getU64("point_timeout_ms", 0);
        r.maxRetries =
            static_cast<unsigned>(doc.getU64("max_retries", 2));

        if (const Json* w = doc.find("warp")) {
            if (!w->isObject())
                throw RequestError("'warp' must be an object");
            r.warp = true;
            r.intervals = static_cast<unsigned>(
                w->getU64("intervals", r.intervals));
            r.warmupCycles =
                w->getU64("warmup_cycles", r.warmupCycles);
            r.sampleInsts = w->getU64("sample_insts", r.sampleInsts);
        }
        if (r.kind == "search") {
            r.searchCfg = parseSearchBlock(doc);
            r.searchCfg.workloads = r.workloads;
        } else if (doc.find("search") != nullptr) {
            throw RequestError(
                "'search' needs \"kind\": \"search\"");
        }
    } catch (const JsonError& e) {
        // A typed-accessor mismatch (e.g. "insts": "lots").
        throw RequestError(e.what());
    }

    // ---- Semantic validation ------------------------------------------
    if (r.id.empty())
        throw RequestError("'id' must be non-empty");
    if (r.id.find('/') != std::string::npos ||
        r.id.find("..") != std::string::npos)
        throw RequestError("'id' must not contain '/' or '..' (it "
                           "names spool files)");
    if (r.client.empty())
        throw RequestError("'client' is required");
    if (r.priority < 0 || r.priority > 3)
        throw RequestError("'priority' must be in [0, 3]");
    if (r.maxRetries > 8)
        throw RequestError("'max_retries' must be <= 8");
    {
        std::set<std::string> seenDesigns;
        for (const sim::DesignSpec& d : r.designs) {
            if (!seenDesigns.insert(d.name).second)
                throw RequestError("duplicate design '" + d.name +
                                   "'");
        }
        const auto known = prog::WorkloadLibrary::all();
        const std::set<std::string> knownSet(known.begin(),
                                             known.end());
        std::set<std::string> seen;
        for (const std::string& w : r.workloads) {
            if (knownSet.count(w) == 0)
                throw RequestError("unknown workload '" + w + "'");
            if (!seen.insert(w).second)
                throw RequestError("duplicate workload '" + w + "'");
        }
    }
    if (r.kind == "search") {
        if (!r.tracePath.empty())
            throw RequestError(
                "'trace' does not apply to search requests");
        if (r.warp)
            throw RequestError("'warp' does not apply to search "
                               "requests (the search block has its "
                               "own warp tier)");
        try {
            r.searchCfg.validate();
        } catch (const guard::ConfigError& e) {
            throw RequestError(std::string("'search': ") + e.what());
        }
        return r;
    }
    if (!r.tracePath.empty() && r.workloads.size() != 1)
        throw RequestError("'trace' requires exactly one workload "
                           "(a capture is tied to one program)");
    if (r.warp) {
        if (r.intervals < 1)
            throw RequestError("'warp.intervals' must be >= 1");
        if (r.intervals > r.insts)
            throw RequestError(
                "'warp.intervals' exceeds the instruction budget");
        if (r.warmupCycles < 1)
            throw RequestError("'warp.warmup_cycles' must be >= 1");
    }
    // Run the full SimConfig validation (strict, as the CLI does) so
    // e.g. warmup > insts or fault_rate > 1 is rejected at admission
    // with the validator's own message, per design.
    try {
        for (const sim::DesignSpec& d : r.designs)
            r.makeConfig(d).validate(/*strict=*/true);
    } catch (const guard::ConfigError& e) {
        throw RequestError(e.what());
    }
    // "specialize": "require" is validated at admission, mirroring
    // cobra_sim's exit-2 path: a request whose fused loop cannot bind
    // (audit/fault guards active, or an unregistered tuple) is
    // rejected up front instead of failing every point.
    if (r.specialize == sim::SpecializeMode::Require) {
        for (const sim::DesignSpec& d : r.designs) {
            if (!sim::specializeAvailable(sim::buildTopology(d),
                                          r.makeConfig(d)))
                throw RequestError(
                    "'specialize': 'require' cannot be honoured for "
                    "design '" +
                    d.name +
                    "' (audit/fault injection active, or the "
                    "component tuple is not registered)");
        }
    }
    return r;
}

std::vector<PointSpec>
SweepRequest::points() const
{
    std::vector<PointSpec> out;
    if (kind == "search") {
        PointSpec p;
        p.label = "search";
        out.push_back(std::move(p));
        return out;
    }
    for (const std::string& wl : workloads) {
        for (const sim::DesignSpec& d : designs) {
            PointSpec p;
            p.design = d;
            p.workload = wl;
            p.label = d.name + "/" + wl;
            out.push_back(std::move(p));
        }
    }
    return out;
}

sim::SimConfig
SweepRequest::makeConfig(const sim::DesignSpec& d) const
{
    sim::SimConfig cfg = sim::makeConfig(d);
    cfg.maxInsts = insts;
    cfg.warmupInsts = warmup;
    cfg.frontend.ghistMode = ghist;
    cfg.backend.ghistMode = ghist;
    cfg.backend.sfbEnabled = sfb;
    cfg.frontend.serializeFetch = serialize;
    cfg.deadlockCycles = deadlockCycles;
    cfg.audit = audit;
    cfg.faultRate = faultRate;
    cfg.faultSeed = faultSeed;
    cfg.specialize = specialize;
    return cfg;
}

} // namespace cobra::serve
