#include "serve/request.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "serve/json.hpp"

namespace cobra::serve {

namespace {

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

constexpr std::uint64_t kUnsignedMax =
    std::numeric_limits<unsigned>::max();

/**
 * Member @p key of @p obj as a u64, range-checked before any caller
 * narrows it: above @p max it is a RequestError naming @p field, never
 * a wrapped value that lands back in range.
 */
std::uint64_t
boundedU64(const Json& obj, const char* key, std::uint64_t dflt,
           std::uint64_t max, const std::string& field)
{
    const std::uint64_t v = obj.getU64(key, dflt);
    if (v > max)
        throw RequestError("'" + field + "' must be <= " +
                           std::to_string(max));
    return v;
}

/** Reject @p obj's first key outside @p known, named with its block
 *  prefix @p where ("", "warp." or "search."). */
void
rejectUnknownKeys(const Json& obj, const std::string& where,
                  std::initializer_list<const char*> known)
{
    if (const std::string* k = firstUnknownKey(obj, known))
        throw RequestError("unknown field '" + where + *k + "'");
}

/** An `unsigned` member of the "search" block. */
unsigned
searchUnsigned(const Json& s, const char* key, unsigned dflt)
{
    return static_cast<unsigned>(boundedU64(
        s, key, dflt, kUnsignedMax, std::string("search.") + key));
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
    rejectUnknownKeys(*s, "search.",
                      {"seed", "pool", "budget_kb", "budget_um2",
                       "anchors", "seed_evals", "survivors",
                       "warp_survivors", "finalists", "trace_branches",
                       "trace_warmup", "warp_insts", "intervals",
                       "sample_insts", "insts", "warmup",
                       "ridge_lambda"});
    cfg.seed = s->getU64("seed", cfg.seed);
    cfg.pool = searchUnsigned(*s, "pool", cfg.pool);
    cfg.budget.storageKb =
        s->getU64("budget_kb", cfg.budget.storageKb);
    cfg.budget.areaUm2 =
        s->getDouble("budget_um2", cfg.budget.areaUm2);
    cfg.anchors = s->getBool("anchors", cfg.anchors);
    cfg.seedEvals = searchUnsigned(*s, "seed_evals", cfg.seedEvals);
    cfg.functionalSurvivors =
        searchUnsigned(*s, "survivors", cfg.functionalSurvivors);
    cfg.warpSurvivors =
        searchUnsigned(*s, "warp_survivors", cfg.warpSurvivors);
    cfg.finalists = searchUnsigned(*s, "finalists", cfg.finalists);
    cfg.traceBranches =
        s->getU64("trace_branches", cfg.traceBranches);
    cfg.traceWarmup = s->getU64("trace_warmup", cfg.traceWarmup);
    cfg.warpInsts = s->getU64("warp_insts", cfg.warpInsts);
    cfg.warpIntervals =
        searchUnsigned(*s, "intervals", cfg.warpIntervals);
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
    rejectUnknownKeys(doc, "",
                      {"id", "client", "priority", "kind", "designs",
                       "design_spec", "workloads", "trace", "insts",
                       "warmup", "ghist", "sfb", "serialize", "audit",
                       "fault_rate", "fault_seed", "deadlock_cycles",
                       "point_timeout_ms", "max_retries", "warp",
                       "search"});

    SweepRequest r;
    try {
        r.id = doc.getString("id", fallback_id);
        r.client = doc.getString("client", "");
        r.priority = static_cast<int>(
            boundedU64(doc, "priority", 1, 3, "priority"));
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
        const std::string ghist = doc.getString("ghist", "replay");
        const auto mode = bpu::ghistRepairModeFromName(ghist);
        if (!mode)
            throw RequestError("unknown ghist mode '" + ghist +
                               "' (none | repair | replay)");
        r.ghist = *mode;
        r.sfb = doc.getBool("sfb", false);
        r.serialize = doc.getBool("serialize", false);
        r.audit = doc.getBool("audit", false);
        r.faultRate = doc.getDouble("fault_rate", 0.0);
        r.faultSeed = doc.getU64("fault_seed", r.faultSeed);
        r.deadlockCycles =
            doc.getU64("deadlock_cycles", r.deadlockCycles);
        r.pointTimeoutMs = doc.getU64("point_timeout_ms", 0);
        r.maxRetries = static_cast<unsigned>(
            boundedU64(doc, "max_retries", 2, 8, "max_retries"));

        if (const Json* w = doc.find("warp")) {
            if (!w->isObject())
                throw RequestError("'warp' must be an object");
            rejectUnknownKeys(*w, "warp.",
                              {"intervals", "warmup_cycles",
                               "sample_insts"});
            r.warp = true;
            r.intervals = static_cast<unsigned>(
                boundedU64(*w, "intervals", r.intervals, kUnsignedMax,
                           "warp.intervals"));
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
    // Run the full SimConfig validation, as the CLI does, so e.g.
    // fault_rate > 1 is rejected at admission with the validator's
    // own message.
    try {
        for (const sim::DesignSpec& d : r.designs)
            r.makeConfig(d).validate();
    } catch (const guard::ConfigError& e) {
        throw RequestError(e.what());
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
    cfg.bpu.ghistMode = ghist;
    cfg.backend.sfbEnabled = sfb;
    cfg.frontend.serializeFetch = serialize;
    cfg.deadlockCycles = deadlockCycles;
    cfg.audit = audit;
    cfg.faultRate = faultRate;
    cfg.faultSeed = faultSeed;
    return cfg;
}

} // namespace cobra::serve
