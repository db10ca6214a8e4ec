#include "sim/design_spec.hpp"

#include <algorithm>
#include <sstream>

#include "common/bitutil.hpp"
#include "common/json.hpp"
#include "components/bim.hpp"
#include "components/btb.hpp"
#include "components/gtag.hpp"
#include "components/loop.hpp"
#include "components/tage.hpp"
#include "components/tourney.hpp"
#include "guard/errors.hpp"
#include "serve/json.hpp"

namespace cobra::sim {

using namespace cobra::comps;
using guard::ConfigError;

namespace {

// ---- Knob registry ----------------------------------------------------

/** One sizing knob: name, default, legal range, pow2 requirement. */
struct KnobDef
{
    const char* name;
    std::uint64_t dflt;
    std::uint64_t min;
    std::uint64_t max;
    bool pow2 = false;
};

struct KindDef
{
    const char* kind;
    std::vector<KnobDef> knobs;
    bool hasMode = false;   ///< "bim" index-mode string.
    bool hasTables = false; ///< "tage" tagged-table array.
    bool arbiter = false;   ///< Must sit at an arb node.
};

const std::vector<KindDef>&
kindRegistry()
{
    static const std::vector<KindDef> kinds = {
        {"bim",
         {{"sets", 4096, 2, 1u << 24, true},
          {"ctr_bits", 2, 1, 8},
          {"hist_bits", 10, 0, 64},
          {"latency", 2, 1, 8}},
         /*hasMode=*/true},
        {"btb",
         {{"sets", 256, 1, 1u << 20, true},
          {"ways", 2, 1, 16},
          {"tag_bits", 20, 1, 48},
          {"latency", 2, 1, 8}}},
        {"ubtb",
         {{"entries", 32, 1, 1u << 16, true},
          {"ctr_bits", 2, 1, 8}}},
        {"gtag",
         {{"sets", 512, 2, 1u << 24, true},
          {"ctr_bits", 2, 1, 8},
          {"tag_bits", 7, 1, 32},
          {"hist_bits", 16, 0, 64},
          {"latency", 3, 2, 8}}},
        {"tage",
         {{"ctr_bits", 3, 2, 4},
          {"u_bits", 2, 1, 8},
          {"latency", 3, 2, 8},
          {"u_decay_period", 1u << 18, 1, 1ull << 32}},
         /*hasMode=*/false, /*hasTables=*/true},
        {"loop",
         {{"entries", 256, 2, 1u << 16, true},
          {"tag_bits", 10, 1, 32},
          {"count_bits", 10, 1, 32},
          {"conf_max", 15, 1, 255},
          {"conf_threshold", 6, 1, 255},
          {"min_trip", 3, 0, 255},
          {"latency", 3, 1, 8}}},
        {"tourney",
         {{"sets", 1024, 2, 1u << 24, true},
          {"ctr_bits", 2, 1, 4},
          {"hist_bits", 10, 0, 64},
          {"latency", 3, 2, 8}},
         /*hasMode=*/false, /*hasTables=*/false, /*arbiter=*/true}};
    return kinds;
}

const KindDef*
findKind(const std::string& kind)
{
    for (const KindDef& k : kindRegistry())
        if (kind == k.kind)
            return &k;
    return nullptr;
}

std::string
knownKindNames()
{
    std::string out;
    for (const KindDef& k : kindRegistry()) {
        if (!out.empty())
            out += " | ";
        out += k.kind;
    }
    return out;
}

/** Resolved knob value: explicit when set, the kind default otherwise. */
std::uint64_t
knobValue(const ComponentSpec& c, const KindDef& kd, const char* name)
{
    auto it = c.knobs.find(name);
    if (it != c.knobs.end())
        return it->second;
    for (const KnobDef& k : kd.knobs)
        if (std::string_view(k.name) == name)
            return k.dflt;
    throw ConfigError("component '" + c.id + "'",
                      std::string("unknown knob '") + name + "'");
}

// ---- Index modes ------------------------------------------------------

struct ModeName
{
    const char* name;
    IndexMode mode;
};

constexpr ModeName kModeNames[] = {
    {"pc", IndexMode::Pc},         {"ghist", IndexMode::GlobalHist},
    {"lhist", IndexMode::LocalHist}, {"gshare", IndexMode::GshareHash},
    {"lshare", IndexMode::LshareHash}, {"path", IndexMode::PathHash},
};

IndexMode
modeFromName(const std::string& name, const std::string& field)
{
    for (const ModeName& m : kModeNames)
        if (name == m.name)
            return m.mode;
    throw ConfigError(field, "unknown index mode '" + name +
                                 "' (pc | ghist | lhist | gshare | "
                                 "lshare | path)");
}

bool
modeReadsGlobalHistory(IndexMode m)
{
    return m == IndexMode::GlobalHist || m == IndexMode::GshareHash ||
           m == IndexMode::PathHash;
}

bool
modeReadsLocalHistory(IndexMode m)
{
    return m == IndexMode::LocalHist || m == IndexMode::LshareHash;
}

// ---- Component construction ------------------------------------------

bpu::PredictorComponent*
makeComponent(bpu::Topology& topo, const ComponentSpec& c,
              unsigned fetch_width)
{
    const KindDef& kd = *findKind(c.kind);
    const auto u = [&](const char* name) {
        return static_cast<unsigned>(knobValue(c, kd, name));
    };
    if (c.kind == "bim") {
        HbimParams p;
        p.sets = u("sets");
        p.ctrBits = u("ctr_bits");
        p.mode = modeFromName(c.mode.empty() ? "pc" : c.mode,
                              "component '" + c.id + "'.mode");
        p.histBits = u("hist_bits");
        p.latency = u("latency");
        p.fetchWidth = fetch_width;
        return topo.make<Hbim>(c.id, p);
    }
    if (c.kind == "btb") {
        BtbParams p;
        p.sets = u("sets");
        p.ways = u("ways");
        p.tagBits = u("tag_bits");
        p.latency = u("latency");
        p.fetchWidth = fetch_width;
        return topo.make<Btb>(c.id, p);
    }
    if (c.kind == "ubtb") {
        MicroBtbParams p;
        p.entries = u("entries");
        p.ctrBits = u("ctr_bits");
        p.fetchWidth = fetch_width;
        return topo.make<MicroBtb>(c.id, p);
    }
    if (c.kind == "gtag") {
        GtagParams p;
        p.sets = u("sets");
        p.ctrBits = u("ctr_bits");
        p.tagBits = u("tag_bits");
        p.histBits = u("hist_bits");
        p.latency = u("latency");
        p.fetchWidth = fetch_width;
        return topo.make<Gtag>(c.id, p);
    }
    if (c.kind == "tage") {
        TageParams p;
        p.ctrBits = u("ctr_bits");
        p.uBits = u("u_bits");
        p.latency = u("latency");
        p.uDecayPeriod = knobValue(c, kd, "u_decay_period");
        p.fetchWidth = fetch_width;
        for (const TageTableSpec& t : c.tables) {
            TageTableParams tp;
            tp.sets = static_cast<unsigned>(t.sets);
            tp.histLen = static_cast<unsigned>(t.histLen);
            tp.tagBits = static_cast<unsigned>(t.tagBits);
            p.tables.push_back(tp);
        }
        return topo.make<Tage>(c.id, p);
    }
    if (c.kind == "loop") {
        LoopParams p;
        p.entries = u("entries");
        p.tagBits = u("tag_bits");
        p.countBits = u("count_bits");
        p.confMax = u("conf_max");
        p.confThreshold = u("conf_threshold");
        p.minTrip = u("min_trip");
        p.latency = u("latency");
        p.fetchWidth = fetch_width;
        return topo.make<LoopPredictor>(c.id, p);
    }
    if (c.kind == "tourney") {
        TourneyParams p;
        p.sets = u("sets");
        p.ctrBits = u("ctr_bits");
        p.histBits = u("hist_bits");
        p.latency = u("latency");
        p.fetchWidth = fetch_width;
        return topo.make<Tourney>(c.id, p);
    }
    throw ConfigError("component '" + c.id + "'",
                      "unknown kind '" + c.kind + "'");
}

// ---- Tree validation / construction ----------------------------------

void
collectTreeIds(const TreeSpec& t, std::vector<std::string>& out)
{
    if (t.kind == TreeSpec::Kind::Leaf || t.kind == TreeSpec::Kind::Arb)
        out.push_back(t.component);
    for (const TreeSpec& c : t.children)
        collectTreeIds(c, out);
}

void
validateTreeNode(const DesignSpec& spec, const TreeSpec& t)
{
    switch (t.kind) {
      case TreeSpec::Kind::Leaf: {
        const ComponentSpec* c = spec.findComponent(t.component);
        if (c == nullptr) {
            throw ConfigError("tree",
                              "leaf references unknown component '" +
                                  t.component + "'");
        }
        if (findKind(c->kind) != nullptr && findKind(c->kind)->arbiter) {
            throw ConfigError("tree", "component '" + t.component +
                                          "' is an arbiter and must sit "
                                          "at an arb node, not a leaf");
        }
        if (!t.children.empty())
            throw ConfigError("tree", "leaf nodes take no children");
        break;
      }
      case TreeSpec::Kind::Chain: {
        if (t.children.empty())
            throw ConfigError("tree", "chain node has no children");
        if (!t.component.empty()) {
            throw ConfigError("tree",
                              "chain nodes name no component (got '" +
                                  t.component + "')");
        }
        break;
      }
      case TreeSpec::Kind::Arb: {
        const ComponentSpec* c = spec.findComponent(t.component);
        if (c == nullptr) {
            throw ConfigError("tree",
                              "arb references unknown arbiter '" +
                                  t.component + "'");
        }
        const KindDef* kd = findKind(c->kind);
        if (kd == nullptr || !kd->arbiter) {
            throw ConfigError("tree", "arb arbiter '" + t.component +
                                          "' must be an arbiter kind "
                                          "(tourney), got '" +
                                          c->kind + "'");
        }
        if (t.children.size() != 2) {
            throw ConfigError(
                "tree", "arbiter '" + t.component + "' takes exactly 2 "
                        "children, got " +
                            std::to_string(t.children.size()));
        }
        break;
      }
    }
    for (const TreeSpec& c : t.children)
        validateTreeNode(spec, c);
}

bpu::NodeRef
buildTreeNode(bpu::Topology& topo, const TreeSpec& t,
              const std::map<std::string, bpu::PredictorComponent*>& byId)
{
    switch (t.kind) {
      case TreeSpec::Kind::Leaf:
        return topo.leaf(byId.at(t.component));
      case TreeSpec::Kind::Chain: {
        std::vector<bpu::NodeRef> kids;
        kids.reserve(t.children.size());
        for (const TreeSpec& c : t.children)
            kids.push_back(buildTreeNode(topo, c, byId));
        return topo.chain(std::move(kids));
      }
      case TreeSpec::Kind::Arb: {
        std::vector<bpu::NodeRef> kids;
        kids.reserve(t.children.size());
        for (const TreeSpec& c : t.children)
            kids.push_back(buildTreeNode(topo, c, byId));
        return topo.arb(byId.at(t.component), std::move(kids));
      }
    }
    throw ConfigError("tree", "unreachable node kind");
}

} // namespace

// ---- TreeSpec factories ----------------------------------------------

TreeSpec
TreeSpec::leaf(std::string id)
{
    TreeSpec t;
    t.kind = Kind::Leaf;
    t.component = std::move(id);
    return t;
}

TreeSpec
TreeSpec::chain(std::vector<TreeSpec> children)
{
    TreeSpec t;
    t.kind = Kind::Chain;
    t.children = std::move(children);
    return t;
}

TreeSpec
TreeSpec::arb(std::string arbiter, std::vector<TreeSpec> children)
{
    TreeSpec t;
    t.kind = Kind::Arb;
    t.component = std::move(arbiter);
    t.children = std::move(children);
    return t;
}

// ---- Validation -------------------------------------------------------

const ComponentSpec*
DesignSpec::findComponent(const std::string& id) const
{
    for (const ComponentSpec& c : components)
        if (c.id == id)
            return &c;
    return nullptr;
}

void
DesignSpec::validate() const
{
    if (name.empty())
        throw ConfigError("design.name", "must be non-empty");
    if (fetchWidth < 1 || fetchWidth > 8) {
        throw ConfigError("design.fetch_width",
                          "must be in [1, 8], got " +
                              std::to_string(fetchWidth));
    }
    if (components.empty())
        throw ConfigError("design.components", "must be non-empty");

    for (const ComponentSpec& c : components) {
        const std::string where = "component '" + c.id + "'";
        if (c.id.empty())
            throw ConfigError("design.components",
                              "component ids must be non-empty");
        if (std::count_if(components.begin(), components.end(),
                          [&](const ComponentSpec& o) {
                              return o.id == c.id;
                          }) != 1) {
            throw ConfigError("design.components",
                              "duplicate component id '" + c.id + "'");
        }
        const KindDef* kd = findKind(c.kind);
        if (kd == nullptr) {
            throw ConfigError(where, "unknown kind '" + c.kind + "' (" +
                                         knownKindNames() + ")");
        }
        for (const auto& [kname, kval] : c.knobs) {
            const KnobDef* def = nullptr;
            for (const KnobDef& k : kd->knobs)
                if (kname == k.name)
                    def = &k;
            if (def == nullptr) {
                throw ConfigError(where, "unknown knob '" + kname +
                                             "' for kind '" + c.kind +
                                             "'");
            }
            if (kval < def->min || kval > def->max) {
                throw ConfigError(
                    where, kname + " must be in [" +
                               std::to_string(def->min) + ", " +
                               std::to_string(def->max) + "], got " +
                               std::to_string(kval));
            }
            if (def->pow2 && !isPow2(kval)) {
                throw ConfigError(where,
                                  kname + " must be a power of two, "
                                          "got " +
                                      std::to_string(kval));
            }
        }
        if (!c.mode.empty() && !kd->hasMode) {
            throw ConfigError(where, "kind '" + c.kind +
                                         "' takes no index mode");
        }
        if (!c.tables.empty() && !kd->hasTables) {
            throw ConfigError(where, "kind '" + c.kind +
                                         "' takes no tagged tables");
        }
        if (kd->hasMode) {
            const IndexMode m = modeFromName(
                c.mode.empty() ? "pc" : c.mode, where + ".mode");
            const auto latency = knobValue(c, *kd, "latency");
            if (m != IndexMode::Pc && latency < 2) {
                throw ConfigError(
                    where, "history-indexed modes need latency >= 2 "
                           "(histories arrive at the end of Fetch-1)");
            }
            const auto histBits = knobValue(c, *kd, "hist_bits");
            if (modeReadsGlobalHistory(m) && histBits > bpu.ghistBits) {
                throw ConfigError(where,
                                  "hist_bits (" +
                                      std::to_string(histBits) +
                                      ") exceeds bpu.ghist_bits (" +
                                      std::to_string(bpu.ghistBits) +
                                      ")");
            }
            if (modeReadsLocalHistory(m) && histBits > bpu.lhistBits) {
                throw ConfigError(where,
                                  "hist_bits (" +
                                      std::to_string(histBits) +
                                      ") exceeds bpu.lhist_bits (" +
                                      std::to_string(bpu.lhistBits) +
                                      ")");
            }
        }
        if (kd->hasTables) {
            if (c.tables.empty()) {
                throw ConfigError(where,
                                  "kind 'tage' needs a non-empty "
                                  "tables array");
            }
            if (c.tables.size() > 15) {
                throw ConfigError(where,
                                  "at most 15 tagged tables, got " +
                                      std::to_string(c.tables.size()));
            }
            for (std::size_t i = 0; i < c.tables.size(); ++i) {
                const TageTableSpec& t = c.tables[i];
                const std::string tw =
                    where + ".tables[" + std::to_string(i) + "]";
                if (t.sets < 2 || t.sets > (1u << 24) || !isPow2(t.sets))
                    throw ConfigError(tw, "sets must be a power of two "
                                          "in [2, 2^24], got " +
                                              std::to_string(t.sets));
                if (t.histLen < 1 || t.histLen > bpu.ghistBits) {
                    throw ConfigError(
                        tw, "hist_len must be in [1, bpu.ghist_bits=" +
                                std::to_string(bpu.ghistBits) +
                                "], got " + std::to_string(t.histLen));
                }
                if (t.tagBits < 1 || t.tagBits > 32)
                    throw ConfigError(tw,
                                      "tag_bits must be in [1, 32], "
                                      "got " +
                                          std::to_string(t.tagBits));
            }
        }
        if (c.kind == "gtag") {
            const auto histBits = knobValue(c, *kd, "hist_bits");
            if (histBits > bpu.ghistBits) {
                throw ConfigError(where,
                                  "hist_bits (" +
                                      std::to_string(histBits) +
                                      ") exceeds bpu.ghist_bits (" +
                                      std::to_string(bpu.ghistBits) +
                                      ")");
            }
        }
        if (c.kind == "tourney") {
            const auto histBits = knobValue(c, *kd, "hist_bits");
            if (histBits > bpu.ghistBits) {
                throw ConfigError(where,
                                  "hist_bits (" +
                                      std::to_string(histBits) +
                                      ") exceeds bpu.ghist_bits (" +
                                      std::to_string(bpu.ghistBits) +
                                      ")");
            }
        }
    }

    // Tree: structurally sound, every component used exactly once.
    validateTreeNode(*this, tree);
    std::vector<std::string> used;
    collectTreeIds(tree, used);
    for (const ComponentSpec& c : components) {
        const auto n = std::count(used.begin(), used.end(), c.id);
        if (n == 0) {
            throw ConfigError("tree", "component '" + c.id +
                                          "' is never referenced");
        }
        if (n > 1) {
            throw ConfigError("tree", "component '" + c.id +
                                          "' referenced " +
                                          std::to_string(n) +
                                          " times (each component may "
                                          "appear once)");
        }
    }

    // Management blocks (mirrors BpuConfig::validate so a bad spec is
    // rejected before any model is constructed).
    if (bpu.ghistBits < 1 || bpu.ghistBits > 1024)
        throw ConfigError("bpu.ghist_bits", "must be in [1, 1024]");
    if (bpu.lhistSets < 1 || bpu.lhistSets > 65536 ||
        !isPow2(bpu.lhistSets))
        throw ConfigError("bpu.lhist_sets",
                          "must be a power of two in [1, 65536]");
    if (bpu.lhistBits < 1 || bpu.lhistBits > 64)
        throw ConfigError("bpu.lhist_bits", "must be in [1, 64]");
    if (bpu.historyFileEntries < 2 || bpu.historyFileEntries > 4096)
        throw ConfigError("bpu.history_file_entries",
                          "must be in [2, 4096]");
    if (bpu.updateWidth < 1)
        throw ConfigError("bpu.update_width", "must be >= 1");

    if (core.coreWidth < 1 || core.coreWidth > 16)
        throw ConfigError("core.core_width", "must be in [1, 16]");
    if (core.robEntries < core.coreWidth || core.robEntries > 4096)
        throw ConfigError("core.rob_entries",
                          "must be in [core_width, 4096]");
    if (core.rasEntries < 1 || core.rasEntries > 4096)
        throw ConfigError("core.ras_entries", "must be in [1, 4096]");
    const struct { const char* name; std::uint64_t v; } cacheBytes[] = {
        {"core.l1i_bytes", core.l1iBytes},
        {"core.l1d_bytes", core.l1dBytes},
        {"core.l2_bytes", core.l2Bytes},
        {"core.l3_bytes", core.l3Bytes},
    };
    for (const auto& cb : cacheBytes) {
        if (cb.v != 0 &&
            (cb.v < 1024 || cb.v > core::kMaxCacheBytes || !isPow2(cb.v))) {
            throw ConfigError(cb.name,
                              "cache override must be a power of two in "
                              "[1024, 64 MiB] bytes (0 keeps the "
                              "default)");
        }
    }
}

// ---- Construction -----------------------------------------------------

bpu::Topology
buildTopology(const DesignSpec& spec)
{
    spec.validate();
    bpu::Topology topo;
    std::map<std::string, bpu::PredictorComponent*> byId;
    for (const ComponentSpec& c : spec.components)
        byId[c.id] = makeComponent(topo, c, spec.fetchWidth);
    topo.setRoot(buildTreeNode(topo, spec.tree, byId));
    topo.validate();
    return topo;
}

SimConfig
makeConfig(const DesignSpec& spec)
{
    SimConfig cfg;
    cfg.frontend.fetchWidth = spec.fetchWidth;
    cfg.frontend.fetchBufferInsts = spec.core.fetchBufferInsts;
    cfg.frontend.rasEntries = spec.core.rasEntries;
    cfg.backend.coreWidth = spec.core.coreWidth;
    cfg.backend.robEntries = spec.core.robEntries;
    cfg.backend.intIqEntries = spec.core.intIqEntries;
    cfg.backend.memIqEntries = spec.core.memIqEntries;
    cfg.backend.fpIqEntries = spec.core.fpIqEntries;
    cfg.backend.ldqEntries = spec.core.ldqEntries;
    cfg.backend.stqEntries = spec.core.stqEntries;
    cfg.backend.aluPorts = spec.core.aluPorts;
    cfg.backend.memPorts = spec.core.memPorts;
    cfg.backend.fpPorts = spec.core.fpPorts;

    cfg.bpu.fetchWidth = spec.fetchWidth;
    cfg.bpu.historyFileEntries = spec.bpu.historyFileEntries;
    cfg.bpu.updateWidth = spec.bpu.updateWidth;
    cfg.bpu.ghistBits = spec.bpu.ghistBits;
    cfg.bpu.lhistSets = spec.bpu.lhistSets;
    cfg.bpu.lhistBits = spec.bpu.lhistBits;

    if (spec.core.l1iBytes != 0)
        cfg.caches.l1i.sizeBytes = spec.core.l1iBytes;
    if (spec.core.l1dBytes != 0)
        cfg.caches.l1d.sizeBytes = spec.core.l1dBytes;
    if (spec.core.l2Bytes != 0)
        cfg.caches.l2.sizeBytes = spec.core.l2Bytes;
    if (spec.core.l3Bytes != 0)
        cfg.caches.l3.sizeBytes = spec.core.l3Bytes;
    return cfg;
}

// ---- Derived physical characteristics --------------------------------

std::uint64_t
specStorageBits(const DesignSpec& spec)
{
    bpu::Topology topo = buildTopology(spec);
    std::uint64_t bits = 0;
    for (const auto* c : topo.componentList())
        bits += c->storageBits();
    return bits;
}

double
specAreaUm2(const DesignSpec& spec, const phys::AreaModel& model)
{
    bpu::Topology topo = buildTopology(spec);
    double um2 = 0.0;
    for (const auto* c : topo.componentList())
        um2 += model.area(c->physicalCost());
    return um2;
}

unsigned
specMaxLatency(const DesignSpec& spec)
{
    return buildTopology(spec).maxLatency();
}

// ---- JSON emission ----------------------------------------------------

namespace {

void
emitTree(std::ostringstream& os, const TreeSpec& t)
{
    switch (t.kind) {
      case TreeSpec::Kind::Leaf:
        os << '"' << jsonEscape(t.component) << '"';
        break;
      case TreeSpec::Kind::Chain: {
        os << "{\"chain\": [";
        bool first = true;
        for (const TreeSpec& c : t.children) {
            if (!first)
                os << ", ";
            first = false;
            emitTree(os, c);
        }
        os << "]}";
        break;
      }
      case TreeSpec::Kind::Arb: {
        os << "{\"arb\": \"" << jsonEscape(t.component)
           << "\", \"children\": [";
        bool first = true;
        for (const TreeSpec& c : t.children) {
            if (!first)
                os << ", ";
            first = false;
            emitTree(os, c);
        }
        os << "]}";
        break;
      }
    }
}

} // namespace

std::string
DesignSpec::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": \"" << jsonEscape(name) << "\",\n";
    os << "  \"description\": \"" << jsonEscape(description) << "\",\n";
    os << "  \"notation\": \"" << jsonEscape(notation) << "\",\n";
    os << "  \"fetch_width\": " << fetchWidth << ",\n";
    os << "  \"components\": [\n";
    for (std::size_t i = 0; i < components.size(); ++i) {
        const ComponentSpec& c = components[i];
        os << "    {\"id\": \"" << jsonEscape(c.id) << "\", \"kind\": \""
           << jsonEscape(c.kind) << "\"";
        if (!c.mode.empty())
            os << ", \"mode\": \"" << jsonEscape(c.mode) << "\"";
        if (!c.knobs.empty()) {
            os << ", \"knobs\": {";
            bool first = true;
            for (const auto& [k, v] : c.knobs) {
                if (!first)
                    os << ", ";
                first = false;
                os << '"' << jsonEscape(k) << "\": " << v;
            }
            os << "}";
        }
        if (!c.tables.empty()) {
            os << ",\n     \"tables\": [";
            bool first = true;
            for (const TageTableSpec& t : c.tables) {
                if (!first)
                    os << ",\n                ";
                first = false;
                os << "{\"sets\": " << t.sets
                   << ", \"hist_len\": " << t.histLen
                   << ", \"tag_bits\": " << t.tagBits << "}";
            }
            os << "]";
        }
        os << "}" << (i + 1 < components.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"tree\": ";
    emitTree(os, tree);
    os << ",\n";
    os << "  \"core\": {\"fetch_buffer_insts\": " << core.fetchBufferInsts
       << ", \"ras_entries\": " << core.rasEntries
       << ", \"core_width\": " << core.coreWidth
       << ", \"rob_entries\": " << core.robEntries << ",\n"
       << "           \"int_iq_entries\": " << core.intIqEntries
       << ", \"mem_iq_entries\": " << core.memIqEntries
       << ", \"fp_iq_entries\": " << core.fpIqEntries << ",\n"
       << "           \"ldq_entries\": " << core.ldqEntries
       << ", \"stq_entries\": " << core.stqEntries
       << ", \"alu_ports\": " << core.aluPorts
       << ", \"mem_ports\": " << core.memPorts
       << ", \"fp_ports\": " << core.fpPorts << ",\n"
       << "           \"l1i_bytes\": " << core.l1iBytes
       << ", \"l1d_bytes\": " << core.l1dBytes
       << ", \"l2_bytes\": " << core.l2Bytes
       << ", \"l3_bytes\": " << core.l3Bytes << "},\n";
    os << "  \"bpu\": {\"ghist_bits\": " << bpu.ghistBits
       << ", \"lhist_sets\": " << bpu.lhistSets
       << ", \"lhist_bits\": " << bpu.lhistBits
       << ", \"history_file_entries\": " << bpu.historyFileEntries
       << ", \"update_width\": " << bpu.updateWidth << "}\n";
    os << "}\n";
    return os.str();
}

// ---- JSON parsing -----------------------------------------------------

namespace {

using serve::Json;

[[noreturn]] void
badField(const std::string& field, const std::string& detail)
{
    throw ConfigError(field, detail);
}

unsigned
getUnsigned(const Json& obj, const std::string& key, unsigned dflt,
            const std::string& where)
{
    const Json* v = obj.find(key);
    if (v == nullptr)
        return dflt;
    if (!v->isNumber())
        badField(where + "." + key, "must be a number");
    const std::uint64_t u = v->asU64();
    if (u > 0xFFFFFFFFull)
        badField(where + "." + key, "out of range");
    return static_cast<unsigned>(u);
}

std::uint64_t
getU64Checked(const Json& obj, const std::string& key,
              std::uint64_t dflt, const std::string& where)
{
    const Json* v = obj.find(key);
    if (v == nullptr)
        return dflt;
    if (!v->isNumber())
        badField(where + "." + key, "must be a number");
    return v->asU64();
}

void
rejectUnknownKeys(const Json& obj, const std::string& where,
                  std::initializer_list<const char*> known)
{
    if (const std::string* k = serve::firstUnknownKey(obj, known))
        badField(where, "unknown field '" + *k + "'");
}

TreeSpec
parseTree(const Json& j, const std::string& where)
{
    if (j.isString())
        return TreeSpec::leaf(j.asString());
    if (!j.isObject()) {
        badField(where, "tree nodes are a component-id string, "
                        "{\"chain\": [...]}, or "
                        "{\"arb\": id, \"children\": [...]}");
    }
    if (const Json* chain = j.find("chain")) {
        rejectUnknownKeys(j, where, {"chain"});
        if (!chain->isArray())
            badField(where + ".chain", "must be an array");
        std::vector<TreeSpec> kids;
        std::size_t i = 0;
        for (const Json& c : chain->asArray()) {
            kids.push_back(parseTree(
                c, where + ".chain[" + std::to_string(i) + "]"));
            ++i;
        }
        return TreeSpec::chain(std::move(kids));
    }
    if (const Json* arb = j.find("arb")) {
        rejectUnknownKeys(j, where, {"arb", "children"});
        if (!arb->isString())
            badField(where + ".arb", "must be a component-id string");
        const Json* kidsJ = j.find("children");
        if (kidsJ == nullptr || !kidsJ->isArray())
            badField(where, "arb nodes need a \"children\" array");
        std::vector<TreeSpec> kids;
        std::size_t i = 0;
        for (const Json& c : kidsJ->asArray()) {
            kids.push_back(parseTree(
                c, where + ".children[" + std::to_string(i) + "]"));
            ++i;
        }
        return TreeSpec::arb(arb->asString(), std::move(kids));
    }
    badField(where, "object tree nodes need \"chain\" or \"arb\"");
}

ComponentSpec
parseComponent(const Json& j, const std::string& where)
{
    if (!j.isObject())
        badField(where, "must be an object");
    rejectUnknownKeys(j, where, {"id", "kind", "mode", "knobs", "tables"});
    ComponentSpec c;
    const Json* id = j.find("id");
    if (id == nullptr || !id->isString())
        badField(where, "needs a string \"id\"");
    c.id = id->asString();
    const Json* kind = j.find("kind");
    if (kind == nullptr || !kind->isString())
        badField(where, "needs a string \"kind\"");
    c.kind = kind->asString();
    c.mode = j.getString("mode", "");
    if (const Json* knobs = j.find("knobs")) {
        if (!knobs->isObject())
            badField(where + ".knobs", "must be an object");
        for (const auto& [k, v] : knobs->asObject()) {
            if (!v.isNumber())
                badField(where + ".knobs." + k, "must be a number");
            c.knobs[k] = v.asU64();
        }
    }
    if (const Json* tables = j.find("tables")) {
        if (!tables->isArray())
            badField(where + ".tables", "must be an array");
        std::size_t i = 0;
        for (const Json& t : tables->asArray()) {
            const std::string tw =
                where + ".tables[" + std::to_string(i) + "]";
            if (!t.isObject())
                badField(tw, "must be an object");
            rejectUnknownKeys(t, tw, {"sets", "hist_len", "tag_bits"});
            TageTableSpec ts;
            ts.sets = getU64Checked(t, "sets", ts.sets, tw);
            ts.histLen = getU64Checked(t, "hist_len", ts.histLen, tw);
            ts.tagBits = getU64Checked(t, "tag_bits", ts.tagBits, tw);
            c.tables.push_back(ts);
            ++i;
        }
    }
    return c;
}

} // namespace

DesignSpec
DesignSpec::fromJson(const std::string& text)
{
    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const serve::JsonError& e) {
        throw ConfigError("design spec", e.what());
    }
    return fromJson(doc);
}

DesignSpec
DesignSpec::fromJson(const serve::Json& doc)
{
    if (!doc.isObject())
        throw ConfigError("design spec", "must be a JSON object");
    rejectUnknownKeys(doc, "design",
                      {"name", "description", "notation", "fetch_width",
                       "components", "tree", "core", "bpu"});

    DesignSpec spec;
    spec.name = doc.getString("name", "");
    spec.description = doc.getString("description", "");
    spec.notation = doc.getString("notation", "");
    spec.fetchWidth =
        getUnsigned(doc, "fetch_width", spec.fetchWidth, "design");

    const Json* comps = doc.find("components");
    if (comps == nullptr || !comps->isArray())
        throw ConfigError("design.components", "must be an array");
    std::size_t i = 0;
    for (const Json& c : comps->asArray()) {
        spec.components.push_back(parseComponent(
            c, "design.components[" + std::to_string(i) + "]"));
        ++i;
    }

    const Json* tree = doc.find("tree");
    if (tree == nullptr)
        throw ConfigError("design.tree", "is required");
    spec.tree = parseTree(*tree, "design.tree");

    if (const Json* core = doc.find("core")) {
        if (!core->isObject())
            throw ConfigError("design.core", "must be an object");
        rejectUnknownKeys(
            *core, "design.core",
            {"fetch_buffer_insts", "ras_entries", "core_width",
             "rob_entries", "int_iq_entries", "mem_iq_entries",
             "fp_iq_entries", "ldq_entries", "stq_entries", "alu_ports",
             "mem_ports", "fp_ports", "l1i_bytes", "l1d_bytes",
             "l2_bytes", "l3_bytes"});
        CoreSpec& cs = spec.core;
        cs.fetchBufferInsts = getUnsigned(*core, "fetch_buffer_insts",
                                          cs.fetchBufferInsts, "core");
        cs.rasEntries =
            getUnsigned(*core, "ras_entries", cs.rasEntries, "core");
        cs.coreWidth =
            getUnsigned(*core, "core_width", cs.coreWidth, "core");
        cs.robEntries =
            getUnsigned(*core, "rob_entries", cs.robEntries, "core");
        cs.intIqEntries = getUnsigned(*core, "int_iq_entries",
                                      cs.intIqEntries, "core");
        cs.memIqEntries = getUnsigned(*core, "mem_iq_entries",
                                      cs.memIqEntries, "core");
        cs.fpIqEntries =
            getUnsigned(*core, "fp_iq_entries", cs.fpIqEntries, "core");
        cs.ldqEntries =
            getUnsigned(*core, "ldq_entries", cs.ldqEntries, "core");
        cs.stqEntries =
            getUnsigned(*core, "stq_entries", cs.stqEntries, "core");
        cs.aluPorts = getUnsigned(*core, "alu_ports", cs.aluPorts, "core");
        cs.memPorts = getUnsigned(*core, "mem_ports", cs.memPorts, "core");
        cs.fpPorts = getUnsigned(*core, "fp_ports", cs.fpPorts, "core");
        cs.l1iBytes = getU64Checked(*core, "l1i_bytes", cs.l1iBytes,
                                    "core");
        cs.l1dBytes = getU64Checked(*core, "l1d_bytes", cs.l1dBytes,
                                    "core");
        cs.l2Bytes = getU64Checked(*core, "l2_bytes", cs.l2Bytes, "core");
        cs.l3Bytes = getU64Checked(*core, "l3_bytes", cs.l3Bytes, "core");
    }

    if (const Json* bpuJ = doc.find("bpu")) {
        if (!bpuJ->isObject())
            throw ConfigError("design.bpu", "must be an object");
        rejectUnknownKeys(*bpuJ, "design.bpu",
                          {"ghist_bits", "lhist_sets", "lhist_bits",
                           "history_file_entries", "update_width"});
        BpuSpec& bs = spec.bpu;
        bs.ghistBits =
            getUnsigned(*bpuJ, "ghist_bits", bs.ghistBits, "bpu");
        bs.lhistSets =
            getUnsigned(*bpuJ, "lhist_sets", bs.lhistSets, "bpu");
        bs.lhistBits =
            getUnsigned(*bpuJ, "lhist_bits", bs.lhistBits, "bpu");
        bs.historyFileEntries = getUnsigned(
            *bpuJ, "history_file_entries", bs.historyFileEntries, "bpu");
        bs.updateWidth =
            getUnsigned(*bpuJ, "update_width", bs.updateWidth, "bpu");
    }

    spec.validate();
    return spec;
}

// ---- Presets ----------------------------------------------------------

namespace {

ComponentSpec
comp(std::string id, std::string kind,
     std::initializer_list<std::pair<const char*, std::uint64_t>> knobs,
     std::string mode = "")
{
    ComponentSpec c;
    c.id = std::move(id);
    c.kind = std::move(kind);
    c.mode = std::move(mode);
    for (const auto& [k, v] : knobs)
        c.knobs.emplace(k, v);
    return c;
}

std::vector<TageTableSpec>
tageLTables(std::uint64_t sets, std::uint64_t tag_bump)
{
    // TageParams::tageL geometry: 7 tables, 9..11-bit tags.
    const std::uint64_t lens[7] = {4, 7, 12, 20, 32, 48, 64};
    std::vector<TageTableSpec> tables;
    for (std::uint64_t i = 0; i < 7; ++i)
        tables.push_back({sets, lens[i], 9 + i / 3 + tag_bump});
    return tables;
}

} // namespace

DesignSpec
presetSpec(Design d)
{
    DesignSpec spec;
    spec.name = designName(d);
    spec.description = designDescription(d);
    spec.notation = designTopologyNotation(d);

    switch (d) {
      case Design::Tourney: {
        spec.components = {
            comp("GBIM", "bim",
                 {{"sets", 4096}, {"ctr_bits", 2}, {"hist_bits", 12},
                  {"latency", 2}},
                 "gshare"),
            comp("LBIM", "bim",
                 {{"sets", 1024}, {"ctr_bits", 2}, {"hist_bits", 10},
                  {"latency", 2}},
                 "lshare"),
            comp("BTB", "btb",
                 {{"sets", 256}, {"ways", 2}, {"tag_bits", 20},
                  {"latency", 2}}),
            comp("TOURNEY", "tourney",
                 {{"sets", 1024}, {"ctr_bits", 2}, {"hist_bits", 10},
                  {"latency", 3}}),
        };
        spec.tree = TreeSpec::arb(
            "TOURNEY",
            {TreeSpec::chain(
                 {TreeSpec::leaf("GBIM"), TreeSpec::leaf("BTB")}),
             TreeSpec::leaf("LBIM")});
        spec.bpu.ghistBits = 32;
        spec.bpu.lhistSets = 256;
        spec.bpu.lhistBits = 32;
        break;
      }
      case Design::B2: {
        spec.components = {
            comp("GTAG", "gtag",
                 {{"sets", 512}, {"ctr_bits", 2}, {"tag_bits", 7},
                  {"hist_bits", 16}, {"latency", 3}}),
            comp("BTB", "btb",
                 {{"sets", 256}, {"ways", 2}, {"tag_bits", 20},
                  {"latency", 2}}),
            comp("BIM", "bim",
                 {{"sets", 4096}, {"ctr_bits", 2}, {"hist_bits", 10},
                  {"latency", 2}},
                 "pc"),
        };
        spec.tree = TreeSpec::chain({TreeSpec::leaf("GTAG"),
                                     TreeSpec::leaf("BTB"),
                                     TreeSpec::leaf("BIM")});
        spec.bpu.ghistBits = 16;
        break;
      }
      case Design::TageL: {
        ComponentSpec tage =
            comp("TAGE", "tage",
                 {{"ctr_bits", 3}, {"u_bits", 2}, {"latency", 3},
                  {"u_decay_period", 1u << 18}});
        tage.tables = tageLTables(1024, 0);
        spec.components = {
            comp("LOOP", "loop",
                 {{"entries", 256}, {"tag_bits", 10}, {"count_bits", 10},
                  {"conf_max", 15}, {"conf_threshold", 6},
                  {"min_trip", 3}, {"latency", 3}}),
            tage,
            comp("BTB", "btb",
                 {{"sets", 256}, {"ways", 2}, {"tag_bits", 20},
                  {"latency", 2}}),
            comp("BIM", "bim",
                 {{"sets", 4096}, {"ctr_bits", 2}, {"hist_bits", 10},
                  {"latency", 2}},
                 "pc"),
            comp("uBTB", "ubtb", {{"entries", 32}, {"ctr_bits", 2}}),
        };
        spec.tree = TreeSpec::chain(
            {TreeSpec::leaf("LOOP"), TreeSpec::leaf("TAGE"),
             TreeSpec::leaf("BTB"), TreeSpec::leaf("BIM"),
             TreeSpec::leaf("uBTB")});
        spec.bpu.ghistBits = 64;
        break;
      }
      case Design::RefBig: {
        ComponentSpec tage =
            comp("TAGE", "tage",
                 {{"ctr_bits", 3}, {"u_bits", 2}, {"latency", 3},
                  {"u_decay_period", 1u << 18}});
        tage.tables = tageLTables(4096, 2);
        // The preset's eighth, even longer table (a copy of the last).
        tage.tables.push_back({4096, 64, 13});
        spec.components = {
            comp("LOOP", "loop",
                 {{"entries", 512}, {"tag_bits", 10}, {"count_bits", 10},
                  {"conf_max", 15}, {"conf_threshold", 6},
                  {"min_trip", 3}, {"latency", 3}}),
            tage,
            comp("BTB", "btb",
                 {{"sets", 512}, {"ways", 4}, {"tag_bits", 20},
                  {"latency", 2}}),
            comp("BIM", "bim",
                 {{"sets", 8192}, {"ctr_bits", 2}, {"hist_bits", 10},
                  {"latency", 2}},
                 "pc"),
            comp("uBTB", "ubtb", {{"entries", 64}, {"ctr_bits", 2}}),
        };
        spec.tree = TreeSpec::chain(
            {TreeSpec::leaf("LOOP"), TreeSpec::leaf("TAGE"),
             TreeSpec::leaf("BTB"), TreeSpec::leaf("BIM"),
             TreeSpec::leaf("uBTB")});
        spec.bpu.ghistBits = 64;
        spec.core.coreWidth = 6;
        spec.core.robEntries = 224;
        spec.core.aluPorts = 6;
        spec.core.memPorts = 3;
        spec.core.intIqEntries = 64;
        spec.core.memIqEntries = 48;
        spec.core.l1iBytes = 64 * 1024;
        spec.core.l1dBytes = 64 * 1024;
        spec.core.l2Bytes = 1024 * 1024;
        spec.core.l3Bytes = 16 * 1024 * 1024;
        break;
      }
    }
    return spec;
}

DesignSpec
presetSpec(const std::string& name)
{
    if (name == "tourney")
        return presetSpec(Design::Tourney);
    if (name == "b2")
        return presetSpec(Design::B2);
    if (name == "tagel" || name == "tage-l")
        return presetSpec(Design::TageL);
    if (name == "refbig" || name == "ref-big")
        return presetSpec(Design::RefBig);
    throw ConfigError("design", "unknown design '" + name +
                                    "' (tourney | b2 | tagel | refbig)");
}

} // namespace cobra::sim
