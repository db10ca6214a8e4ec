#include "search/features.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace cobra::search {

namespace {

/** Stable site key: packet pc and slot fused. */
std::uint64_t
siteKey(Addr pc, unsigned slot)
{
    return (static_cast<std::uint64_t>(pc) << 3) | (slot & 7u);
}

/** Site hash for the alias-pressure tables (fibonacci scramble). */
std::uint64_t
siteHash(std::uint64_t key)
{
    return (key * 0x9E3779B97F4A7C15ull) >> 17;
}

/** Saturating 2-bit counter step. */
void
bump(std::uint8_t& ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else if (ctr > 0) {
        --ctr;
    }
}

/** One idealized 2-bit-counter reference predictor. */
struct RefTable
{
    unsigned histBits;       ///< 0 = per-PC bimodal.
    std::uint64_t correct = 0;
    std::vector<std::uint8_t> ctrs;

    explicit RefTable(unsigned hist_bits)
        : histBits(hist_bits), ctrs(1u << 12, 1)
    {
    }

    void
    step(std::uint64_t key, std::uint64_t ghist, bool taken,
         bool measured)
    {
        std::uint64_t idx = siteHash(key);
        if (histBits > 0) {
            const std::uint64_t mask =
                histBits >= 64 ? ~0ull : ((1ull << histBits) - 1);
            idx ^= ghist & mask;
        }
        idx &= ctrs.size() - 1;
        if (measured && ((ctrs[idx] >= 2) == taken))
            ++correct;
        bump(ctrs[idx], taken);
    }
};

/** Conflict counter: a hashed table remembering each slot's last site. */
struct AliasTable
{
    std::uint64_t conflicts = 0;
    std::uint64_t lookups = 0;
    std::vector<std::uint64_t> last;

    explicit AliasTable(unsigned index_bits)
        : last(1u << index_bits, ~0ull)
    {
    }

    void
    step(std::uint64_t key, bool measured)
    {
        auto& slot = last[siteHash(key) & (last.size() - 1)];
        if (measured) {
            ++lookups;
            if (slot != ~0ull && slot != key)
                ++conflicts;
        }
        slot = key;
    }

    double
    rate() const
    {
        return lookups == 0
                   ? 0.0
                   : static_cast<double>(conflicts) / lookups;
    }
};

struct SiteCounts
{
    std::uint64_t taken = 0;
    std::uint64_t total = 0;
};

double
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

} // namespace

std::vector<double>
WorkloadFeatures::vec() const
{
    return {takenRate, entropyBits,  biasedFrac, alias10,
            alias14,   bimAccuracy,  gshareAcc8, gshareAcc16,
            gshareAcc32, gshareAcc64};
}

std::vector<std::string>
WorkloadFeatures::names()
{
    return {"taken_rate",  "entropy_bits", "biased_frac",
            "alias10",     "alias14",      "bim_acc",
            "gshare_acc8", "gshare_acc16", "gshare_acc32",
            "gshare_acc64"};
}

WorkloadFeatures
workloadFeatures(const std::string& name, const trace::DecodedTrace& tr,
                 std::size_t warmup)
{
    WorkloadFeatures f;
    f.workload = name;

    std::unordered_map<std::uint64_t, SiteCounts> sites;
    AliasTable alias10(10), alias14(14);
    RefTable refs[] = {RefTable(0), RefTable(8), RefTable(16),
                       RefTable(32), RefTable(64)};
    std::uint64_t ghist = 0;
    std::uint64_t takenCount = 0;

    std::size_t cond = 0;
    for (std::size_t i = 0; i < tr.size(); ++i) {
        if (tr.typeAt(i) != trace::RecordType::Cond)
            continue;
        const bool measured = cond++ >= warmup;
        const bool taken = tr.takenAt(i);
        const std::uint64_t key = siteKey(tr.pc[i], tr.slotAt(i));

        for (auto& ref : refs)
            ref.step(key, ghist, taken, measured);
        alias10.step(key, measured);
        alias14.step(key, measured);
        if (measured) {
            ++f.branches;
            takenCount += taken ? 1 : 0;
            auto& sc = sites[key];
            ++sc.total;
            sc.taken += taken ? 1 : 0;
        }
        ghist = (ghist << 1) | (taken ? 1 : 0);
    }

    f.staticBranches = sites.size();
    if (f.branches > 0) {
        f.takenRate = static_cast<double>(takenCount) / f.branches;
        double entropy = 0.0;
        std::uint64_t biased = 0;
        for (const auto& [key, sc] : sites) {
            (void)key;
            const double p =
                static_cast<double>(sc.taken) / sc.total;
            const double weight =
                static_cast<double>(sc.total) / f.branches;
            entropy += weight * binaryEntropy(p);
            if (p >= 0.95 || p <= 0.05)
                biased += sc.total;
        }
        f.entropyBits = entropy;
        f.biasedFrac = static_cast<double>(biased) / f.branches;
        f.alias10 = alias10.rate();
        f.alias14 = alias14.rate();
        const double denom = static_cast<double>(f.branches);
        f.bimAccuracy = refs[0].correct / denom;
        f.gshareAcc8 = refs[1].correct / denom;
        f.gshareAcc16 = refs[2].correct / denom;
        f.gshareAcc32 = refs[3].correct / denom;
        f.gshareAcc64 = refs[4].correct / denom;
    }
    return f;
}

std::vector<double>
DesignFeatures::vec() const
{
    return {log2StorageBits, log2AreaUm2, latency, maxHistBits,
            tageTables,      log2BtbEntries, hasLoop, hasTage,
            hasGtag,         hasTourney,     hasUbtb};
}

std::vector<std::string>
DesignFeatures::names()
{
    return {"log2_storage_bits", "log2_area_um2", "latency",
            "max_hist_bits",     "tage_tables",   "log2_btb_entries",
            "has_loop",          "has_tage",      "has_gtag",
            "has_tourney",       "has_ubtb"};
}

DesignFeatures
designFeatures(const sim::DesignSpec& spec,
               const phys::AreaModel& model)
{
    DesignFeatures d;
    const std::uint64_t bits = sim::specStorageBits(spec);
    const double area = sim::specAreaUm2(spec, model);
    d.log2StorageBits = bits > 0 ? std::log2(bits) : 0.0;
    d.log2AreaUm2 = area > 0.0 ? std::log2(area) : 0.0;
    d.latency = sim::specMaxLatency(spec);

    auto knob = [](const sim::ComponentSpec& c, const char* name,
                   std::uint64_t dflt) {
        auto it = c.knobs.find(name);
        return it == c.knobs.end() ? dflt : it->second;
    };

    for (const auto& c : spec.components) {
        if (c.kind == "loop") {
            d.hasLoop = 1.0;
        } else if (c.kind == "tage") {
            d.hasTage = 1.0;
            d.tageTables =
                std::max(d.tageTables,
                         static_cast<double>(c.tables.size()));
            for (const auto& t : c.tables)
                d.maxHistBits = std::max(
                    d.maxHistBits, static_cast<double>(t.histLen));
        } else if (c.kind == "gtag") {
            d.hasGtag = 1.0;
            d.maxHistBits = std::max(
                d.maxHistBits,
                static_cast<double>(knob(c, "hist_bits", 16)));
        } else if (c.kind == "tourney") {
            d.hasTourney = 1.0;
        } else if (c.kind == "ubtb") {
            d.hasUbtb = 1.0;
        } else if (c.kind == "btb") {
            const double entries =
                static_cast<double>(knob(c, "sets", 256) *
                                    knob(c, "ways", 2));
            d.log2BtbEntries = entries > 0.0 ? std::log2(entries) : 0.0;
        } else if (c.kind == "bim" && !c.mode.empty() &&
                   c.mode != "pc") {
            d.maxHistBits = std::max(
                d.maxHistBits,
                static_cast<double>(knob(c, "hist_bits", 0)));
        }
    }
    return d;
}

std::vector<double>
pairFeatures(const DesignFeatures& d, const WorkloadFeatures& w)
{
    std::vector<double> row = d.vec();
    const std::vector<double> wv = w.vec();
    row.insert(row.end(), wv.begin(), wv.end());
    return row;
}

std::vector<std::string>
pairFeatureNames()
{
    std::vector<std::string> names = DesignFeatures::names();
    for (auto& n : WorkloadFeatures::names())
        names.push_back("wl_" + n);
    return names;
}

} // namespace cobra::search
