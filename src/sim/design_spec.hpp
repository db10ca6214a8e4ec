/**
 * @file
 * DesignSpec: a declarative, serializable description of one COBRA
 * predictor design — the composer tree, the component kind in each
 * slot, every sizing knob, and the core/BPU management configuration.
 *
 * The spec is the single construction path for designs: the enum
 * presets of sim/presets.hpp are re-expressed as specs (presetSpec),
 * cobra_sim's --design flags and cobra_serve's "designs" lists resolve
 * through presetSpec(name), and the search driver (src/search/)
 * generates specs programmatically. buildTopology(spec) builds the
 * bare topology; the Simulator constructor then interposes the guard
 * decorators (--audit / fault injection) on every topology it is
 * given, so spec-built and preset-built designs get byte-identical
 * wrapping.
 *
 * Specs round-trip losslessly through JSON (toJson / fromJson) and are
 * validated with structured guard::ConfigError's naming the offending
 * field, so a malformed spec is always a diagnosable rejection, never
 * a mis-built topology.
 */

#ifndef COBRA_SIM_DESIGN_SPEC_HPP
#define COBRA_SIM_DESIGN_SPEC_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/presets.hpp"

namespace cobra::serve {
class Json;
} // namespace cobra::serve

namespace cobra::sim {

/** One tagged TAGE table (kind "tage" components only). */
struct TageTableSpec
{
    std::uint64_t sets = 512;
    std::uint64_t histLen = 8;
    std::uint64_t tagBits = 9;

    bool operator==(const TageTableSpec&) const = default;
};

/**
 * One predictor sub-component: a library kind plus sizing knobs.
 *
 * Kinds and their knobs (defaults match the C++ param structs):
 *  - "bim"     sets, ctr_bits, hist_bits, latency; mode = pc | ghist |
 *              lhist | gshare | lshare | path
 *  - "btb"     sets, ways, tag_bits, latency
 *  - "ubtb"    entries, ctr_bits
 *  - "gtag"    sets, ctr_bits, tag_bits, hist_bits, latency
 *  - "tage"    ctr_bits, u_bits, latency, u_decay_period; plus a
 *              non-empty `tables` array
 *  - "loop"    entries, tag_bits, count_bits, conf_max, conf_threshold,
 *              min_trip, latency
 *  - "tourney" sets, ctr_bits, hist_bits, latency  (arbiter)
 */
struct ComponentSpec
{
    std::string id;   ///< Display name, unique within the spec.
    std::string kind; ///< Library kind (see table above).
    /** Explicitly-set knobs; unset knobs take the kind's default. */
    std::map<std::string, std::uint64_t> knobs;
    std::string mode; ///< "bim" index mode; "" = pc.
    std::vector<TageTableSpec> tables; ///< "tage" only.

    bool operator==(const ComponentSpec&) const = default;
};

/** The composer expression tree over component ids (paper §IV-A). */
struct TreeSpec
{
    enum class Kind : std::uint8_t { Leaf, Chain, Arb };

    Kind kind = Kind::Leaf;
    std::string component;          ///< Leaf id / Arb arbiter id.
    std::vector<TreeSpec> children; ///< Chain / Arb children.

    static TreeSpec leaf(std::string id);
    static TreeSpec chain(std::vector<TreeSpec> children);
    static TreeSpec arb(std::string arbiter,
                        std::vector<TreeSpec> children);

    bool operator==(const TreeSpec&) const = default;
};

/** Core configuration block (defaults = the paper's Table II core). */
struct CoreSpec
{
    unsigned fetchBufferInsts = 32;
    unsigned rasEntries = 16;
    unsigned coreWidth = 4;
    unsigned robEntries = 128;
    unsigned intIqEntries = 32;
    unsigned memIqEntries = 32;
    unsigned fpIqEntries = 32;
    unsigned ldqEntries = 32;
    unsigned stqEntries = 32;
    unsigned aluPorts = 4;
    unsigned memPorts = 2;
    unsigned fpPorts = 2;
    /** Cache size overrides in bytes; 0 keeps the default hierarchy. */
    std::uint64_t l1iBytes = 0;
    std::uint64_t l1dBytes = 0;
    std::uint64_t l2Bytes = 0;
    std::uint64_t l3Bytes = 0;

    bool operator==(const CoreSpec&) const = default;
};

/** BPU management-structure block (histories, history file). */
struct BpuSpec
{
    unsigned ghistBits = 64;
    unsigned lhistSets = 256;
    unsigned lhistBits = 32;
    unsigned historyFileEntries = 64;
    unsigned updateWidth = 2;

    bool operator==(const BpuSpec&) const = default;
};

/**
 * A complete, self-contained design description. Everything cobra_sim
 * needs to evaluate the design — topology, sizing, and management
 * configuration — lives here; SimConfig run options (instruction
 * budgets, SFB, audit, ...) remain per-run and are layered on top.
 */
struct DesignSpec
{
    std::string name;        ///< Display name (header lines, labels).
    std::string description; ///< Table I-style description (optional).
    std::string notation;    ///< Paper notation (optional; derivable).
    unsigned fetchWidth = 4; ///< Applied to frontend, BPU, components.

    std::vector<ComponentSpec> components;
    TreeSpec tree;
    CoreSpec core;
    BpuSpec bpu;

    /**
     * Full structural + semantic validation. Throws guard::ConfigError
     * naming the offending field: unknown kinds/knobs, non-power-of-two
     * table sizes, dangling or reused tree references, non-arbiter at
     * an arb node, histories narrower than a component folds in, ...
     */
    void validate() const;

    /** Component by id; nullptr when absent. */
    const ComponentSpec* findComponent(const std::string& id) const;

    /**
     * Deterministic pretty-printed JSON document. fromJson(toJson())
     * reproduces the spec exactly (operator== holds), and two equal
     * specs serialize to byte-identical text.
     */
    std::string toJson() const;

    /**
     * Parse and validate one spec document. Throws guard::ConfigError
     * on malformed JSON, unknown fields of known blocks, or any
     * validate() violation.
     */
    static DesignSpec fromJson(const std::string& text);

    /**
     * Parse and validate a spec from an already-parsed JSON value
     * (e.g. an inline "design_spec" object inside a cobra_serve
     * request document). Same validation as the text overload.
     */
    static DesignSpec fromJson(const serve::Json& doc);

    bool operator==(const DesignSpec&) const = default;
};

/**
 * Validate @p spec and build the bare topology it describes. The
 * Simulator constructor adds the guard decorators (--audit / fault
 * injection) to whatever topology it is given.
 */
bpu::Topology buildTopology(const DesignSpec& spec);

/**
 * SimConfig for @p spec: the spec's core/BPU/cache blocks layered over
 * the defaults (run options keep their SimConfig defaults).
 */
SimConfig makeConfig(const DesignSpec& spec);

/** Total architectural storage of the spec's components, in bits. */
std::uint64_t specStorageBits(const DesignSpec& spec);

/**
 * Predictor area of the spec under @p model, in um^2 (component
 * physical costs only; management structures excluded, matching the
 * Table I storage accounting).
 */
double specAreaUm2(const DesignSpec& spec,
                   const phys::AreaModel& model);

/** Pipeline depth: maximum component latency across the spec. */
unsigned specMaxLatency(const DesignSpec& spec);

/** The preset enum re-expressed as a spec (bit-identical designs). */
DesignSpec presetSpec(Design d);

/**
 * Preset spec from a CLI/request name: tourney | b2 | tagel | refbig
 * (aliases tage-l, ref-big accepted). Throws guard::ConfigError on an
 * unknown name.
 */
DesignSpec presetSpec(const std::string& name);

} // namespace cobra::sim

#endif // COBRA_SIM_DESIGN_SPEC_HPP
