/**
 * @file
 * The COBRA predictor composer (paper §IV-B): interprets a Topology
 * to generate the staged predictor pipeline. For a query, the bundle
 * visible at stage d is the fold of all sub-components with latency
 * <= d in priority order; a component's response is computed exactly
 * once (at its latency, with the predict_in of that stage) and its
 * field-level overrides are replayed onto later stages, so earlier
 * predictions are "carried over" exactly as in the paper's Fig. 4.
 */

#ifndef COBRA_BPU_COMPOSER_HPP
#define COBRA_BPU_COMPOSER_HPP

#include <memory>
#include <vector>

#include "bpu/topology.hpp"
#include "common/stats.hpp"

namespace cobra::bpu {

/** Field groups a component can provide for a slot (pass-through
 *  tracking; see paper §III-F on partial predictions). */
enum ProvideMask : std::uint8_t
{
    kProvideNone = 0,
    kProvideDir = 1,   ///< valid/taken direction fields.
    kProvideTarget = 2, ///< targetValid/target fields.
    kProvideType = 4,  ///< CFI type / call / ret fields.
};

/** "No component provided this field" marker for provider indices. */
inline constexpr std::uint8_t kNoProvider = 0xFF;

/**
 * Per-query evaluation state. The frontend creates one per fetch
 * packet and evaluates stages in increasing order (1, 2, ..., D).
 */
class QueryState
{
  public:
    QueryState() = default;

    /** Reset for a new query over @p numComponents components.
     *  @p serial is the BPU's monotonic query id (0 outside a BPU). */
    void reset(Addr pc, unsigned valid_slots, unsigned num_components,
               unsigned width, std::uint64_t serial = 0);

    /** Capture histories (call at the end of Fetch-1, §III-B). */
    void
    captureHistory(const HistoryRegister& ghist, std::uint64_t lhist,
                   std::uint64_t phist = 0)
    {
        ghist_ = ghist;
        lhist_ = lhist;
        phist_ = phist;
        histCaptured_ = true;
    }

    bool historyCaptured() const { return histCaptured_; }
    Addr pc() const { return pc_; }
    unsigned validSlots() const { return validSlots_; }
    unsigned width() const { return width_; }
    const HistoryRegister& ghist() const { return ghist_; }
    std::uint64_t lhist() const { return lhist_; }
    std::uint64_t phist() const { return phist_; }

    /** Metadata gathered from all components (by component index). */
    const MetadataBundle& metadata() const { return metas_; }
    /** Writable view for a fire broadcast, which may extend it. */
    MetadataBundle& metadata() { return metas_; }

    /** Component index that provided each slot's direction field in
     *  the final fold (kNoProvider where nothing predicted). */
    const std::array<std::uint8_t, kMaxFetchWidth>&
    dirProvider() const
    {
        return dirProvider_;
    }

    /** Component index that provided each slot's target field. */
    const std::array<std::uint8_t, kMaxFetchWidth>&
    targetProvider() const
    {
        return targetProvider_;
    }

  private:
    friend class ComposedPredictor;

    /** Cached result of one component's single predict() invocation:
     *  its output bundle and, per field group, the bitmask of slots
     *  where it changed its predict_in (what it provided). */
    struct CompResult
    {
        bool computed = false;
        PredictionBundle out{};
        std::uint8_t dirMask = 0;
        std::uint8_t targetMask = 0;
        std::uint8_t typeMask = 0;

        /** ProvideMask of slot @p i. */
        std::uint8_t
        provided(unsigned i) const
        {
            return static_cast<std::uint8_t>(
                ((dirMask >> i) & 1) * kProvideDir |
                ((targetMask >> i) & 1) * kProvideTarget |
                ((typeMask >> i) & 1) * kProvideType);
        }
    };

    Addr pc_ = kInvalidAddr;
    unsigned validSlots_ = 4;
    unsigned width_ = 4;
    bool histCaptured_ = false;
    HistoryRegister ghist_{1};
    std::uint64_t lhist_ = 0;
    std::uint64_t phist_ = 0;
    unsigned lastStage_ = 0;
    std::uint64_t serial_ = 0;
    /** Inline for <= 8 components: query reset allocates nothing. */
    SmallVector<CompResult, 8> results_;
    MetadataBundle metas_;
    /** The bundle evaluateStage() builds and returns. */
    PredictionBundle bundle_{};
    std::array<std::uint8_t, kMaxFetchWidth> dirProvider_{};
    std::array<std::uint8_t, kMaxFetchWidth> targetProvider_{};
};

/**
 * Per-component composition-attribution counters (CobraScope): who
 * provided each prediction field, who overrode whom, and whether the
 * provider turned out right — the composition effects the paper's
 * aggregate accuracy numbers average away.
 */
struct CompAttribution
{
    explicit CompAttribution(std::string groupName)
        : group(std::move(groupName))
    {}

    StatGroup group;
    Stat<Counter> dirProvided{group, "dir_provided",
                              "slots whose direction this component set"};
    Stat<Counter> dirOverrides{
        group, "dir_overrides",
        "direction predictions that overrode an earlier component"};
    Stat<Counter> dirAgreements{
        group, "dir_agreements",
        "direction predictions agreeing with the incoming bundle"};
    Stat<Counter> targetProvided{group, "target_provided",
                                 "slots whose target this component set"};
    Stat<Counter> providerCorrect{
        group, "provider_correct",
        "resolved branches whose provided direction was right"};
    Stat<Counter> providerWrong{
        group, "provider_wrong",
        "resolved branches whose provided direction was wrong"};
};

/**
 * A complete generated predictor pipeline. Broadcasts the §III-E
 * events to every sub-component with its own metadata slice.
 */
class ComposedPredictor
{
  public:
    /**
     * @param topo   Validated topology (ownership transferred).
     * @param width  Fetch width (slots per prediction bundle).
     */
    ComposedPredictor(Topology topo, unsigned width = 4);

    /** Pipeline depth: stages needed for the final prediction. */
    unsigned maxLatency() const { return maxLatency_; }

    unsigned width() const { return width_; }

    /** Flattened component list; index = metadata slot. */
    const std::vector<PredictorComponent*>&
    components() const
    {
        return components_;
    }

    const Topology& topology() const { return topo_; }

    /**
     * Evaluate the composed prediction visible at stage @p d.
     * Stages must be evaluated in increasing order per query; the
     * result for a stage is deterministic and repeatable. The bundle
     * belongs to @p q and is rebuilt in place by the next call.
     */
    const PredictionBundle& evaluateStage(QueryState& q, unsigned d);

    // ---- Event broadcast (management glue, §IV-B2) -------------------

    void fire(FireEvent ev, MetadataBundle& metas);
    void mispredict(ResolveEvent ev, const MetadataBundle& metas);
    void repair(ResolveEvent ev, const MetadataBundle& metas);
    void update(ResolveEvent ev, const MetadataBundle& metas);

    /**
     * Batched commit-time update: deliver @p n resolve events
     * component-major (component 0 sees event 0..n-1, then component
     * 1, ...), coalescing one table touch per component per cycle
     * instead of n. Per-component event order is preserved, and
     * components are mutually independent, so the final state is
     * bit-identical to n sequential update() broadcasts.
     * @p metas[e] is event e's metadata bundle.
     */
    void updateBatch(ResolveEvent* evs, const MetadataBundle* const* metas,
                     std::size_t n);

    /**
     * Credit the recorded per-slot direction providers against the
     * resolved outcome (called once per commit update): right calls
     * bump provider_correct, wrong ones provider_wrong.
     */
    void creditResolution(
        const ResolveEvent& ev,
        const std::array<std::uint8_t, kMaxFetchWidth>& dir_provider);

    /** Per-component attribution stats, parallel to components(). */
    const std::vector<std::unique_ptr<CompAttribution>>&
    attribution() const
    {
        return attribution_;
    }

    // ---- Physical accounting ------------------------------------------

    /** Total predictor storage in bits (sub-components only). */
    std::uint64_t storageBits() const;

    /** Sum of per-entry metadata bits (stored in the history file). */
    unsigned totalMetaBits() const;

    /** True when any component consumes local histories (§IV-B3). */
    bool usesLocalHistory() const;

  private:
    /**
     * One step of a stage plan: compute-or-replay one component's
     * patch. An arbiter step names the plans of its children, which
     * run on fresh bundles when the arbiter computes.
     */
    struct PlanStep
    {
        PredictorComponent* comp = nullptr;
        std::uint32_t ci = 0;        ///< Metadata slot of comp.
        std::uint32_t kidsBegin = 0; ///< Arbiter children in kidPlans_.
        std::uint32_t kidsEnd = 0;   ///< == kidsBegin for a non-arbiter.
    };

    /** A run [begin, end) of steps_. */
    struct Plan
    {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    /** Append the plan of node @p idx at stage @p d to steps_: the
     *  tree walk's order, without components that pass through at
     *  @p d (latency > d). */
    Plan buildPlan(std::size_t idx, unsigned d);
    void collectSteps(std::size_t idx, unsigned d,
                      std::vector<PlanStep>& out);

    void runPlan(QueryState& q, Plan plan, unsigned d,
                 PredictionBundle& bundle);

    /** Compute-or-replay @p step's component patch onto @p bundle. */
    void applyComponent(QueryState& q, const PlanStep& step, unsigned d,
                        PredictionBundle& bundle);

    /** Index of @p comp in components_ (construction-time only). */
    std::size_t compIndex(const PredictorComponent* comp) const;

    PredictContext makeContext(const QueryState& q, unsigned d) const;

    Topology topo_;
    unsigned width_;
    unsigned maxLatency_;
    std::vector<PredictorComponent*> components_;
    std::vector<PlanStep> steps_;
    /** Children's plans of every arbiter step. */
    std::vector<Plan> kidPlans_;
    /** Plan of stage d at [d - 1], d = 1..maxLatency_; later stages
     *  run the last one. */
    std::vector<Plan> stagePlans_;
    /** Attribution counters, one group per component (same index). */
    std::vector<std::unique_ptr<CompAttribution>> attribution_;
};

/** Diff two slots; returns the ProvideMask of changed field groups. */
std::uint8_t diffSlots(const PredictionSlot& before,
                       const PredictionSlot& after);

/** Overwrite the field groups in @p mask of @p dst from @p src. */
void applySlotPatch(PredictionSlot& dst, const PredictionSlot& src,
                    std::uint8_t mask);

} // namespace cobra::bpu

#endif // COBRA_BPU_COMPOSER_HPP
