/**
 * @file
 * The COBRA predictor sub-component interface (paper §III). Every
 * predictor structure in the library derives from PredictorComponent
 * and may respond at any latency p >= 1; the composer guarantees the
 * event contract (histories at end of cycle 1, metadata round-trip,
 * fire/mispredict/repair/update delivery).
 */

#ifndef COBRA_BPU_COMPONENT_HPP
#define COBRA_BPU_COMPONENT_HPP

#include <cassert>
#include <span>
#include <string>
#include <vector>

#include "bpu/pred_types.hpp"
#include "guard/errors.hpp"
#include "phys/area_model.hpp"
#include "phys/energy_model.hpp"

namespace cobra::warp {
class StateWriter;
class StateReader;
} // namespace cobra::warp

namespace cobra::bpu {

/**
 * Abstract base class for predictor sub-components.
 *
 * Contract (paper §III-A): a component with latency() == p produces
 * its prediction when the composer calls predict() at stage p of a
 * query, transforming the incoming `predict_in` bundle in place —
 * overriding fields where it predicts, passing through where it does
 * not. Components with p == 1 receive a null ghist (histories arrive
 * at the end of Fetch-1). The same Metadata written at predict time
 * is handed back verbatim in mispredict/repair/update events.
 */
class PredictorComponent
{
  public:
    PredictorComponent(std::string name, unsigned latency,
                       unsigned fetch_width)
        : name_(std::move(name)), latency_(latency),
          fetchWidth_(fetch_width)
    {
        if (latency < 1) {
            throw guard::ConfigError(
                "component '" + name_ + "'",
                "latency must be >= 1, got " + std::to_string(latency));
        }
        if (fetch_width < 1 || fetch_width > kMaxFetchWidth) {
            throw guard::ConfigError(
                "component '" + name_ + "'",
                "fetch width must be in [1, " +
                    std::to_string(kMaxFetchWidth) + "], got " +
                    std::to_string(fetch_width));
        }
    }

    virtual ~PredictorComponent() = default;

    PredictorComponent(const PredictorComponent&) = delete;
    PredictorComponent& operator=(const PredictorComponent&) = delete;

    /** Display name (e.g., "TAGE", "uBTB"). */
    const std::string& name() const { return name_; }

    /** Response latency p >= 1 in cycles after query (paper §III-A). */
    unsigned latency() const { return latency_; }

    /** Fetch width this component was built for. */
    unsigned fetchWidth() const { return fetchWidth_; }

    /** Bit-length of the metadata this component stores (§III-D). */
    virtual unsigned metaBits() const { return 0; }

    /**
     * True when the component consumes the local-history input; the
     * composer only generates a full local-history provider when some
     * component needs it (§IV-B3).
     */
    virtual bool usesLocalHistory() const { return false; }

    /**
     * Produce/augment a prediction. Called exactly once per query, at
     * stage latency(). @p inout carries predict_in and receives
     * predict_out; @p meta receives this component's metadata.
     */
    virtual void predict(const PredictContext& ctx, PredictionBundle& inout,
                         Metadata& meta) = 0;

    /**
     * True for arbitration schemes that consume multiple predict_in
     * inputs (paper §III-F, e.g. the tournament selector). Such
     * components are placed at Arb nodes of a topology and receive
     * arbitrate() instead of predict().
     */
    virtual bool isArbiter() const { return false; }

    /**
     * Arbitrate among child predictions. @p inputs are the children's
     * bundles in topology order; @p inout carries the chain's
     * predict_in (pass-through when the arbiter declines).
     */
    virtual void
    arbitrate(const PredictContext& ctx,
              std::span<const PredictionBundle> inputs,
              PredictionBundle& inout, Metadata& meta)
    {
        (void)inputs; (void)inout; (void)meta;
        throw guard::ContractViolation(
            name_, ctx.serial,
            "arbitrate() called on a non-arbiter component");
    }

    // ---- Event interface (paper §III-E) ------------------------------

    /** Speculative local-state update for a finalized prediction. */
    virtual void fire(const FireEvent& ev) { (void)ev; }

    /** Fast immediate update from a mispredicted branch. */
    virtual void mispredict(const ResolveEvent& ev) { (void)ev; }

    /** Restore misspeculated local state (forwards-walk repair). */
    virtual void repair(const ResolveEvent& ev) { (void)ev; }

    /** Slow commit-time update from a committing branch. */
    virtual void update(const ResolveEvent& ev) { (void)ev; }

    // ---- Checkpointing (warp) -----------------------------------------

    /**
     * Serialize every bit of learned/speculative state into @p w, and
     * restore it from @p r, such that a restored component is
     * behaviorally indistinguishable from the one that saved. The
     * defaults save/restore nothing — correct only for stateless
     * components; every stateful component must override both (see
     * docs/EXTENDING.md). The BPU brackets each component's stream
     * with a name-tagged section, so save/restore asymmetries surface
     * as structured guard::CheckpointError, not silent corruption.
     */
    virtual void saveState(warp::StateWriter& w) const { (void)w; }

    /** @see saveState */
    virtual void restoreState(warp::StateReader& r) { (void)r; }

    // ---- Fault injection (SimGuard) -----------------------------------

    /**
     * Flip one bit of architectural predictor state chosen by the
     * 64-bit random value @p rand. Returns false when the component
     * has no injectable table state (the FaultInjector then perturbs
     * the prediction output instead). Deterministic for a given
     * @p rand and state shape.
     */
    virtual bool flipStateBit(std::uint64_t rand)
    {
        (void)rand;
        return false;
    }

    // ---- Physical characterisation ------------------------------------

    /** Total architectural storage in bits (Table I accounting). */
    virtual std::uint64_t storageBits() const = 0;

    /** Physical inventory for the area model (Fig. 8). */
    virtual phys::PhysicalCost
    physicalCost() const
    {
        phys::PhysicalCost c;
        c.sramBits = storageBits();
        c.sramPorts = {1, 1, 0};
        // Index hash + output mux as a rough logic estimate.
        c.logicGates = 200 + storageBits() / 64;
        return c;
    }

    /**
     * Bits touched by one prediction (for the energy model; §VI-A
     * names predictor read energy as a first-order concern). The
     * default is a coarse one-row estimate; components with known
     * geometry override it.
     */
    virtual phys::AccessProfile
    predictAccess() const
    {
        phys::AccessProfile a;
        a.sramReadBits = storageBits() / 128 + 16;
        return a;
    }

    /** Bits touched by one commit-time update. */
    virtual phys::AccessProfile
    updateAccess() const
    {
        phys::AccessProfile a;
        a.sramWriteBits = storageBits() / 128 + 16;
        return a;
    }

    /** One-line parameter summary for reports. */
    virtual std::string
    describe() const
    {
        return name_ + " (latency " + std::to_string(latency_) + ")";
    }

  protected:
    /**
     * Helper asserting the history contract: components may only read
     * ghist when they respond at stage >= 2 (paper §III-B).
     */
    const HistoryRegister&
    requireGhist(const PredictContext& ctx) const
    {
        if (latency_ < 2) {
            throw guard::ContractViolation(
                name_, ctx.serial,
                "1-cycle components cannot read global history "
                "(histories arrive at the end of Fetch-1, §III-B)");
        }
        if (ctx.ghist == nullptr) {
            throw guard::ContractViolation(
                name_, ctx.serial,
                "global history unavailable: predict called before "
                "the Fetch-1 history capture");
        }
        return *ctx.ghist;
    }

  private:
    std::string name_;
    unsigned latency_;
    unsigned fetchWidth_;
};

} // namespace cobra::bpu

#endif // COBRA_BPU_COMPONENT_HPP
