/**
 * @file
 * Topological representation of a predictor pipeline (paper §IV-A).
 *
 * A topology is an expression tree over predictor sub-components:
 *
 *  - chain({a, b, c})  encodes the ordering  a > b > c  (a overrides b
 *    overrides c whenever the final prediction is ambiguous);
 *  - arb(t, {x, y})    encodes  t > [x, y]  (arbiter t chooses among
 *    the children's predictions);
 *  - leaf(c)           a single sub-component.
 *
 * The Topology owns its components. The ComposedPredictor interprets
 * the tree to generate the staged pipeline (paper §IV-B).
 */

#ifndef COBRA_BPU_TOPOLOGY_HPP
#define COBRA_BPU_TOPOLOGY_HPP

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bpu/component.hpp"

namespace cobra::bpu {

/** Lightweight handle to a node within a Topology. */
struct NodeRef
{
    std::size_t idx = static_cast<std::size_t>(-1);
    bool valid() const { return idx != static_cast<std::size_t>(-1); }
};

/**
 * Owns sub-components and the expression tree connecting them.
 */
class Topology
{
  public:
    Topology() = default;
    Topology(Topology&&) = default;
    Topology& operator=(Topology&&) = default;

    /** Construct and register a component; returns a non-owning ptr. */
    template <typename T, typename... Args>
    T*
    make(Args&&... args)
    {
        auto owned = std::make_unique<T>(std::forward<Args>(args)...);
        T* raw = owned.get();
        owned_.push_back(std::move(owned));
        return raw;
    }

    /** Register an externally created component (takes ownership). */
    PredictorComponent*
    adopt(std::unique_ptr<PredictorComponent> c)
    {
        PredictorComponent* raw = c.get();
        owned_.push_back(std::move(c));
        return raw;
    }

    /** A leaf node for one component. */
    NodeRef leaf(PredictorComponent* comp);

    /**
     * An ordering chain; children listed highest-priority FIRST, i.e.
     * chain({a, b}) means "a > b" in the paper's notation.
     */
    NodeRef chain(std::vector<NodeRef> children);

    /** An arbitration node: @p arbiter chooses among @p children. */
    NodeRef arb(PredictorComponent* arbiter, std::vector<NodeRef> children);

    /** Convenience: chain of leaves, highest priority first. */
    NodeRef chainOf(std::vector<PredictorComponent*> comps);

    void setRoot(NodeRef root) { root_ = root; }
    NodeRef root() const { return root_; }

    /**
     * Validate structure: root set, arbiters are arbiters, every
     * component used at most once. Throws std::logic_error on error.
     */
    void validate() const;

    /**
     * Replace every owned component with @p wrap(component) and remap
     * the tree's node pointers accordingly. Used to interpose
     * decorators (ContractAuditor, FaultInjector) around every
     * component without the presets knowing about them. The wrapper
     * must preserve name/latency/fetchWidth or re-validate after.
     */
    void wrapEach(
        const std::function<std::unique_ptr<PredictorComponent>(
            std::unique_ptr<PredictorComponent>)>& wrap);

    /** Maximum component latency (pipeline depth). */
    unsigned maxLatency() const;

    /**
     * Components in deterministic pre-order (highest priority first);
     * index in this list is the component's metadata slot.
     */
    std::vector<PredictorComponent*> componentList() const;

    /** Paper-style notation, e.g. "LOOP3 > TAGE3 > BTB2 > BIM2 > uBTB1". */
    std::string describe() const;

    /**
     * ASCII pipeline diagram: which components respond at each fetch
     * stage (regenerates the content of the paper's Figs. 4 and 7).
     */
    std::string pipelineDiagram() const;

    // ---- Internal node storage (read access for the composer) --------

    enum class NodeKind : std::uint8_t { Leaf, Chain, Arb };

    struct Node
    {
        NodeKind kind = NodeKind::Leaf;
        PredictorComponent* comp = nullptr;  ///< Leaf / Arb arbiter.
        std::vector<std::size_t> children;   ///< Chain / Arb children.
    };

    const Node& node(std::size_t idx) const { return nodes_.at(idx); }
    std::size_t numNodes() const { return nodes_.size(); }

  private:
    std::size_t addNode(Node n);
    void collectComponents(std::size_t idx,
                           std::vector<PredictorComponent*>& out) const;
    std::string describeNode(std::size_t idx) const;

    std::vector<std::unique_ptr<PredictorComponent>> owned_;
    std::vector<Node> nodes_;
    NodeRef root_{};
};

} // namespace cobra::bpu

#endif // COBRA_BPU_TOPOLOGY_HPP
