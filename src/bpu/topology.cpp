#include "bpu/topology.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "guard/errors.hpp"

namespace cobra::bpu {

std::size_t
Topology::addNode(Node n)
{
    nodes_.push_back(std::move(n));
    return nodes_.size() - 1;
}

NodeRef
Topology::leaf(PredictorComponent* comp)
{
    if (comp == nullptr)
        throw guard::ConfigError("leaf: null component");
    Node n;
    n.kind = NodeKind::Leaf;
    n.comp = comp;
    return NodeRef{addNode(std::move(n))};
}

NodeRef
Topology::chain(std::vector<NodeRef> children)
{
    if (children.empty())
        throw guard::ConfigError("chain: no children");
    if (children.size() == 1)
        return children.front();
    Node n;
    n.kind = NodeKind::Chain;
    for (const auto& c : children) {
        if (!c.valid())
            throw guard::ConfigError("chain: invalid child");
        n.children.push_back(c.idx);
    }
    return NodeRef{addNode(std::move(n))};
}

NodeRef
Topology::arb(PredictorComponent* arbiter, std::vector<NodeRef> children)
{
    if (arbiter == nullptr || !arbiter->isArbiter())
        throw guard::ConfigError("arb: arbiter component required");
    if (children.empty())
        throw guard::ConfigError("arb: no children");
    Node n;
    n.kind = NodeKind::Arb;
    n.comp = arbiter;
    for (const auto& c : children) {
        if (!c.valid())
            throw guard::ConfigError("arb: invalid child");
        n.children.push_back(c.idx);
    }
    return NodeRef{addNode(std::move(n))};
}

NodeRef
Topology::chainOf(std::vector<PredictorComponent*> comps)
{
    std::vector<NodeRef> refs;
    refs.reserve(comps.size());
    for (auto* c : comps)
        refs.push_back(leaf(c));
    return chain(std::move(refs));
}

void
Topology::validate() const
{
    if (!root_.valid())
        throw guard::ConfigError("topology: root not set");
    std::vector<PredictorComponent*> comps;
    collectComponents(root_.idx, comps);
    std::set<PredictorComponent*> seen;
    for (auto* c : comps) {
        if (!seen.insert(c).second) {
            throw guard::ConfigError("topology: component '" + c->name() +
                                     "' used more than once");
        }
    }
}

void
Topology::wrapEach(
    const std::function<std::unique_ptr<PredictorComponent>(
        std::unique_ptr<PredictorComponent>)>& wrap)
{
    std::unordered_map<PredictorComponent*, PredictorComponent*> remap;
    for (auto& owned : owned_) {
        PredictorComponent* before = owned.get();
        owned = wrap(std::move(owned));
        if (owned == nullptr)
            throw guard::ConfigError("wrapEach: wrapper returned null");
        remap[before] = owned.get();
    }
    for (Node& n : nodes_) {
        if (n.comp == nullptr)
            continue;
        auto it = remap.find(n.comp);
        if (it == remap.end()) {
            throw guard::ConfigError(
                "wrapEach: node references a component the topology "
                "does not own");
        }
        n.comp = it->second;
    }
}

unsigned
Topology::maxLatency() const
{
    unsigned m = 1;
    for (auto* c : componentList())
        m = std::max(m, c->latency());
    return m;
}

void
Topology::collectComponents(std::size_t idx,
                            std::vector<PredictorComponent*>& out) const
{
    const Node& n = nodes_.at(idx);
    if (n.comp != nullptr)
        out.push_back(n.comp);
    for (std::size_t c : n.children)
        collectComponents(c, out);
}

std::vector<PredictorComponent*>
Topology::componentList() const
{
    std::vector<PredictorComponent*> out;
    if (root_.valid())
        collectComponents(root_.idx, out);
    return out;
}

std::string
Topology::describeNode(std::size_t idx) const
{
    const Node& n = nodes_.at(idx);
    std::ostringstream oss;
    switch (n.kind) {
      case NodeKind::Leaf:
        oss << n.comp->name() << n.comp->latency();
        break;
      case NodeKind::Chain: {
        bool first = true;
        for (std::size_t c : n.children) {
            if (!first)
                oss << " > ";
            first = false;
            const bool paren = nodes_.at(c).kind == NodeKind::Chain;
            if (paren)
                oss << "(";
            oss << describeNode(c);
            if (paren)
                oss << ")";
        }
        break;
      }
      case NodeKind::Arb: {
        oss << n.comp->name() << n.comp->latency() << " > [";
        bool first = true;
        for (std::size_t c : n.children) {
            if (!first)
                oss << ", ";
            first = false;
            const bool paren = nodes_.at(c).kind == NodeKind::Chain;
            if (paren)
                oss << "(";
            oss << describeNode(c);
            if (paren)
                oss << ")";
        }
        oss << "]";
        break;
      }
    }
    return oss.str();
}

std::string
Topology::describe() const
{
    if (!root_.valid())
        return "<empty topology>";
    return describeNode(root_.idx);
}

std::string
Topology::pipelineDiagram() const
{
    std::ostringstream oss;
    const unsigned depth = maxLatency();
    oss << "Topology: " << describe() << "\n";
    for (unsigned d = 1; d <= depth; ++d) {
        oss << "  Fetch-" << d << ": ";
        bool first = true;
        for (auto* c : componentList()) {
            if (c->latency() != d)
                continue;
            if (!first)
                oss << ", ";
            first = false;
            oss << c->name();
        }
        if (first)
            oss << "(prediction carried over)";
        oss << "\n";
    }
    return oss.str();
}

} // namespace cobra::bpu
