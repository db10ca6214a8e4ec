#include "bpu/composer.hpp"

#include <cassert>
#include <stdexcept>

#include "bpu/specialize.hpp"
#include "warp/state_bpu.hpp"
#include "warp/state_util.hpp"

namespace cobra::bpu {

std::uint8_t
diffSlots(const PredictionSlot& before, const PredictionSlot& after)
{
    std::uint8_t m = kProvideNone;
    if (before.valid != after.valid || before.taken != after.taken)
        m |= kProvideDir;
    if (before.targetValid != after.targetValid ||
        before.target != after.target) {
        m |= kProvideTarget;
    }
    if (before.type != after.type || before.isCall != after.isCall ||
        before.isRet != after.isRet) {
        m |= kProvideType;
    }
    return m;
}

void
applySlotPatch(PredictionSlot& dst, const PredictionSlot& src,
               std::uint8_t mask)
{
    if (mask & kProvideDir) {
        dst.valid = src.valid;
        dst.taken = src.taken;
    }
    if (mask & kProvideTarget) {
        dst.targetValid = src.targetValid;
        dst.target = src.target;
    }
    if (mask & kProvideType) {
        dst.type = src.type;
        dst.isCall = src.isCall;
        dst.isRet = src.isRet;
    }
}

void
QueryState::reset(Addr pc, unsigned valid_slots, unsigned num_components,
                  unsigned width, std::uint64_t serial)
{
    pc_ = pc;
    validSlots_ = valid_slots;
    width_ = width;
    histCaptured_ = false;
    lhist_ = 0;
    phist_ = 0;
    lastStage_ = 0;
    serial_ = serial;
    if (results_.size() != num_components) {
        results_.assign(num_components, CompResult{});
        metas_.assign(num_components, Metadata{});
    } else {
        // Hot path: only the computed flags and metadata need
        // clearing. A result's out/provided fields are written in full
        // before computed is set, so stale values are never read.
        for (std::size_t i = 0; i < num_components; ++i) {
            results_[i].computed = false;
            metas_[i] = Metadata{};
        }
    }
    dirProvider_.fill(kNoProvider);
    targetProvider_.fill(kNoProvider);
}

void
QueryState::saveState(warp::StateWriter& w) const
{
    w.u64(pc_);
    w.u32(validSlots_);
    w.u32(width_);
    w.boolean(histCaptured_);
    warp::saveHistFull(w, ghist_);
    w.u64(lhist_);
    w.u64(phist_);
    w.u32(lastStage_);
    w.u64(serial_);
    w.u32(static_cast<std::uint32_t>(results_.size()));
    for (const CompResult& res : results_) {
        w.boolean(res.computed);
        warp::saveBundle(w, res.out);
        warp::saveU8Array(w, res.provided);
    }
    warp::saveMetas(w, metas_);
    warp::saveU8Array(w, dirProvider_);
    warp::saveU8Array(w, targetProvider_);
}

void
QueryState::restoreState(warp::StateReader& r)
{
    pc_ = r.u64();
    validSlots_ = r.u32();
    width_ = r.u32();
    histCaptured_ = r.boolean();
    warp::loadHistFull(r, ghist_);
    lhist_ = r.u64();
    phist_ = r.u64();
    lastStage_ = r.u32();
    serial_ = r.u64();
    const std::uint32_t nResults = r.u32();
    if (nResults > 64)
        r.fail("query component count out of range");
    results_.clear();
    for (std::uint32_t i = 0; i < nResults; ++i) {
        CompResult res;
        res.computed = r.boolean();
        warp::loadBundle(r, res.out);
        warp::loadU8Array(r, res.provided);
        results_.push_back(res);
    }
    warp::loadMetas(r, metas_);
    warp::loadU8Array(r, dirProvider_);
    warp::loadU8Array(r, targetProvider_);
}

ComposedPredictor::ComposedPredictor(Topology topo, unsigned width)
    : topo_(std::move(topo)), width_(width)
{
    topo_.validate();
    components_ = topo_.componentList();
    maxLatency_ = topo_.maxLatency();
    for (auto* c : components_) {
        if (c->fetchWidth() < width_) {
            throw guard::ConfigError("component '" + c->name() +
                                     "' narrower than pipeline width");
        }
    }
    nodeCompIdx_.assign(topo_.numNodes(), ~std::size_t{0});
    for (std::size_t i = 0; i < topo_.numNodes(); ++i) {
        if (topo_.node(i).comp != nullptr)
            nodeCompIdx_[i] = compIndex(topo_.node(i).comp);
    }
    // Attribution groups live under "bpu.comp.<name>"; a repeated
    // component name gets a "#<index>" suffix so group paths stay
    // unique for the stat registry.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        std::string gname = "bpu.comp." + components_[i]->name();
        for (std::size_t j = 0; j < i; ++j) {
            if (components_[j]->name() == components_[i]->name()) {
                gname += "#" + std::to_string(i);
                break;
            }
        }
        attribution_.push_back(
            std::make_unique<CompAttribution>(std::move(gname)));
    }
    // An arbiter must not respond before the predictions it chooses
    // among exist; enforce latency(arb) >= latency(children).
    for (std::size_t i = 0; i < topo_.numNodes(); ++i) {
        const Topology::Node& n = topo_.node(i);
        if (n.kind != Topology::NodeKind::Arb)
            continue;
        std::vector<PredictorComponent*> kids;
        for (std::size_t c : n.children) {
            // Collect all components under this child.
            std::vector<std::size_t> stack{c};
            while (!stack.empty()) {
                const Topology::Node& cn = topo_.node(stack.back());
                stack.pop_back();
                if (cn.comp != nullptr)
                    kids.push_back(cn.comp);
                for (std::size_t cc : cn.children)
                    stack.push_back(cc);
            }
        }
        for (auto* k : kids) {
            if (k->latency() > n.comp->latency()) {
                throw guard::ConfigError(
                    "arbiter '" + n.comp->name() +
                    "' responds before its input '" + k->name() + "'");
            }
        }
    }
}

std::size_t
ComposedPredictor::compIndex(const PredictorComponent* comp) const
{
    for (std::size_t i = 0; i < components_.size(); ++i)
        if (components_[i] == comp)
            return i;
    assert(!"component not in topology");
    return 0;
}

PredictContext
ComposedPredictor::makeContext(const QueryState& q, unsigned d) const
{
    PredictContext ctx;
    ctx.pc = q.pc_;
    ctx.validSlots = q.validSlots_;
    // Histories become visible at the end of Fetch-1 (paper §III-B):
    // components responding at stage 1 must not observe them.
    ctx.ghist = (d >= 2 && q.histCaptured_) ? &q.ghist_ : nullptr;
    ctx.lhist = (d >= 2 && q.histCaptured_) ? q.lhist_ : 0;
    ctx.phist = (d >= 2 && q.histCaptured_) ? q.phist_ : 0;
    ctx.stage = d;
    ctx.serial = q.serial_;
    return ctx;
}

template <bool Spec>
void
ComposedPredictor::applyComponent(QueryState& q, std::size_t idx,
                                  unsigned d, PredictionBundle& bundle,
                                  const std::vector<std::size_t>*
                                      arb_children)
{
    PredictorComponent* comp = topo_.node(idx).comp;
    if (d < comp->latency())
        return; // Not yet responded: pure pass-through.

    const std::size_t ci = nodeCompIdx_[idx];
    QueryState::CompResult& res = q.results_[ci];

    if (!res.computed) {
        // First evaluation at stage >= latency. For chain members this
        // is stage == latency (stages are evaluated in increasing
        // order), so `bundle` is the correct predict_in of that cycle.
        // Arbiter children may be first evaluated at the arbiter's
        // stage; they start from a fresh bundle, so the result is the
        // same as at their own latency.
        const PredictContext ctx = makeContext(q, d);
        PredictionBundle in = bundle;
        PredictionBundle out = bundle;
        if (arb_children != nullptr) {
            SmallVector<PredictionBundle, 4> inputs;
            for (std::size_t childIdx : *arb_children) {
                PredictionBundle cb;
                cb.width = width_;
                evalNode(q, childIdx, d, cb);
                inputs.push_back(cb);
            }
            const std::span<const PredictionBundle> inSpan(
                inputs.data(), inputs.size());
            if constexpr (Spec)
                ops_[ci]->arbitrate(comp, ctx, inSpan, out, q.metas_[ci]);
            else
                comp->arbitrate(ctx, inSpan, out, q.metas_[ci]);
        } else {
            if constexpr (Spec)
                ops_[ci]->predict(comp, ctx, out, q.metas_[ci]);
            else
                comp->predict(ctx, out, q.metas_[ci]);
        }
        res.out = out;
        for (unsigned i = 0; i < width_; ++i)
            res.provided[i] = diffSlots(in.slots[i], out.slots[i]);
        res.computed = true;

        // Attribution (counted once per query, at compute time): a
        // dir change over a valid incoming prediction is an override;
        // a valid-vs-valid no-change is an agreement.
        CompAttribution& att = *attribution_[ci];
        for (unsigned i = 0; i < q.validSlots_ && i < width_; ++i) {
            if (res.provided[i] & kProvideDir) {
                ++att.dirProvided;
                if (in.slots[i].valid)
                    ++att.dirOverrides;
            } else if (out.slots[i].valid && in.slots[i].valid) {
                ++att.dirAgreements;
            }
            if (res.provided[i] & kProvideTarget)
                ++att.targetProvided;
        }
    }

    // Replay the recorded field-level overrides onto the current
    // bundle: where the component provided, its values win; where it
    // passed through, the (possibly newer) incoming prediction flows.
    // The last writer per field group is the provider of record.
    for (unsigned i = 0; i < width_; ++i) {
        applySlotPatch(bundle.slots[i], res.out.slots[i], res.provided[i]);
        if (res.provided[i] & kProvideDir)
            q.dirProvider_[i] = static_cast<std::uint8_t>(ci);
        if (res.provided[i] & kProvideTarget)
            q.targetProvider_[i] = static_cast<std::uint8_t>(ci);
    }
}

void
ComposedPredictor::evalNode(QueryState& q, std::size_t idx, unsigned d,
                            PredictionBundle& bundle)
{
    const Topology::Node& n = topo_.node(idx);
    switch (n.kind) {
      case Topology::NodeKind::Leaf:
        applyComponent<false>(q, idx, d, bundle, nullptr);
        break;
      case Topology::NodeKind::Chain:
        // Children are listed highest-priority first; evaluate from
        // the lowest-priority upward so higher components override.
        for (std::size_t i = n.children.size(); i-- > 0;)
            evalNode(q, n.children[i], d, bundle);
        break;
      case Topology::NodeKind::Arb:
        if (d < n.comp->latency()) {
            // Before the arbiter responds, the provisional prediction
            // is the first-listed child's (documented tie-break).
            if (!n.children.empty())
                evalNode(q, n.children.front(), d, bundle);
        } else {
            applyComponent<false>(q, idx, d, bundle, &n.children);
        }
        break;
    }
}

void
ComposedPredictor::buildPlan(std::size_t idx, unsigned d,
                             std::vector<PlanStep>& out) const
{
    // Mirrors evalNode's walk exactly, with the d-vs-latency decisions
    // resolved at build time: the plan for stage d is the sequence of
    // applyComponent calls the generic walk performs, minus the pure
    // pass-through calls (d < latency) that do nothing.
    const Topology::Node& n = topo_.node(idx);
    switch (n.kind) {
      case Topology::NodeKind::Leaf:
        if (d >= n.comp->latency())
            out.push_back({static_cast<std::uint32_t>(idx), false});
        break;
      case Topology::NodeKind::Chain:
        for (std::size_t i = n.children.size(); i-- > 0;)
            buildPlan(n.children[i], d, out);
        break;
      case Topology::NodeKind::Arb:
        if (d < n.comp->latency()) {
            if (!n.children.empty())
                buildPlan(n.children.front(), d, out);
        } else {
            out.push_back({static_cast<std::uint32_t>(idx), true});
        }
        break;
    }
}

bool
ComposedPredictor::specialize()
{
    if (specialized_)
        return true;
    const std::string key = topo_.specializedKey();
    if (key.empty() || !spec::isRegisteredKey(key))
        return false;
    SmallVector<const spec::CompOps*, 8> ops;
    for (const auto* c : components_) {
        const spec::CompOps* o = spec::opsFor(*c);
        if (o == nullptr)
            return false;
        ops.push_back(o);
    }
    ops_ = ops;
    plans_.clear();
    for (unsigned d = 1; d <= maxLatency_; ++d) {
        std::vector<PlanStep> plan;
        buildPlan(topo_.root().idx, d, plan);
        plans_.push_back(std::move(plan));
    }
    specialized_ = true;
    return true;
}

PredictionBundle
ComposedPredictor::evaluateStage(QueryState& q, unsigned d)
{
    assert(d >= 1);
    assert(d >= q.lastStage_ && "stages must be evaluated in order");
    q.lastStage_ = d;

    PredictionBundle bundle;
    bundle.width = width_;
    if (q.pc_ == kInvalidAddr)
        return bundle;
    if (specialized_) {
        // Fused loop: the flattened plan for this stage (stages past
        // the pipeline depth behave like the final stage — every
        // component has responded by then).
        const unsigned pd = d < maxLatency_ ? d : maxLatency_;
        for (const PlanStep& s : plans_[pd - 1]) {
            applyComponent<true>(q, s.node, d, bundle,
                                 s.arb ? &topo_.node(s.node).children
                                       : nullptr);
        }
    } else {
        evalNode(q, topo_.root().idx, d, bundle);
    }
    // Slots beyond the packet's valid range never predict.
    for (unsigned i = q.validSlots_; i < width_; ++i)
        bundle.slots[i] = PredictionSlot{};
    return bundle;
}

void
ComposedPredictor::fire(FireEvent ev, MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    if (specialized_) {
        for (std::size_t i = 0; i < components_.size(); ++i) {
            ev.meta = &metas[i];
            ops_[i]->fire(components_[i], ev);
        }
        return;
    }
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->fire(ev);
    }
}

void
ComposedPredictor::mispredict(ResolveEvent ev, const MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    if (specialized_) {
        for (std::size_t i = 0; i < components_.size(); ++i) {
            ev.meta = &metas[i];
            ops_[i]->mispredict(components_[i], ev);
        }
        return;
    }
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->mispredict(ev);
    }
}

void
ComposedPredictor::repair(ResolveEvent ev, const MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    if (specialized_) {
        for (std::size_t i = 0; i < components_.size(); ++i) {
            ev.meta = &metas[i];
            ops_[i]->repair(components_[i], ev);
        }
        return;
    }
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->repair(ev);
    }
}

void
ComposedPredictor::update(ResolveEvent ev, const MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    if (specialized_) {
        for (std::size_t i = 0; i < components_.size(); ++i) {
            ev.meta = &metas[i];
            ops_[i]->update(components_[i], ev);
        }
        return;
    }
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->update(ev);
    }
}

void
ComposedPredictor::updateBatch(ResolveEvent* evs,
                               const MetadataBundle* const* metas,
                               std::size_t n)
{
    // Component-major delivery: each component drains the cycle's
    // whole event batch before the next component's tables are
    // touched. Per-component event order matches n sequential
    // update() broadcasts, and components never read each other's
    // state, so the result is bit-identical.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        for (std::size_t e = 0; e < n; ++e) {
            assert(metas[e]->size() == components_.size());
            ResolveEvent ev = evs[e];
            ev.meta = &(*metas[e])[i];
            if (specialized_)
                ops_[i]->update(components_[i], ev);
            else
                components_[i]->update(ev);
        }
    }
}

void
ComposedPredictor::prefetchAll(const PredictContext& ctx) const
{
    if (specialized_) {
        for (std::size_t i = 0; i < components_.size(); ++i)
            ops_[i]->prefetch(components_[i], ctx);
        return;
    }
    for (const auto* c : components_)
        c->prefetch(ctx);
}

void
ComposedPredictor::creditResolution(
    const ResolveEvent& ev,
    const std::array<std::uint8_t, kMaxFetchWidth>& dir_provider)
{
    for (unsigned i = 0; i < kMaxFetchWidth; ++i) {
        if (!ev.brMask[i])
            continue;
        const std::uint8_t p = dir_provider[i];
        if (p == kNoProvider || p >= attribution_.size())
            continue;
        const PredictionSlot& s = ev.predicted->slots[i];
        const bool predictedTaken = s.valid && s.taken;
        if (predictedTaken == ev.takenMask[i])
            ++attribution_[p]->providerCorrect;
        else
            ++attribution_[p]->providerWrong;
    }
}

std::uint64_t
ComposedPredictor::storageBits() const
{
    std::uint64_t bits = 0;
    for (auto* c : components_)
        bits += c->storageBits();
    return bits;
}

unsigned
ComposedPredictor::totalMetaBits() const
{
    unsigned bits = 0;
    for (auto* c : components_)
        bits += c->metaBits();
    return bits;
}

bool
ComposedPredictor::usesLocalHistory() const
{
    for (auto* c : components_)
        if (c->usesLocalHistory())
            return true;
    return false;
}

} // namespace cobra::bpu
