#include "bpu/composer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "warp/state_bpu.hpp"
#include "warp/state_util.hpp"

namespace cobra::bpu {

namespace {

// diffSlots compares each field group as a masked 64-bit word of the
// slot; the masks leave out the padding bytes.
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(PredictionSlot) == 24);
static_assert(offsetof(PredictionSlot, valid) == 0 &&
              offsetof(PredictionSlot, taken) == 1 &&
              offsetof(PredictionSlot, targetValid) == 2 &&
              offsetof(PredictionSlot, target) == 8 &&
              offsetof(PredictionSlot, type) == 16 &&
              offsetof(PredictionSlot, isCall) == 17 &&
              offsetof(PredictionSlot, isRet) == 18);
constexpr std::uint64_t kDirBytes = 0x0000'0000'0000'FFFFull;
constexpr std::uint64_t kTargetValidByte = 0x0000'0000'00FF'0000ull;
constexpr std::uint64_t kTypeBytes = 0x0000'0000'00FF'FFFFull;

/** Set bits of a slot mask. A table, because std::popcount without
 *  -mpopcnt is a library call. */
unsigned
slotCount(unsigned mask)
{
    static constexpr std::uint8_t kNibble[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                                 1, 2, 2, 3, 2, 3, 3, 4};
    return kNibble[mask & 15] + kNibble[(mask >> 4) & 15];
}

} // namespace

std::uint8_t
diffSlots(const PredictionSlot& before, const PredictionSlot& after)
{
    std::uint64_t a[3];
    std::uint64_t b[3];
    std::memcpy(a, &before, sizeof a);
    std::memcpy(b, &after, sizeof b);
    const std::uint64_t x0 = a[0] ^ b[0];
    std::uint8_t m = kProvideNone;
    if (x0 & kDirBytes)
        m |= kProvideDir;
    if ((x0 & kTargetValidByte) | (a[1] ^ b[1]))
        m |= kProvideTarget;
    if ((a[2] ^ b[2]) & kTypeBytes)
        m |= kProvideType;
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
    if (results_.size() != num_components || width != width_) {
        results_.assign(num_components, CompResult{});
        metas_.assign(num_components, Metadata{});
        bundle_ = PredictionBundle{};
    } else {
        // Hot path: only the computed flags and metadata need
        // clearing. A result's first width slots and masks are written
        // before computed is set, so stale values are never read, and
        // the slots past width are never written.
        for (std::size_t i = 0; i < num_components; ++i) {
            results_[i].computed = false;
            metas_[i] = Metadata{};
        }
    }
    pc_ = pc;
    validSlots_ = valid_slots;
    width_ = width;
    histCaptured_ = false;
    lhist_ = 0;
    phist_ = 0;
    lastStage_ = 0;
    serial_ = serial;
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
        for (unsigned i = 0; i < kMaxFetchWidth; ++i)
            w.u8(res.provided(i));
    }
    warp::saveMetas(w, metas_);
    warp::saveU8Array(w, dirProvider_);
    warp::saveU8Array(w, targetProvider_);
}

void
QueryState::restoreState(warp::StateReader& r, std::size_t num_components)
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
    if (r.u32() != num_components)
        r.fail("query result count differs from the component count");
    results_.clear();
    for (std::size_t c = 0; c < num_components; ++c) {
        CompResult res;
        res.computed = r.boolean();
        warp::loadBundle(r, res.out);
        for (unsigned i = 0; i < kMaxFetchWidth; ++i) {
            const std::uint8_t p = r.u8();
            if (p & ~(kProvideDir | kProvideTarget | kProvideType))
                r.fail("query provide byte out of range");
            res.dirMask |= ((p & kProvideDir) != 0) << i;
            res.targetMask |= ((p & kProvideTarget) != 0) << i;
            res.typeMask |= ((p & kProvideType) != 0) << i;
        }
        results_.push_back(res);
    }
    warp::loadMetas(r, metas_, num_components);
    warp::loadU8Array(r, dirProvider_);
    warp::loadU8Array(r, targetProvider_);
    bundle_ = PredictionBundle{};
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
    // Attribution groups live under "bpu.comp.<name>"; a repeated
    // component name gets a "#<index>" suffix so group paths stay
    // unique for the stat registry.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        std::string gname = "bpu.comp." + components_[i]->name();
        for (std::size_t j = 0; j < i; ++j) {
            if (components_[j]->name() == components_[i]->name()) {
                gname += '#';
                gname += std::to_string(i);
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
    for (unsigned d = 1; d <= maxLatency_; ++d)
        stagePlans_.push_back(buildPlan(topo_.root().idx, d));
}

ComposedPredictor::Plan
ComposedPredictor::buildPlan(std::size_t idx, unsigned d)
{
    std::vector<PlanStep> plan;
    collectSteps(idx, d, plan);
    const auto begin = static_cast<std::uint32_t>(steps_.size());
    steps_.insert(steps_.end(), plan.begin(), plan.end());
    return Plan{begin, static_cast<std::uint32_t>(steps_.size())};
}

void
ComposedPredictor::collectSteps(std::size_t idx, unsigned d,
                                std::vector<PlanStep>& out)
{
    const Topology::Node& n = topo_.node(idx);
    if (n.kind == Topology::NodeKind::Chain) {
        // Children are listed highest-priority first; evaluate from
        // the lowest-priority upward so higher components override.
        for (std::size_t i = n.children.size(); i-- > 0;)
            collectSteps(n.children[i], d, out);
        return;
    }
    if (d < n.comp->latency()) {
        // Not yet responded: a leaf passes through. Before an arbiter
        // responds, the provisional prediction is the first-listed
        // child's (documented tie-break).
        if (n.kind == Topology::NodeKind::Arb && !n.children.empty())
            collectSteps(n.children.front(), d, out);
        return;
    }
    PlanStep step;
    step.comp = n.comp;
    step.ci = static_cast<std::uint32_t>(compIndex(n.comp));
    if (n.kind == Topology::NodeKind::Arb) {
        std::vector<Plan> kids;
        for (std::size_t c : n.children)
            kids.push_back(buildPlan(c, d));
        step.kidsBegin = static_cast<std::uint32_t>(kidPlans_.size());
        kidPlans_.insert(kidPlans_.end(), kids.begin(), kids.end());
        step.kidsEnd = static_cast<std::uint32_t>(kidPlans_.size());
    }
    out.push_back(step);
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

void
ComposedPredictor::applyComponent(QueryState& q, const PlanStep& step,
                                  unsigned d, PredictionBundle& bundle)
{
    QueryState::CompResult& res = q.results_[step.ci];

    if (!res.computed) {
        // First evaluation at stage >= latency. For chain members this
        // is stage == latency (stages are evaluated in increasing
        // order), so `bundle` is the correct predict_in of that cycle.
        // Arbiter children may be first evaluated at the arbiter's
        // stage; they start from a fresh bundle, so the result is the
        // same as at their own latency.
        const PredictContext ctx = makeContext(q, d);
        res.out.width = width_;
        std::copy_n(bundle.slots.begin(), width_, res.out.slots.begin());
        if (step.kidsBegin != step.kidsEnd) {
            SmallVector<PredictionBundle, 4> inputs;
            for (std::uint32_t k = step.kidsBegin; k < step.kidsEnd; ++k) {
                inputs.push_back(PredictionBundle{});
                inputs.back().width = width_;
                runPlan(q, kidPlans_[k], d, inputs.back());
            }
            const std::span<const PredictionBundle> inSpan(
                inputs.data(), inputs.size());
            step.comp->arbitrate(ctx, inSpan, res.out, q.metas_[step.ci]);
        } else {
            step.comp->predict(ctx, res.out, q.metas_[step.ci]);
        }

        // `bundle` is still the predict_in: a field group the
        // component changed is one it provided.
        unsigned dir = 0, target = 0, type = 0, inValid = 0, outValid = 0;
        for (unsigned i = 0; i < width_; ++i) {
            const unsigned p = diffSlots(bundle.slots[i], res.out.slots[i]);
            dir |= ((p & kProvideDir) != 0) << i;
            target |= ((p & kProvideTarget) != 0) << i;
            type |= ((p & kProvideType) != 0) << i;
            inValid |= unsigned{bundle.slots[i].valid} << i;
            outValid |= unsigned{res.out.slots[i].valid} << i;
        }
        res.dirMask = static_cast<std::uint8_t>(dir);
        res.targetMask = static_cast<std::uint8_t>(target);
        res.typeMask = static_cast<std::uint8_t>(type);
        res.computed = true;

        // Attribution (counted once per query, at compute time, over
        // the packet's valid slots): a dir change over a valid
        // incoming prediction is an override; a valid-vs-valid
        // no-change is an agreement.
        const unsigned live = static_cast<unsigned>(
            maskBits(std::min(q.validSlots_, width_)));
        CompAttribution& att = *attribution_[step.ci];
        att.dirProvided += slotCount(dir & live);
        att.dirOverrides += slotCount(dir & inValid & live);
        att.dirAgreements += slotCount(~dir & outValid & inValid & live);
        att.targetProvided += slotCount(target & live);
    }

    // Replay the recorded field-level overrides onto the current
    // bundle: where the component provided, its values win; where it
    // passed through, the (possibly newer) incoming prediction flows.
    // The last writer per field group is the provider of record.
    const auto ci = static_cast<std::uint8_t>(step.ci);
    for (unsigned m = res.dirMask | res.targetMask | res.typeMask; m != 0;
         m &= m - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        const std::uint8_t p = res.provided(i);
        applySlotPatch(bundle.slots[i], res.out.slots[i], p);
        if (p & kProvideDir)
            q.dirProvider_[i] = ci;
        if (p & kProvideTarget)
            q.targetProvider_[i] = ci;
    }
}

void
ComposedPredictor::runPlan(QueryState& q, Plan plan, unsigned d,
                           PredictionBundle& bundle)
{
    for (std::uint32_t i = plan.begin; i < plan.end; ++i)
        applyComponent(q, steps_[i], d, bundle);
}

const PredictionBundle&
ComposedPredictor::evaluateStage(QueryState& q, unsigned d)
{
    assert(d >= 1);
    assert(d >= q.lastStage_ && "stages must be evaluated in order");
    q.lastStage_ = d;

    PredictionBundle& bundle = q.bundle_;
    bundle.width = width_;
    std::fill_n(bundle.slots.begin(), width_, PredictionSlot{});
    if (q.pc_ == kInvalidAddr)
        return bundle;
    runPlan(q, stagePlans_[std::min(d, maxLatency_) - 1], d, bundle);
    // Slots beyond the packet's valid range never predict.
    for (unsigned i = q.validSlots_; i < width_; ++i)
        bundle.slots[i] = PredictionSlot{};
    return bundle;
}

void
ComposedPredictor::fire(FireEvent ev, MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->fire(ev);
    }
}

void
ComposedPredictor::mispredict(ResolveEvent ev, const MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->mispredict(ev);
    }
}

void
ComposedPredictor::repair(ResolveEvent ev, const MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        ev.meta = &metas[i];
        components_[i]->repair(ev);
    }
}

void
ComposedPredictor::update(ResolveEvent ev, const MetadataBundle& metas)
{
    assert(metas.size() == components_.size());
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
            components_[i]->update(ev);
        }
    }
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
