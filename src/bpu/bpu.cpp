#include "bpu/bpu.hpp"

#include <cassert>

#include "warp/state_bpu.hpp"
#include "warp/state_util.hpp"

namespace cobra::bpu {

const char*
ghistRepairModeName(GhistRepairMode m)
{
    switch (m) {
      case GhistRepairMode::None: return "none";
      case GhistRepairMode::RepairOnly: return "repair-only";
      case GhistRepairMode::RepairAndReplay: return "repair+replay";
    }
    return "?";
}

std::optional<GhistRepairMode>
ghistRepairModeFromName(std::string_view name)
{
    if (name == "none")
        return GhistRepairMode::None;
    if (name == "repair")
        return GhistRepairMode::RepairOnly;
    if (name == "replay")
        return GhistRepairMode::RepairAndReplay;
    return std::nullopt;
}

void
BpuConfig::validate() const
{
    auto require = [](bool ok, const char* field, const char* detail) {
        if (!ok)
            throw guard::ConfigError(field, detail);
    };
    require(fetchWidth >= 1 && fetchWidth <= kMaxFetchWidth,
            "bpu.fetchWidth", "must be in [1, 8]");
    require(historyFileEntries >= 2 && historyFileEntries <= 4096,
            "bpu.historyFileEntries",
            "must be in [2, 4096] (one in-flight packet plus headroom)");
    require(ghistBits >= 1, "bpu.ghistBits", "must be >= 1");
    require(lhistSets >= 1 && lhistSets <= 65536, "bpu.lhistSets",
            "must be in [1, 65536]");
    require(lhistBits >= 1 && lhistBits <= 64, "bpu.lhistBits",
            "must be in [1, 64]");
    require(phistBits >= 1 && phistBits <= 64, "bpu.phistBits",
            "must be in [1, 64]");
    require(walkWidth >= 1, "bpu.walkWidth",
            "must be >= 1 or the repair walk never drains");
    require(updateWidth >= 1, "bpu.updateWidth",
            "must be >= 1 or commit updates never drain");
}

namespace {

/** Validate before any member construction sees the values. */
const BpuConfig&
validated(const BpuConfig& cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

BranchPredictorUnit::BranchPredictorUnit(Topology topo, const BpuConfig& cfg)
    : cfg_(validated(cfg)),
      pred_(std::move(topo), cfg.fetchWidth),
      ghist_(cfg.ghistBits),
      lhist_(cfg.lhistSets, cfg.lhistBits),
      phist_(cfg.phistBits),
      hf_(cfg.historyFileEntries)
{
    // Only generate a real local-history provider when a component
    // consumes local histories (§IV-B3).
    if (!pred_.usesLocalHistory())
        lhist_ = LocalHistoryProvider(1, 1);
}

void
BranchPredictorUnit::beginQuery(QueryState& q, Addr pc, unsigned valid_slots)
{
    q.reset(pc, valid_slots, static_cast<unsigned>(
                pred_.components().size()),
            cfg_.fetchWidth, ++querySerial_);
    ++queries_;
}

const PredictionBundle&
BranchPredictorUnit::stage(QueryState& q, unsigned d)
{
    // Histories are provided at the end of Fetch-1 (paper Fig. 2):
    // capture them the first time a stage >= 2 is evaluated, before
    // this packet's own speculative push is visible to itself.
    if (d >= 2 && !q.historyCaptured()) {
        q.captureHistory(ghist_.current(), lhist_.read(q.pc()),
                         phist_.current());
    }
    return pred_.evaluateStage(q, d);
}

FtqPos
BranchPredictorUnit::finalize(QueryState& q, const FinalizeArgs& args)
{
    assert(canFinalize());
    assert(args.finalPred != nullptr);

    HistoryFileEntry e;
    e.pc = q.pc();
    e.fetchedSlots = args.fetchedSlots;
    // If the packet never reached stage 2 (killed early this cannot
    // happen for finalized packets), histories were captured.
    e.ghist = q.historyCaptured() ? q.ghist()
                                  : ghist_.current();
    e.lhist = q.lhist();
    e.phist = q.phist();
    e.lhistBefore = lhist_.read(q.pc());
    e.metas = q.metadata();
    e.finalPred = *args.finalPred;
    e.dirProvider = q.dirProvider();
    e.targetProvider = q.targetProvider();
    e.brMask = args.brMask;
    e.firstSeq = args.firstSeq;
    e.rasPtr = args.rasPtr;

    // Speculative directions: the predicted-taken CFI slot is taken,
    // every other fetched conditional branch is implicitly not-taken.
    const unsigned takenSlot = args.finalPred->firstTakenSlot();
    for (unsigned i = 0; i < args.fetchedSlots; ++i)
        e.specTakenMask[i] = e.brMask[i] && i == takenSlot &&
                             args.finalPred->slots[i].type == CfiType::Br;

    // Branchless packets never need resolution.
    bool anyBr = false;
    for (unsigned i = 0; i < args.fetchedSlots; ++i)
        anyBr |= e.brMask[i];
    bool anyCf = anyBr;
    for (unsigned i = 0; i < args.fetchedSlots; ++i) {
        const auto& s = args.finalPred->slots[i];
        anyCf |= s.type != CfiType::None;
    }
    e.resolved = !anyCf;

    const FtqPos pos = hf_.enqueue(std::move(e));
    HistoryFileEntry& entry = hf_.at(pos);

    // Deliver fire events (speculative local-state update, §III-E).
    FireEvent fev;
    fev.pc = entry.pc;
    fev.ftqIdx = static_cast<std::uint32_t>(pos);
    fev.finalPred = &entry.finalPred;
    fev.ghist = &entry.ghist;
    fev.lhist = entry.lhist;
    pred_.fire(fev, entry.metas);

    // Speculative local-history update: one bit per packet that
    // contains a conditional branch (packet-granularity histories).
    if (anyBr) {
        const bool takenBit = takenSlot < entry.fetchedSlots &&
                              entry.brMask[takenSlot];
        lhist_.specUpdate(entry.pc, takenBit);
    }

    // Speculative path-history update: record the packet's predicted
    // taken CFI, if any (§IV-B3 path-history provider).
    if (takenSlot < cfg_.fetchWidth &&
        args.finalPred->slots[takenSlot].valid &&
        args.finalPred->slots[takenSlot].taken) {
        const Addr blockBase =
            entry.pc & ~static_cast<Addr>(cfg_.fetchWidth * 4 - 1);
        phist_.push(blockBase + takenSlot * 4);
    }

    ++finalized_;
    if (tracer_ != nullptr) {
        tracer_->record(scope::TraceKind::Fire, entry.pc, fev.ftqIdx,
                        scope::kNoComponent, 0,
                        takenSlot < entry.fetchedSlots);
    }
    return pos;
}

ResolveEvent
BranchPredictorUnit::makeEvent(const HistoryFileEntry& e, FtqPos pos) const
{
    ResolveEvent ev;
    ev.pc = e.pc;
    ev.ftqIdx = static_cast<std::uint32_t>(pos);
    ev.ghist = &e.ghist;
    ev.lhist = e.lhist;
    ev.brMask = e.brMask;
    ev.takenMask = e.takenMask;
    ev.cfiValid = e.cfiValid;
    ev.cfiIdx = e.cfiIdx;
    ev.cfiType = e.cfiType;
    ev.cfiTaken = e.cfiTaken;
    ev.cfiIsCall = e.cfiIsCall;
    ev.cfiIsRet = e.cfiIsRet;
    ev.target = e.actualTarget;
    ev.phist = e.phist;
    ev.mispredicted = e.mispredicted;
    ev.predicted = &e.finalPred;
    return ev;
}

void
BranchPredictorUnit::queueRepairWalk(FtqPos after)
{
    // Collect squashed entries youngest-first so that unconditional
    // per-entry restores compose to the oldest pre-update state
    // (equivalent in cost to the paper's forwards-walk, §IV-B2).
    if (hf_.tailPos() == after + 1)
        return;
    for (FtqPos pos = hf_.tailPos(); pos-- > after + 1;)
        repairQueue_.push_back(RepairJob{hf_.at(pos), pos});
    ++repairWalks_;
}

void
BranchPredictorUnit::resolve(const BranchResolution& res)
{
    if (!hf_.contains(res.ftq)) {
        // The entry was squashed by an older mispredict; nothing to do.
        return;
    }
    HistoryFileEntry& e = hf_.at(res.ftq);

    if (res.slot < kMaxFetchWidth) {
        if (res.type == CfiType::Br)
            e.takenMask[res.slot] = res.taken;
        if (res.sfbConverted)
            e.sfbMask[res.slot] = true;
    }

    // Record the packet's resolved CFI: the oldest taken CF inst.
    if (res.taken && (!e.cfiValid || res.slot < e.cfiIdx)) {
        e.cfiValid = true;
        e.cfiIdx = res.slot;
        e.cfiType = res.type;
        e.cfiTaken = true;
        e.cfiIsCall = res.isCall;
        e.cfiIsRet = res.isRet;
        e.actualTarget = res.target;
    }
    e.resolved = true;

    if (res.mispredicted && !res.sfbConverted) {
        e.mispredicted = true;
        // Truncate the packet at the mispredicted CFI: younger slots
        // of this packet are refetched as a new packet.
        if (res.slot + 1 < e.fetchedSlots) {
            for (unsigned i = res.slot + 1; i < e.fetchedSlots; ++i) {
                e.brMask[i] = false;
                e.takenMask[i] = false;
                e.specTakenMask[i] = false;
            }
            e.fetchedSlots = res.slot + 1;
        }

        // Fast mispredict event (§III-E).
        pred_.mispredict(makeEvent(e, res.ftq), e.metas);

        // Queue the walk over squashed younger entries, then drop them.
        queueRepairWalk(res.ftq);
        hf_.squashAfter(res.ftq);

        // Path-history repair: restore the predict-time value, then
        // re-apply the resolved taken CFI if any.
        phist_.restore(e.phist);
        if (res.taken) {
            const Addr blockBase =
                e.pc & ~static_cast<Addr>(cfg_.fetchWidth * 4 - 1);
            phist_.push(blockBase + res.slot * 4);
        }

        // Local-history repair for the mispredicted packet itself:
        // rewind to the pre-fire value and re-push the resolved
        // direction.
        bool anyBr = false;
        for (unsigned i = 0; i < e.fetchedSlots; ++i)
            anyBr |= e.brMask[i];
        if (anyBr) {
            lhist_.restore(e.pc, e.lhistBefore);
            const bool takenBit = res.type == CfiType::Br && res.taken;
            lhist_.specUpdate(e.pc, takenBit);
        }

        ++mispredicts_;
        if (tracer_ != nullptr) {
            // Attribute the mispredict to the component that provided
            // the wrong field: direction for conditional branches,
            // target for everything else.
            const std::uint8_t comp =
                res.slot < kMaxFetchWidth
                    ? (res.type == CfiType::Br
                           ? e.dirProvider[res.slot]
                           : e.targetProvider[res.slot])
                    : scope::kNoComponent;
            tracer_->record(scope::TraceKind::Mispredict, e.pc,
                            static_cast<std::uint32_t>(res.ftq), comp,
                            static_cast<std::uint8_t>(res.slot),
                            res.taken);
        }
    }
}

void
BranchPredictorUnit::commitPacket(FtqPos pos)
{
    if (hf_.contains(pos))
        hf_.at(pos).committed = true;
}

void
BranchPredictorUnit::squashAll()
{
    hf_.squashAll();
    repairQueue_.clear();
}

bool
BranchPredictorUnit::needsUpdate(const HistoryFileEntry& e)
{
    bool anyWork = e.cfiValid;
    for (unsigned i = 0; i < e.fetchedSlots; ++i)
        anyWork |= e.brMask[i] && !e.sfbMask[i];
    return anyWork;
}

bool
BranchPredictorUnit::idle() const
{
    if (!repairQueue_.empty())
        return false;
    if (hf_.empty())
        return true;
    // A committed head either drains for free (no work) or, once
    // resolved, takes this cycle's first update slot.
    const HistoryFileEntry& head = hf_.at(hf_.headPos());
    return !head.committed || (!head.resolved && needsUpdate(head));
}

void
BranchPredictorUnit::tick()
{
    if (idle())
        return;
    // Repair walk has priority over commit updates (§IV-B2).
    unsigned walked = 0;
    while (walked < cfg_.walkWidth && !repairQueue_.empty()) {
        const HistoryFileEntry& e = repairQueue_.front().entry;
        ResolveEvent ev = makeEvent(e, repairQueue_.front().pos);
        // For squashed entries the "resolved" directions are the
        // misspeculated ones recorded at fire time.
        ev.takenMask = e.specTakenMask;
        pred_.repair(ev, e.metas);
        // Restore the local history the entry speculatively updated.
        bool anyBr = false;
        for (unsigned i = 0; i < e.fetchedSlots; ++i)
            anyBr |= e.brMask[i];
        if (anyBr)
            lhist_.restore(e.pc, e.lhistBefore);
        repairQueue_.pop_front();
        ++walked;
        ++repairEvents_;
        if (tracer_ != nullptr)
            tracer_->record(scope::TraceKind::Repair, ev.pc, ev.ftqIdx);
    }
    if (walked > 0)
        return;

    // Branchless packets drain for free; real updates cost a slot.
    while (!hf_.empty() && hf_.head().committed &&
           !needsUpdate(hf_.head()))
        hf_.dequeueHead();

    // Gather this cycle's eligible commit updates without dequeuing
    // (events hold pointers into the entries), deliver them in one
    // component-major batch, then dequeue. Per-component event order
    // matches the sequential loop, so training is bit-identical.
    unsigned updated = 0;
    SmallVector<ResolveEvent, 4> evs;
    SmallVector<const MetadataBundle*, 4> evMetas;
    SmallVector<const std::array<std::uint8_t, kMaxFetchWidth>*, 4>
        evProviders;
    while (updated < cfg_.updateWidth && updated < hf_.size()) {
        HistoryFileEntry& head = hf_.at(hf_.headPos() + updated);
        if (!head.committed || !head.resolved)
            break;
        // Suppress training for SFB-converted branches (§VI-C): they
        // neither mispredict nor consume predictor entries.
        ResolveEvent ev = makeEvent(head, hf_.headPos() + updated);
        for (unsigned i = 0; i < kMaxFetchWidth; ++i) {
            if (head.sfbMask[i]) {
                ev.brMask[i] = false;
                ev.takenMask[i] = false;
            }
        }
        bool anyWork = false;
        for (unsigned i = 0; i < head.fetchedSlots; ++i)
            anyWork |= ev.brMask[i];
        anyWork |= ev.cfiValid && !(head.cfiValid &&
                                    head.sfbMask[head.cfiIdx]);
        if (anyWork) {
            evs.push_back(ev);
            evMetas.push_back(&head.metas);
            evProviders.push_back(&head.dirProvider);
            ++updates_;
        }
        ++updated;
    }
    if (!evs.empty()) {
        pred_.updateBatch(evs.data(), evMetas.data(), evs.size());
        for (std::size_t i = 0; i < evs.size(); ++i)
            pred_.creditResolution(evs[i], *evProviders[i]);
    }
    for (unsigned i = 0; i < updated; ++i)
        hf_.dequeueHead();
}

std::uint64_t
BranchPredictorUnit::managementStorageBits() const
{
    return ghist_.storageBits() + lhist_.storageBits() +
           phist_.storageBits() +
           hf_.storageBits(cfg_.ghistBits, pred_.totalMetaBits(),
                           cfg_.fetchWidth);
}

phys::EnergyReport
BranchPredictorUnit::energyReport(const phys::EnergyModel& model) const
{
    phys::EnergyReport report;
    report.title = "predictor access energy";
    const double queries =
        static_cast<double>(stats_.get("queries"));
    const double updates =
        static_cast<double>(stats_.get("updates"));
    for (auto* c : pred_.components()) {
        const double pj = queries * model.accessPj(c->predictAccess()) +
                          updates * model.accessPj(c->updateAccess());
        report.add(c->name(), pj);
    }
    // Management structures: history-file write per finalize, read
    // per update; ghist/lhist register activity folded in.
    phys::AccessProfile hfWrite;
    hfWrite.sramWriteBits = hf_.storageBits(cfg_.ghistBits,
                                            pred_.totalMetaBits(),
                                            cfg_.fetchWidth) /
                            hf_.capacity();
    phys::AccessProfile hfRead;
    hfRead.sramReadBits = hfWrite.sramWriteBits;
    const double finalized =
        static_cast<double>(stats_.get("finalized"));
    report.add("Meta", finalized * model.accessPj(hfWrite) +
                           updates * model.accessPj(hfRead));
    return report;
}

void
HistoryFileEntry::saveState(warp::StateWriter& w) const
{
    w.u64(pc);
    w.u32(fetchedSlots);
    warp::saveHistFull(w, ghist);
    w.u64(lhist);
    w.u64(phist);
    w.u64(lhistBefore);
    warp::saveMetas(w, metas);
    warp::saveBundle(w, finalPred);
    warp::saveBoolArray(w, brMask);
    warp::saveBoolArray(w, specTakenMask);
    warp::saveU8Array(w, dirProvider);
    warp::saveU8Array(w, targetProvider);
    w.u32(rasPtr);
    w.u64(firstSeq);
    w.boolean(resolved);
    w.boolean(mispredicted);
    warp::saveBoolArray(w, takenMask);
    w.boolean(cfiValid);
    w.u32(cfiIdx);
    w.u8(static_cast<std::uint8_t>(cfiType));
    w.boolean(cfiTaken);
    w.boolean(cfiIsCall);
    w.boolean(cfiIsRet);
    w.u64(actualTarget);
    warp::saveBoolArray(w, sfbMask);
    w.boolean(committed);
}

void
HistoryFileEntry::restoreState(warp::StateReader& r,
                               std::size_t num_components)
{
    pc = r.u64();
    fetchedSlots = r.u32();
    if (fetchedSlots > kMaxFetchWidth)
        r.fail("history-file entry fetched-slot count out of range");
    warp::loadHistFull(r, ghist);
    lhist = r.u64();
    phist = r.u64();
    lhistBefore = r.u64();
    warp::loadMetas(r, metas, num_components);
    warp::loadBundle(r, finalPred);
    warp::loadBoolArray(r, brMask);
    warp::loadBoolArray(r, specTakenMask);
    warp::loadU8Array(r, dirProvider);
    warp::loadU8Array(r, targetProvider);
    rasPtr = r.u32();
    firstSeq = r.u64();
    resolved = r.boolean();
    mispredicted = r.boolean();
    warp::loadBoolArray(r, takenMask);
    cfiValid = r.boolean();
    cfiIdx = r.u32();
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(CfiType::Jalr))
        r.fail("history-file entry CFI type out of range");
    cfiType = static_cast<CfiType>(type);
    cfiTaken = r.boolean();
    cfiIsCall = r.boolean();
    cfiIsRet = r.boolean();
    actualTarget = r.u64();
    warp::loadBoolArray(r, sfbMask);
    committed = r.boolean();
}

void
HistoryFile::saveState(warp::StateWriter& w) const
{
    w.u64(head_);
    w.u64(tail_);
    for (FtqPos pos = head_; pos < tail_; ++pos)
        ring_[pos % capacity_].saveState(w);
}

void
HistoryFile::restoreState(warp::StateReader& r, std::size_t num_components)
{
    const FtqPos head = r.u64();
    const FtqPos tail = r.u64();
    if (tail < head || tail - head > capacity_)
        r.fail("history-file occupancy exceeds its capacity");
    head_ = head;
    tail_ = tail;
    for (auto& e : ring_)
        e = HistoryFileEntry{};
    for (FtqPos pos = head_; pos < tail_; ++pos)
        ring_[pos % capacity_].restoreState(r, num_components);
}

void
BranchPredictorUnit::saveState(warp::StateWriter& w) const
{
    w.section("bpu");
    warp::saveHist(w, ghist_.current());
    lhist_.saveState(w);
    w.u64(phist_.current());
    w.u64(querySerial_);
    hf_.saveState(w);
    w.u64(repairQueue_.size());
    for (const RepairJob& job : repairQueue_) {
        job.entry.saveState(w);
        w.u64(job.pos);
    }
    for (const auto* c : pred_.components()) {
        w.section(c->name());
        c->saveState(w);
    }
}

void
BranchPredictorUnit::restoreState(warp::StateReader& r)
{
    r.section("bpu");
    HistoryRegister gh = ghist_.current();
    warp::loadHist(r, gh);
    ghist_.restore(gh);
    lhist_.restoreState(r);
    phist_.restore(r.u64());
    querySerial_ = r.u64();
    const std::size_t nComps = pred_.components().size();
    hf_.restoreState(r, nComps);
    repairQueue_.clear();
    const std::uint64_t jobs = r.u64();
    // Each mispredict queues at most capacity-1 squashed entries, and
    // the walk drains before the next resolve: anything larger is not
    // a state this machine produces.
    if (jobs > std::uint64_t{hf_.capacity()} * 64)
        r.fail("repair queue implausibly large");
    for (std::uint64_t i = 0; i < jobs; ++i) {
        RepairJob job;
        job.entry.restoreState(r, nComps);
        job.pos = r.u64();
        repairQueue_.push_back(std::move(job));
    }
    for (auto* c : pred_.components()) {
        r.section(c->name());
        c->restoreState(r);
    }
}

phys::AreaReport
BranchPredictorUnit::areaReport(const phys::AreaModel& model) const
{
    phys::AreaReport report;
    report.title = "predictor area";
    for (auto* c : pred_.components())
        report.add(c->name(), model.area(c->physicalCost()));
    phys::PhysicalCost meta = ghist_.physicalCost();
    meta += lhist_.physicalCost();
    meta += phist_.physicalCost();
    meta += hf_.physicalCost(cfg_.ghistBits, pred_.totalMetaBits(),
                             cfg_.fetchWidth);
    report.add("Meta", model.area(meta));
    return report;
}

} // namespace cobra::bpu
