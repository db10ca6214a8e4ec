#include "core/backend.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "warp/state_io.hpp"

namespace cobra::core {

using prog::OpClass;

namespace {

void
setBit(std::vector<std::uint64_t>& m, std::size_t slot)
{
    m[slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

void
clearBit(std::vector<std::uint64_t>& m, std::size_t slot)
{
    m[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

} // namespace

template <typename F>
void
Backend::forEachOldestFirst(const SlotMask& m, F&& f) const
{
    const std::size_t words = m.size();
    const std::size_t headWord = robHeadIdx_ >> 6;
    const std::uint64_t fromHead = ~std::uint64_t{0} << (robHeadIdx_ & 63);
    for (std::size_t k = 0; k <= words; ++k) {
        const std::size_t w = (headWord + k) & (words - 1);
        std::uint64_t bits = m[w];
        if (k == 0)
            bits &= fromHead;
        else if (k == words)
            bits &= ~fromHead; // The head word's wrapped, youngest part.
        while (bits != 0) {
            const std::size_t slot =
                (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            if (!f(slot))
                return;
        }
    }
}

Backend::Backend(exec::Oracle& oracle, bpu::BranchPredictorUnit& bpu,
                 Frontend& frontend, CacheHierarchy& caches,
                 const BackendConfig& cfg)
    : oracle_(oracle), bpu_(bpu), frontend_(frontend), caches_(caches),
      cfg_(cfg)
{
    // Power-of-two seq scoreboard sized so two live seqs (whose spread
    // is bounded by the ROB) can never map to the same slot.
    std::size_t cap = 64;
    while (cap < 2 * static_cast<std::size_t>(cfg_.robEntries))
        cap <<= 1;
    seqTable_.assign(cap, SeqSlot{});
    seqMask_ = cap - 1;
    nextDoneCycle_ = kNever;

    std::size_t robCap = 16;
    while (robCap < static_cast<std::size_t>(cfg_.robEntries))
        robCap <<= 1;
    robBuf_.resize(robCap);
    robMask_ = robCap - 1;

    sched_.resize(robCap);
    const std::size_t words = (robCap + 63) / 64;
    for (SlotMask& m : ready_)
        m.assign(words, 0);
    issuedSlots_.assign(words, 0);
}

Backend::RobHeadView
Backend::robHead() const
{
    RobHeadView v;
    if (robCount_ == 0)
        return v;
    const RobEntry& e = robAt(0);
    v.valid = true;
    v.pc = e.fi.di.pc;
    v.seq = e.fi.di.seq;
    v.ftq = e.fi.ftq;
    v.wrongPath = e.fi.di.wrongPath;
    switch (e.st) {
      case RobEntry::St::Waiting: v.state = "waiting"; break;
      case RobEntry::St::Issued: v.state = "issued"; break;
      case RobEntry::St::Done: v.state = "done"; break;
    }
    return v;
}

bpu::CfiType
Backend::cfiTypeOf(OpClass op)
{
    switch (op) {
      case OpClass::CondBranch:
        return bpu::CfiType::Br;
      case OpClass::Jump:
      case OpClass::Call:
        return bpu::CfiType::Jal;
      case OpClass::IndirectJump:
      case OpClass::IndirectCall:
      case OpClass::Return:
        return bpu::CfiType::Jalr;
      default:
        return bpu::CfiType::None;
    }
}

Cycle
Backend::execLatency(const exec::DynInst& di)
{
    switch (di.si->op) {
      case OpClass::IntMul:
        return 3;
      case OpClass::IntDiv:
        return 12;
      case OpClass::FpAlu:
        return 4;
      case OpClass::Load:
        return caches_.loadAccess(di.memAddr);
      case OpClass::Store:
        return caches_.storeAccess(di.memAddr);
      default:
        return 1;
    }
}

void
Backend::linkSources(std::size_t slot, std::size_t guardSlot)
{
    SlotSched& c = sched_[slot];
    const RobEntry& e = robBuf_[slot];
    c.robId = e.robId;
    c.iq = e.iq;
    c.pending = 0;
    c.consumers.clear();
    const auto waitOn = [&](std::size_t producer) {
        ++c.pending;
        sched_[producer].consumers.push_back(
            WakeLink{static_cast<std::uint32_t>(slot), c.robId});
    };
    // A dep is unready while its producer is in flight and not done;
    // one that has left flight (committed) is ready for good.
    for (const SeqNum dep : {e.fi.di.dep1, e.fi.di.dep2}) {
        if (dep == kInvalidSeq)
            continue;
        const SeqSlot& s = seqTable_[dep & seqMask_];
        if (s.seq == dep && s.done == 0)
            waitOn(s.robSlot);
    }
    if (e.sfbShadow) {
        // Predicated shadow reads the SFB guard's predicate bit.
        const auto it = sfbGuardDone_.find(e.sfbGuard);
        if (it != sfbGuardDone_.end() && !it->second)
            waitOn(guardSlot);
    }
}

void
Backend::wakeConsumers(std::size_t producer)
{
    for (const WakeLink& l : sched_[producer].consumers) {
        SlotSched& c = sched_[l.slot];
        if (c.robId != l.robId)
            continue; // Squashed since it linked.
        // An entry past the armed prefix is picked up by issue's
        // arming walk instead.
        if (--c.pending == 0 && positionOf(l.slot) < armed_)
            setBit(ready_[static_cast<unsigned>(c.iq)], l.slot);
    }
}

void
Backend::squashYoungerThan(std::size_t idx)
{
    while (robCount_ > idx + 1) {
        const std::size_t slot = (robHeadIdx_ + robCount_ - 1) & robMask_;
        RobEntry& e = robBuf_[slot];
        if (e.st == RobEntry::St::Waiting)
            --iqCount_[static_cast<unsigned>(e.iq)];
        else if (e.st == RobEntry::St::Issued)
            --issuedCount_;
        if (e.fi.di.si->op == OpClass::Load && ldqCount_ > 0)
            --ldqCount_;
        if (e.fi.di.si->op == OpClass::Store && stqCount_ > 0)
            --stqCount_;
        if (e.fi.di.seq != kInvalidSeq)
            seqErase(e.fi.di.seq);
        if (e.sfbConverted)
            sfbGuardDone_.erase(e.fi.dynId);
        clearBit(ready_[static_cast<unsigned>(e.iq)], slot);
        clearBit(issuedSlots_, slot);
        sched_[slot].robId = kNoRobId;
        robPopBack();
    }
    armed_ = std::min(armed_, robCount_);
    // Any in-dispatch SFB region referred to killed instructions.
    sfbActive_ = false;
}

bool
Backend::resolveCf(std::size_t idx, Cycle now)
{
    (void)now;
    RobEntry& e = robAt(idx);
    const exec::DynInst& di = e.fi.di;
    const OpClass op = di.si->op;
    const bpu::CfiType type = cfiTypeOf(op);

    const bool actualTaken = di.taken;
    const Addr actualNext = di.nextPc;
    bool mispredict = false;
    if (op == OpClass::CondBranch) {
        mispredict = actualTaken != e.fi.predTaken ||
                     (actualTaken && actualNext != e.fi.predNextPc);
    } else {
        mispredict = actualNext != e.fi.predNextPc;
    }

    if (e.sfbConverted) {
        // Predication: no flush, no redirect, no predictor training.
        bpu::BranchResolution res;
        res.ftq = e.fi.ftq;
        res.slot = e.fi.slot;
        res.type = type;
        res.taken = actualTaken;
        res.target = actualNext;
        res.mispredicted = false;
        res.sfbConverted = true;
        bpu_.resolve(res);
        sfbGuardDone_[e.fi.dynId] = true;
        e.wasMispredict = false;
        return false;
    }

    bpu::BranchResolution res;
    res.ftq = e.fi.ftq;
    res.slot = e.fi.slot;
    res.type = type;
    res.taken = actualTaken;
    res.target = actualTaken ? actualNext : kInvalidAddr;
    res.isCall = prog::isCall(op);
    res.isRet = op == OpClass::Return;
    res.mispredicted = mispredict;
    bpu_.resolve(res);

    e.wasMispredict = mispredict;
    if (!mispredict)
        return false;

    ++resolvedMispredicts_;

    // ---- Squash and redirect ------------------------------------------
    squashYoungerThan(idx);

    // Global-history repair (paper §VI-B): restore the predict-time
    // snapshot from the history file and re-push resolved outcomes.
    if (bpu_.config().ghistMode != bpu::GhistRepairMode::None &&
        bpu_.historyFile().contains(e.fi.ftq)) {
        const bpu::HistoryFileEntry& hfe =
            bpu_.historyFile().at(e.fi.ftq);
        bpu_.restoreSpecGhist(hfe.ghist);
        for (unsigned s = 0; s <= e.fi.slot && s < bpu::kMaxFetchWidth;
             ++s) {
            if (!hfe.brMask[s])
                continue;
            const bool bit = s == e.fi.slot &&
                             type == bpu::CfiType::Br && actualTaken;
            bpu_.pushSpecGhist(bit);
        }
    }

    // RAS repair: restore the packet's pointer snapshot, then replay
    // the resolved CFI's own stack operation.
    std::uint32_t rasPtr = 0;
    if (bpu_.historyFile().contains(e.fi.ftq))
        rasPtr = bpu_.historyFile().at(e.fi.ftq).rasPtr;
    else
        rasPtr = frontend_.ras().pointer();

    // Oracle stream: rewind past the resolved instruction when it was
    // on the architectural path.
    bool onOracle = false;
    if (di.seq != kInvalidSeq && !di.wrongPath) {
        oracle_.rewindTo(di.seq + 1);
        onOracle = true;
    }

    frontend_.redirect(actualNext, onOracle, rasPtr, now);
    if (actualTaken && res.isCall)
        frontend_.ras().push(di.pc + kInstBytes);
    if (actualTaken && res.isRet)
        frontend_.ras().pop();

    return true;
}

void
Backend::completeAndResolve(Cycle now)
{
    // Nothing in flight can finish before nextDoneCycle_ (a lower
    // bound, exact after an uninterrupted walk) — skip the walk.
    if (issuedCount_ == 0 || now < nextDoneCycle_)
        return;
    Cycle nextDone = kNever;
    // Oldest first: branches resolve (and train the BPU) in age order.
    forEachOldestFirst(issuedSlots_, [&](std::size_t slot) {
        RobEntry& e = robBuf_[slot];
        if (e.doneCycle > now) {
            nextDone = std::min(nextDone, e.doneCycle);
            return true;
        }
        e.st = RobEntry::St::Done;
        clearBit(issuedSlots_, slot);
        --issuedCount_;
        if (e.fi.di.seq != kInvalidSeq) {
            SeqSlot& s = seqTable_[e.fi.di.seq & seqMask_];
            assert(s.seq == e.fi.di.seq);
            s.done = 1;
        }
        wakeConsumers(slot);
        // A squash removes everything younger, unvisited.
        return !(prog::isControlFlow(e.fi.di.si->op) &&
                 resolveCf(positionOf(slot), now));
    });
    nextDoneCycle_ = nextDone;
}

void
Backend::issue(Cycle now)
{
    if (iqCount_[0] + iqCount_[1] + iqCount_[2] == 0)
        return;
    // Arm the entries whose decode delay has now passed.
    while (armed_ < robCount_) {
        const std::size_t slot = (robHeadIdx_ + armed_) & robMask_;
        const RobEntry& e = robBuf_[slot];
        if (e.earliestIssue > now)
            break;
        if (e.st == RobEntry::St::Waiting && sched_[slot].pending == 0)
            setBit(ready_[static_cast<unsigned>(e.iq)], slot);
        ++armed_;
    }
    // Select: the oldest ready entries of each class, up to its port
    // count. Only loads and stores touch the caches, and they issue
    // oldest first, as a scan of the whole ROB would.
    const unsigned ports[3] = {cfg_.aluPorts, cfg_.memPorts, cfg_.fpPorts};
    for (unsigned c = 0; c < 3; ++c) {
        unsigned left = ports[c];
        if (left == 0)
            continue;
        forEachOldestFirst(ready_[c], [&](std::size_t slot) {
            RobEntry& e = robBuf_[slot];
            clearBit(ready_[c], slot);
            setBit(issuedSlots_, slot);
            e.st = RobEntry::St::Issued;
            e.doneCycle = now + execLatency(e.fi.di);
            ++issuedCount_;
            nextDoneCycle_ = std::min(nextDoneCycle_, e.doneCycle);
            --iqCount_[c];
            ++issued_;
            return --left != 0;
        });
    }
}

void
Backend::commit(Cycle now)
{
    (void)now;
    unsigned n = 0;
    while (n < cfg_.coreWidth && robCount_ != 0 &&
           robAt(0).st == RobEntry::St::Done) {
        RobEntry& e = robAt(0);
        ++committedInsts_;
        const OpClass op = e.fi.di.si->op;
        if (prog::isControlFlow(op)) {
            ++committedCfis_;
            if (op == OpClass::CondBranch && !e.sfbConverted)
                ++committedBranches_;
            if (e.wasMispredict) {
                if (op == OpClass::CondBranch)
                    ++condMispredicts_;
                else
                    ++jalrMispredicts_;
            }
            if (tracer_ != nullptr) {
                tracer_->record(scope::TraceKind::Commit, e.fi.di.pc,
                                static_cast<std::uint32_t>(e.fi.ftq),
                                scope::kNoComponent,
                                static_cast<std::uint8_t>(e.fi.slot),
                                e.wasMispredict);
            }
        }
        if (op == OpClass::Load && ldqCount_ > 0)
            --ldqCount_;
        if (op == OpClass::Store && stqCount_ > 0)
            --stqCount_;

        // Packet-granularity commit notification to the BPU.
        if (anyCommitted_ && e.fi.ftq != lastCommittedFtq_)
            bpu_.commitPacket(lastCommittedFtq_);
        lastCommittedFtq_ = e.fi.ftq;
        anyCommitted_ = true;

        if (e.fi.di.seq != kInvalidSeq) {
            seqErase(e.fi.di.seq);
            if (!e.fi.di.wrongPath)
                oracle_.retireUpTo(e.fi.di.seq);
        }
        if (e.sfbConverted)
            sfbGuardDone_.erase(e.fi.dynId);
        robPopFront();
        if (armed_ != 0)
            --armed_;
        ++n;
    }
    committed_ += n;
}

Backend::IqClass
Backend::iqClassOf(OpClass op)
{
    if (op == OpClass::Load || op == OpClass::Store)
        return IqClass::Mem;
    if (op == OpClass::FpAlu)
        return IqClass::Fp;
    return IqClass::Int;
}

Backend::StallCounter
Backend::dispatchStall(const FetchedInst& fi) const
{
    if (robCount_ >= cfg_.robEntries)
        return &Backend::stallRob_;
    const OpClass op = fi.di.si->op;
    const IqClass iq = iqClassOf(op);
    const unsigned iqCap = iq == IqClass::Int  ? cfg_.intIqEntries
                           : iq == IqClass::Mem ? cfg_.memIqEntries
                                                : cfg_.fpIqEntries;
    if (iqCount_[static_cast<unsigned>(iq)] >= iqCap)
        return &Backend::stallIq_;
    if (op == OpClass::Load && ldqCount_ >= cfg_.ldqEntries)
        return &Backend::stallLdq_;
    if (op == OpClass::Store && stqCount_ >= cfg_.stqEntries)
        return &Backend::stallStq_;
    return nullptr;
}

void
Backend::dispatch(Cycle now)
{
    unsigned n = 0;
    while (n < cfg_.coreWidth && !frontend_.bufferEmpty()) {
        const FetchedInst& fi = frontend_.bufferFront();
        if (const StallCounter stall = dispatchStall(fi)) {
            ++(this->*stall);
            break;
        }
        const OpClass op = fi.di.si->op;
        const IqClass iq = iqClassOf(op);

        const std::size_t slot = (robHeadIdx_ + robCount_) & robMask_;
        RobEntry& e = robBuf_[slot];
        e = RobEntry{};
        e.fi = fi;
        e.iq = iq;
        e.earliestIssue = now + cfg_.decodeDelay;
        e.robId = robIdNext_++;
        frontend_.popFront();

        // ---- SFB decode pass (paper §VI-C) ---------------------------
        if (sfbActive_) {
            if (prog::isControlFlow(op) ||
                e.fi.di.pc >= sfbActiveTarget_) {
                sfbActive_ = false;
            } else {
                e.sfbShadow = true;
                e.sfbGuard = sfbActiveGuard_;
            }
        }
        if (!sfbActive_ && cfg_.sfbEnabled && op == OpClass::CondBranch &&
            e.fi.di.si->sfbEligible && !e.fi.predTaken &&
            e.fi.di.si->target != kInvalidAddr &&
            e.fi.di.si->target > e.fi.di.pc &&
            e.fi.di.si->target - e.fi.di.pc <=
                cfg_.sfbMaxShadowBytes + kInstBytes) {
            e.sfbConverted = true;
            sfbActive_ = true;
            sfbActiveGuard_ = e.fi.dynId;
            sfbActiveGuardSlot_ = slot;
            sfbActiveTarget_ = e.fi.di.si->target;
            sfbGuardDone_[e.fi.dynId] = false;
            ++sfbConversions_;
        }

        linkSources(slot, sfbActiveGuardSlot_);
        if (e.fi.di.seq != kInvalidSeq)
            seqInsert(e.fi.di.seq, slot);
        if (op == OpClass::Load)
            ++ldqCount_;
        if (op == OpClass::Store)
            ++stqCount_;
        ++iqCount_[static_cast<unsigned>(iq)];
        ++robCount_;
        ++n;
    }
    dispatched_ += n;
}

void
Backend::tick(Cycle now)
{
    completeAndResolve(now);
    issue(now);
    commit(now);
    dispatch(now);
}

Cycle
Backend::wakeCycle(Cycle now) const
{
    if (robCount_ != 0 && robAt(0).st == RobEntry::St::Done)
        return now; // Commit.
    for (const SlotMask& m : ready_)
        for (const std::uint64_t w : m)
            if (w != 0)
                return now; // Issue.
    if (!frontend_.bufferEmpty() &&
        dispatchStall(frontend_.bufferFront()) == nullptr)
        return now; // Dispatch.
    // Otherwise only time acts: an issued entry completes, or the next
    // unarmed entry's decode delay passes.
    Cycle wake = issuedCount_ != 0 ? nextDoneCycle_ : kNever;
    if (iqCount_[0] + iqCount_[1] + iqCount_[2] != 0 && armed_ < robCount_)
        wake = std::min(wake, robAt(armed_).earliestIssue);
    return std::max(wake, now);
}

void
Backend::creditIdle(std::uint64_t n)
{
    if (!frontend_.bufferEmpty())
        this->*dispatchStall(frontend_.bufferFront()) += n;
}

void
Backend::saveState(warp::StateWriter& w) const
{
    w.u64(robCount_);
    for (std::size_t i = 0; i < robCount_; ++i) {
        const RobEntry& e = robAt(i);
        saveFetchedInst(w, e.fi, oracle_.program());
        w.u8(static_cast<std::uint8_t>(e.st));
        w.u8(static_cast<std::uint8_t>(e.iq));
        w.u64(e.earliestIssue);
        w.u64(e.doneCycle);
        w.boolean(e.wasMispredict);
        w.boolean(e.sfbConverted);
        w.boolean(e.sfbShadow);
        w.u64(e.sfbGuard);
        w.u64(e.robId);
    }

    std::uint64_t liveSeqs = 0;
    for (const SeqSlot& s : seqTable_)
        if (s.seq != kInvalidSeq)
            ++liveSeqs;
    w.u64(liveSeqs);
    for (const SeqSlot& s : seqTable_) {
        if (s.seq == kInvalidSeq)
            continue;
        w.u64(s.seq);
        w.u8(s.done);
    }

    // Sort the guard map's keys so identical states produce identical
    // bytes regardless of hash-table iteration order.
    std::vector<std::uint64_t> guards;
    guards.reserve(sfbGuardDone_.size());
    for (const auto& kv : sfbGuardDone_)
        guards.push_back(kv.first);
    std::sort(guards.begin(), guards.end());
    w.u64(guards.size());
    for (std::uint64_t g : guards) {
        w.u64(g);
        w.boolean(sfbGuardDone_.at(g));
    }

    w.u32(issuedCount_);
    w.u64(nextDoneCycle_);
    w.u64(robIdNext_);
    // The layout keeps the oldest-Waiting watermark's slot; the head's
    // robId is a valid watermark for readers that still resume a scan
    // from it.
    w.u64(robCount_ != 0 ? robAt(0).robId : robIdNext_);
    for (unsigned c : iqCount_)
        w.u32(c);
    w.u32(ldqCount_);
    w.u32(stqCount_);
    w.boolean(sfbActive_);
    w.u64(sfbActiveGuard_);
    w.u64(sfbActiveTarget_);
    w.u64(lastCommittedFtq_);
    w.boolean(anyCommitted_);
    w.u64(committedInsts_);
    w.u64(committedBranches_);
    w.u64(committedCfis_);
    w.u64(condMispredicts_);
    w.u64(jalrMispredicts_);
    w.u64(sfbConversions_);
}

void
Backend::restoreState(warp::StateReader& r)
{
    const std::uint64_t nRob = r.u64();
    if (nRob > cfg_.robEntries)
        r.fail("ROB occupancy " + std::to_string(nRob) +
               " exceeds this configuration's " +
               std::to_string(cfg_.robEntries) + " entries");
    robHeadIdx_ = 0;
    robCount_ = static_cast<std::size_t>(nRob);
    for (RobEntry& e : robBuf_)
        e = RobEntry{};
    for (std::size_t i = 0; i < robCount_; ++i) {
        RobEntry& e = robBuf_[i];
        loadFetchedInst(r, e.fi, oracle_.program());
        const std::uint8_t st = r.u8();
        if (st > static_cast<std::uint8_t>(RobEntry::St::Done))
            r.fail("ROB entry state out of range");
        e.st = static_cast<RobEntry::St>(st);
        const std::uint8_t iq = r.u8();
        if (iq > static_cast<std::uint8_t>(IqClass::Fp))
            r.fail("ROB entry issue-queue class out of range");
        e.iq = static_cast<IqClass>(iq);
        e.earliestIssue = r.u64();
        e.doneCycle = r.u64();
        e.wasMispredict = r.boolean();
        e.sfbConverted = r.boolean();
        e.sfbShadow = r.boolean();
        e.sfbGuard = r.u64();
        e.robId = r.u64();
        // Wakeup links name their consumers by robId.
        if (i != 0 && e.robId <= robBuf_[i - 1].robId)
            r.fail("ROB robIds do not strictly increase");
    }

    for (SeqSlot& s : seqTable_)
        s = SeqSlot{};
    const std::uint64_t liveSeqs = r.u64();
    if (liveSeqs > seqTable_.size())
        r.fail("seq scoreboard occupancy exceeds its capacity");
    for (std::uint64_t i = 0; i < liveSeqs; ++i) {
        const SeqNum seq = r.u64();
        const std::uint8_t done = r.u8();
        seqTable_[seq & seqMask_] = SeqSlot{seq, done};
    }

    sfbGuardDone_.clear();
    const std::uint64_t nGuards = r.u64();
    if (nGuards > (std::uint64_t{1} << 20))
        r.fail("SFB guard map implausibly large");
    for (std::uint64_t i = 0; i < nGuards; ++i) {
        const std::uint64_t g = r.u64();
        sfbGuardDone_[g] = r.boolean();
    }

    issuedCount_ = r.u32();
    nextDoneCycle_ = r.u64();
    robIdNext_ = r.u64();
    if (robCount_ != 0 && robIdNext_ <= robBuf_[robCount_ - 1].robId)
        r.fail("next robId does not follow the youngest entry's");
    (void)r.u64(); // Watermark slot; rebuildSched derives the state.
    for (unsigned& c : iqCount_)
        c = r.u32();
    ldqCount_ = r.u32();
    stqCount_ = r.u32();
    sfbActive_ = r.boolean();
    sfbActiveGuard_ = r.u64();
    sfbActiveTarget_ = r.u64();
    lastCommittedFtq_ = r.u64();
    anyCommitted_ = r.boolean();
    committedInsts_ = r.u64();
    committedBranches_ = r.u64();
    committedCfis_ = r.u64();
    condMispredicts_ = r.u64();
    jalrMispredicts_ = r.u64();
    sfbConversions_ = r.u64();

    rebuildSched(r);
}

void
Backend::rebuildSched(warp::StateReader& r)
{
    for (SlotMask& m : ready_)
        std::fill(m.begin(), m.end(), 0);
    std::fill(issuedSlots_.begin(), issuedSlots_.end(), 0);
    // Nothing is armed yet: the next issue arms the prefix whose
    // decode delay has passed, readying entries with nothing to await.
    armed_ = 0;

    // robHeadIdx_ is 0, so an entry's slot is its position.
    std::unordered_map<std::uint64_t, std::size_t> guardSlot;
    for (std::size_t i = 0; i < robCount_; ++i) {
        const RobEntry& e = robBuf_[i];
        if (e.st == RobEntry::St::Issued)
            setBit(issuedSlots_, i);
        if (e.sfbConverted)
            guardSlot[e.fi.dynId] = i;
        if (e.fi.di.seq != kInvalidSeq) {
            SeqSlot& q = seqTable_[e.fi.di.seq & seqMask_];
            if (q.seq != e.fi.di.seq)
                r.fail("ROB entry's seq is not on the scoreboard");
            q.robSlot = static_cast<std::uint32_t>(i);
        }
    }
    // Links must name in-flight producers.
    for (const SeqSlot& q : seqTable_)
        if (q.seq != kInvalidSeq && q.robSlot == kNoSlot)
            r.fail("seq scoreboard names an entry not in flight");
    for (const auto& kv : sfbGuardDone_)
        if (guardSlot.count(kv.first) == 0)
            r.fail("SFB guard map names a branch not in flight");
    if (sfbActive_ && guardSlot.count(sfbActiveGuard_) != 0)
        sfbActiveGuardSlot_ = guardSlot.at(sfbActiveGuard_);

    // Oldest first, as at dispatch: a producer's list is reset before
    // its consumers append to it. Entries past Waiting await nothing.
    for (std::size_t i = 0; i < robCount_; ++i) {
        const auto g = guardSlot.find(robBuf_[i].sfbGuard);
        linkSources(i, g != guardSlot.end() ? g->second : 0);
    }
}

} // namespace cobra::core
