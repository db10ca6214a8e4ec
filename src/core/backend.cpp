#include "core/backend.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

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

} // namespace cobra::core
