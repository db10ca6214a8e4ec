#include "core/frontend.hpp"

#include <cassert>

namespace cobra::core {

using prog::OpClass;

Frontend::Frontend(const prog::Program& program, exec::Oracle& oracle,
                   bpu::BranchPredictorUnit& bpu, CacheHierarchy& caches,
                   const FrontendConfig& cfg)
    : prog_(program), oracle_(oracle), bpu_(bpu), caches_(caches),
      cfg_(cfg), finalStage_(bpu.maxLatency()),
      ras_(cfg.rasEntries), nextFetchPc_(program.entry())
{
    assert(isPow2(cfg.fetchWidth));
}

Addr
Frontend::fallthrough(Addr pc) const
{
    const Addr blockBytes = cfg_.fetchWidth * kInstBytes;
    return (pc & ~(blockBytes - 1)) + blockBytes;
}

Frontend::Packet*
Frontend::allocPacket()
{
    if (freePackets_.empty()) {
        packetPool_.push_back(std::make_unique<Packet>());
        freePackets_.push_back(packetPool_.back().get());
    }
    Packet* p = freePackets_.back();
    freePackets_.pop_back();
    p->stage = 0;
    p->pushedBits.clear();
    return p;
}

void
Frontend::releaseRange(std::size_t first, std::size_t last)
{
    for (std::size_t i = first; i < last; ++i)
        freePackets_.push_back(pipe_[i]);
    pipe_.erase(pipe_.begin() + static_cast<std::ptrdiff_t>(first),
                pipe_.begin() + static_cast<std::ptrdiff_t>(last));
}

Addr
Frontend::earlyNextPc(const Packet& p, const bpu::PredictionBundle& b) const
{
    for (unsigned s = p.startSlot; s < cfg_.fetchWidth; ++s) {
        const auto& sl = b.slots[s];
        if (sl.valid && sl.taken && sl.type != bpu::CfiType::None) {
            // A taken prediction can only redirect early when the
            // target is known (BTB-provided).
            if (sl.targetValid)
                return sl.target;
            break;
        }
    }
    return fallthrough(p.pc);
}

void
Frontend::pushGhistBits(Packet& p, const bpu::PredictionBundle& b)
{
    p.pushedBits.clear();
    for (unsigned s = p.startSlot; s < cfg_.fetchWidth; ++s) {
        const auto& sl = b.slots[s];
        if (sl.type == bpu::CfiType::Br && sl.valid) {
            const bool bit = sl.taken;
            p.pushedBits.push_back(bit);
            bpu_.pushSpecGhist(bit);
            if (bit)
                break; // Fetch ends at a predicted-taken branch.
        } else if (sl.valid && sl.taken &&
                   sl.type != bpu::CfiType::None) {
            break; // Predicted-taken jump ends the packet.
        }
    }
    p.ghistAfterPush = bpu_.specGhist();
}

void
Frontend::killYoungerThan(std::size_t idx)
{
    const std::size_t killed = pipe_.size() - idx - 1;
    packetsKilled_ += killed;
    releaseRange(idx + 1, pipe_.size());
}

Frontend::StallCounter
Frontend::finalizeStall() const
{
    if (!bpu_.canFinalize())
        return &Frontend::stallHistfile_;
    if (buffer_.size() + cfg_.fetchWidth > cfg_.fetchBufferInsts)
        return &Frontend::stallFetchbuffer_;
    return nullptr;
}

Cycle
Frontend::wakeCycle(Cycle now) const
{
    if (pipe_.empty())
        return now; // F0 opens a packet.
    const Packet& p = *pipe_.front();
    if (now < p.stallUntil)
        return p.stallUntil;
    if (p.stage >= finalStage_ && finalizeStall() != nullptr)
        return kNever;
    return now;
}

void
Frontend::creditIdle(Cycle now, std::uint64_t n)
{
    fetchBubbles_ += n;
    if (now >= pipe_.front()->stallUntil)
        this->*finalizeStall() += n;
}

void
Frontend::finalize(Packet& p, const bpu::PredictionBundle& bundle)
{
    const std::uint32_t rasPtrSnap = ras_.pointer();

    // ---- Pre-decode walk (the F3 checker of Fig. 6) -------------------
    struct Rec
    {
        Addr pc;
        unsigned slot;
        bool predTaken = false;
        Addr predNextPc;
        bool isCfi = false;
    };
    SmallVector<Rec, bpu::kMaxFetchWidth> recs;
    std::array<bool, bpu::kMaxFetchWidth> brMask{};
    Addr nextPc = fallthrough(p.pc);
    Addr pcCursor = p.pc;
    bool endedTaken = false;

    for (unsigned s = p.startSlot; s < cfg_.fetchWidth;
         ++s, pcCursor += kInstBytes) {
        const prog::StaticInst& si = prog_.at(prog_.clampPc(pcCursor));
        Rec rec{pcCursor, s, false, pcCursor + kInstBytes, false};

        if (si.op == OpClass::CondBranch) {
            brMask[s] = true;
            const bool predTaken =
                bundle.slots[s].valid && bundle.slots[s].taken;
            rec.predTaken = predTaken;
            if (predTaken) {
                // Pre-decode provides the static target, correcting
                // any stale BTB target for direct branches.
                rec.isCfi = true;
                rec.predNextPc = si.target;
                nextPc = si.target;
                recs.push_back(rec);
                endedTaken = true;
                break;
            }
            recs.push_back(rec);
            if (cfg_.serializeFetch) {
                // Ablation (§I): at most one branch per fetch packet.
                nextPc = pcCursor + kInstBytes;
                break;
            }
            continue;
        }

        if (si.op == OpClass::Jump || si.op == OpClass::Call) {
            rec.predTaken = true;
            rec.isCfi = true;
            rec.predNextPc = si.target;
            nextPc = si.target;
            if (si.op == OpClass::Call)
                ras_.push(pcCursor + kInstBytes);
            recs.push_back(rec);
            endedTaken = true;
            break;
        }

        if (si.op == OpClass::IndirectJump ||
            si.op == OpClass::IndirectCall) {
            rec.predTaken = true;
            rec.isCfi = true;
            // Indirect targets come from the predictor (BTB); with no
            // predicted target we guess fallthrough and eat the
            // mispredict at execute.
            rec.predNextPc = bundle.slots[s].targetValid
                                 ? bundle.slots[s].target
                                 : pcCursor + kInstBytes;
            nextPc = rec.predNextPc;
            if (si.op == OpClass::IndirectCall)
                ras_.push(pcCursor + kInstBytes);
            recs.push_back(rec);
            endedTaken = true;
            break;
        }

        if (si.op == OpClass::Return) {
            rec.predTaken = true;
            rec.isCfi = true;
            const Addr rasTop = ras_.top();
            if (rasTop != kInvalidAddr)
                rec.predNextPc = rasTop;
            else if (bundle.slots[s].targetValid)
                rec.predNextPc = bundle.slots[s].target;
            else
                rec.predNextPc = pcCursor + kInstBytes;
            ras_.pop();
            nextPc = rec.predNextPc;
            recs.push_back(rec);
            endedTaken = true;
            break;
        }

        recs.push_back(rec);
    }

    const unsigned fetchedSlots =
        recs.empty() ? 0 : recs.back().slot + 1;

    // ---- Global history correction at F3 (§VI-B policy) ---------------
    SmallVector<bool, bpu::kMaxFetchWidth> trueBits;
    for (const Rec& r : recs) {
        if (brMask[r.slot]) {
            trueBits.push_back(r.predTaken);
            if (r.predTaken)
                break;
        }
    }
    bool replay = false;
    if (bpu_.config().ghistMode == bpu::GhistRepairMode::RepairAndReplay &&
        trueBits != p.pushedBits) {
        bpu_.restoreSpecGhist(p.query.ghist());
        for (bool bit : trueBits)
            bpu_.pushSpecGhist(bit);
        replay = true;
        ++ghistReplays_;
    }

    // ---- Allocate the history file entry + fire (paper §IV-B1) -------
    bpu::FinalizeArgs args;
    args.finalPred = &bundle;
    args.brMask = brMask;
    args.fetchedSlots = fetchedSlots;
    args.rasPtr = rasPtrSnap;

    // ---- Source instructions: oracle (correct path) or synth ---------
    SmallVector<FetchedInst, bpu::kMaxFetchWidth> fetched;
    for (const Rec& r : recs) {
        FetchedInst fi;
        fi.slot = r.slot;
        fi.predTaken = r.predTaken;
        fi.predNextPc = r.predNextPc;
        fi.isPacketCfi = r.isCfi;
        fi.dynId = nextDynId_++;

        if (!onOraclePath_ && oracle_.peek(0).pc == r.pc) {
            // Wrong-path fetch reconverged with the architectural
            // stream (e.g., past an SFB shadow): re-sync.
            onOraclePath_ = true;
            ++oracleResyncs_;
        }
        if (onOraclePath_ && oracle_.peek(0).pc == r.pc) {
            fi.di = oracle_.consume();
        } else {
            onOraclePath_ = false;
            fi.di = oracle_.wrongPath(
                r.pc, p.wrongPathSalt + 0x9e37 * r.slot);
        }
        fetched.push_back(fi);
    }
    if (args.firstSeq == kInvalidSeq && !fetched.empty())
        args.firstSeq = fetched.front().di.seq;

    // Divergence check for the *next* fetch: prediction must continue
    // exactly where the architectural stream goes.
    if (onOraclePath_ && oracle_.peek(0).pc != nextPc)
        onOraclePath_ = false;

    const bpu::FtqPos ftq = bpu_.finalize(p.query, args);
    for (auto& fi : fetched) {
        fi.ftq = ftq;
        buffer_.push_back(fi);
    }
    instsFetched_ += fetched.size();
    ++packetsFinalized_;
    if (endedTaken)
        ++packetsTaken_;
    if (tracer_ != nullptr) {
        tracer_->record(scope::TraceKind::Predict, p.pc,
                        static_cast<std::uint32_t>(ftq),
                        scope::kNoComponent, 0, endedTaken);
        if (replay) {
            tracer_->record(scope::TraceKind::Replay, p.pc,
                            static_cast<std::uint32_t>(ftq));
        }
    }

    // Serialized fetch (§I ablation): a packet containing a branch
    // blocks younger fetch until its prediction is final — model by
    // refetching everything fetched in its shadow.
    bool serializeSteer = false;
    if (cfg_.serializeFetch) {
        for (unsigned s = 0; s < cfg_.fetchWidth; ++s)
            serializeSteer |= brMask[s];
    }

    // Late redirect: the finalized next-PC differs from what younger
    // in-flight packets assumed, or a ghist replay was forced.
    const bool steer = nextPc != p.predNextPc || replay || serializeSteer;
    p.predNextPc = nextPc;
    if (steer)
        nextFetchPc_ = nextPc;
    p.stage = finalStage_ + 1; // Mark done (caller erases).
    finalizeSteer_ = steer;
}

bool
Frontend::tryFinalize(std::size_t i, const bpu::PredictionBundle* bundle)
{
    if (const StallCounter stall = finalizeStall()) {
        ++(this->*stall);
        return false;
    }
    Packet& p = *pipe_[i];
    // A packet that waited at the final stage evaluates its bundle
    // only now; the re-evaluation replays the recorded results.
    if (bundle != nullptr)
        finalize(p, *bundle);
    else
        finalize(p, bpu_.stage(p.query, finalStage_));
    const bool steer = finalizeSteer_;
    releaseRange(i, i + 1);
    if (steer) {
        // Kill everything younger (refetch from nextPc).
        packetsKilled_ += pipe_.size() - i;
        releaseRange(i, pipe_.size());
    }
    return true;
}

void
Frontend::tick(Cycle now)
{
    bool blocked = false;

    for (std::size_t i = 0; i < pipe_.size(); ++i) {
        Packet& p = *pipe_[i];
        if (now < p.stallUntil) {
            blocked = true;
            break;
        }

        if (p.stage >= finalStage_) {
            // Stalled at the final stage from a previous cycle.
            if (tryFinalize(i, nullptr)) {
                --i;
                continue;
            }
            blocked = true;
            break;
        }

        ++p.stage;
        const bpu::PredictionBundle& b = bpu_.stage(p.query, p.stage);

        if (p.stage == 1) {
            // End of Fetch-1: capture histories before this packet's
            // own speculative push (paper §III-B).
            bpu_.captureHistory(p.query);
            pushGhistBits(p, b);
            p.predNextPc = earlyNextPc(p, b);
            if (i + 1 == pipe_.size())
                nextFetchPc_ = p.predNextPc;
            continue;
        }

        if (p.stage == finalStage_) {
            if (tryFinalize(i, &b)) {
                --i;
                continue;
            }
            blocked = true;
            break;
        }

        // Intermediate stage: possible re-steer (composer redirection
        // logic, §IV-B).
        const Addr newNext = earlyNextPc(p, b);
        if (newNext != p.predNextPc) {
            killYoungerThan(i);
            p.predNextPc = newNext;
            nextFetchPc_ = newNext;
            // Re-push this packet's history bits against the updated
            // bundle (the stage-d prediction supersedes stage-1's).
            bpu_.restoreSpecGhist(p.query.ghist());
            pushGhistBits(p, b);
            ++resteers_;
        }
    }

    // ---- F0: select a PC and open a new query -------------------------
    if (!blocked && pipe_.size() < finalStage_) {
        if (!pipe_.empty())
            nextFetchPc_ = pipe_.back()->predNextPc;
        Packet& p = *allocPacket();
        p.pc = nextFetchPc_;
        p.startSlot = slotOf(p.pc);
        p.predNextPc = fallthrough(p.pc);
        p.wrongPathSalt = mix64(++wrongPathEpoch_);
        const Cycle icLat = caches_.fetchAccess(p.pc);
        p.stallUntil = now + (icLat > 0 ? icLat - 1 : 0);
        if (icLat > 1)
            icacheStallCycles_ += icLat - 1;
        bpu_.beginQuery(p.query, p.pc, cfg_.fetchWidth);
        nextFetchPc_ = p.predNextPc;
        pipe_.push_back(&p);
    } else {
        ++fetchBubbles_;
    }
}

void
Frontend::redirect(Addr pc, bool on_oracle_path, std::uint32_t ras_ptr,
                   Cycle now)
{
    packetsKilled_ += pipe_.size();
    releaseRange(0, pipe_.size());
    buffer_.clear();
    ras_.restore(ras_ptr);
    nextFetchPc_ = pc;
    onOraclePath_ = on_oracle_path;
    ++redirectEvents_;

    redirects_.push_back(RedirectRecord{pc, now});
    if (redirects_.size() > kRedirectLog)
        redirects_.pop_front();
}

std::vector<Frontend::PacketView>
Frontend::inFlightPackets() const
{
    std::vector<PacketView> out;
    out.reserve(pipe_.size());
    for (const Packet* p : pipe_)
        out.push_back(PacketView{p->pc, p->stage, p->stallUntil});
    return out;
}

void
Frontend::resetFetchToOracle()
{
    releaseRange(0, pipe_.size());
    buffer_.clear();
    redirects_.clear();
    nextFetchPc_ = oracle_.nextPc();
    finalizeSteer_ = false;
    onOraclePath_ = true;
}

} // namespace cobra::core
