#include "warp/fastforward.hpp"

#include <array>

#include "guard/errors.hpp"
#include "sim/simulator.hpp"

namespace cobra::warp {

namespace {

using prog::OpClass;

/** Warm one fetch packet through the real BPU protocol, with @p q
 *  as its query (beginQuery resets it). */
std::uint64_t
warmPacket(sim::Simulator& s, std::uint64_t budget, bpu::QueryState& q)
{
    bpu::BranchPredictorUnit& bpu = s.bpu();
    exec::Oracle& oracle = s.oracle();
    core::ReturnAddressStack& ras = s.frontend().ras();
    core::CacheHierarchy& caches = s.caches();
    const unsigned fw = s.config().frontend.fetchWidth;

    // The update drain runs a few entries per cycle; a packet per
    // iteration with one tick each keeps pace, but guard anyway.
    unsigned ticks = 0;
    while (!bpu.canFinalize()) {
        bpu.tick();
        if (++ticks > 4096) {
            throw guard::CheckpointError(
                "fast-forward", "history file failed to drain");
        }
    }

    const Addr pc = oracle.nextPc();
    const unsigned startSlot =
        static_cast<unsigned>((pc >> 2) & (fw - 1));
    const std::uint32_t rasPtrSnap = ras.pointer();

    bpu.beginQuery(q, pc, fw);
    // The query's bundle: each later stage rebuilds it in place.
    const bpu::PredictionBundle& bundle = bpu.stage(q, 1);
    bpu.captureHistory(q);

    // ---- Consume the packet's architectural instructions --------------
    struct Got
    {
        exec::DynInst di;
        unsigned slot;
        /** RAS top as seen by a Return in this slot (pre-pop). */
        Addr rasTop = kInvalidAddr;
    };
    std::array<Got, bpu::kMaxFetchWidth> got;
    unsigned nGot = 0;
    for (unsigned slot = startSlot; slot < fw && nGot < budget; ++slot) {
        const exec::DynInst di = oracle.consume();
        got[nGot] = Got{di, slot, kInvalidAddr};

        const OpClass op = di.si->op;
        caches.fetchAccess(di.pc);
        if (op == OpClass::Load)
            caches.loadAccess(di.memAddr);
        else if (op == OpClass::Store)
            caches.storeAccess(di.memAddr);

        if (op == OpClass::Call || op == OpClass::IndirectCall) {
            ras.push(di.pc + kInstBytes);
        } else if (op == OpClass::Return) {
            got[nGot].rasTop = ras.top();
            ras.pop();
        }
        ++nGot;

        if (di.isCf() && di.taken)
            break;
    }
    if (nGot == 0) {
        // Cannot happen (the slot loop always runs once under a
        // non-zero budget), but never return 0 to the caller's loop.
        throw guard::CheckpointError("fast-forward",
                                     "empty warm packet");
    }

    // Push the packet's *architectural* conditional outcomes into the
    // speculative global history: perfect-history warming, the bits a
    // mispredict-free detailed run would carry.
    for (unsigned i = 0; i < nGot; ++i) {
        if (got[i].di.si->op == OpClass::CondBranch)
            bpu.pushSpecGhist(got[i].di.taken);
    }

    // Evaluate the remaining stages so every component provides.
    for (unsigned d = 2; d <= bpu.maxLatency(); ++d)
        bpu.stage(q, d);

    bpu::FinalizeArgs args;
    args.finalPred = &bundle;
    for (unsigned i = 0; i < nGot; ++i) {
        if (got[i].di.si->op == OpClass::CondBranch)
            args.brMask[got[i].slot] = true;
    }
    args.fetchedSlots = got[nGot - 1].slot + 1;
    args.firstSeq = got[0].di.seq;
    args.rasPtr = rasPtrSnap;
    const bpu::FtqPos pos = bpu.finalize(q, args);

    // ---- Resolve every CFI with its architectural outcome -------------
    // The mispredict flag mirrors the detailed frontend/backend: the
    // flag drives component training that plain updates never reach
    // (TAGE-style allocate-on-mispredict) plus the path/local-history
    // repair, so warming without it leaves the composition
    // systematically under-trained and biases sampled MPKI upward.
    // Direct jumps/calls and taken direct branches get their targets
    // from pre-decode, so only the direction (cond) or the predicted
    // target (indirect, return) can miss.
    for (unsigned i = 0; i < nGot; ++i) {
        const exec::DynInst& di = got[i].di;
        const OpClass op = di.si->op;
        const bpu::CfiType type = core::Backend::cfiTypeOf(op);
        if (type == bpu::CfiType::None)
            continue;
        const unsigned slot = got[i].slot;
        bool misp = false;
        if (op == OpClass::CondBranch) {
            const bool predTaken =
                bundle.slots[slot].valid && bundle.slots[slot].taken;
            misp = predTaken != di.taken;
        } else if (op == OpClass::IndirectJump ||
                   op == OpClass::IndirectCall) {
            const Addr predNext = bundle.slots[slot].targetValid
                                      ? bundle.slots[slot].target
                                      : di.pc + kInstBytes;
            misp = predNext != di.nextPc;
        } else if (op == OpClass::Return) {
            const Addr predNext =
                got[i].rasTop != kInvalidAddr ? got[i].rasTop
                : bundle.slots[slot].targetValid
                    ? bundle.slots[slot].target
                    : di.pc + kInstBytes;
            misp = predNext != di.nextPc;
        }
        bpu::BranchResolution res;
        res.ftq = pos;
        res.slot = slot;
        res.type = type;
        res.taken = di.taken;
        res.target = di.nextPc;
        res.isCall = op == OpClass::Call || op == OpClass::IndirectCall;
        res.isRet = op == OpClass::Return;
        res.mispredicted = misp;
        bpu.resolve(res);
        if (misp) {
            // The detailed pipeline refetches the younger slots as a
            // fresh packet; their history bits are already pushed, so
            // just stop training this (now truncated) entry.
            break;
        }
    }

    bpu.commitPacket(pos);
    bpu.tick();
    oracle.retireUpTo(got[nGot - 1].di.seq);
    return nGot;
}

} // namespace

FastForwardResult
fastForward(sim::Simulator& s, std::uint64_t insts)
{
    FastForwardResult out;
    bpu::QueryState q;
    while (out.insts < insts) {
        out.insts += warmPacket(s, insts - out.insts, q);
        ++out.packets;
    }

    // ---- Quiesce: drain predictor updates, re-point fetch -------------
    bpu::BranchPredictorUnit& bpu = s.bpu();
    unsigned ticks = 0;
    while (bpu.historyFile().size() > 0 || bpu.walkBusy()) {
        bpu.tick();
        if (++ticks > 1u << 20) {
            throw guard::CheckpointError(
                "fast-forward",
                "predictor state failed to quiesce after the "
                "architectural advance");
        }
    }
    s.frontend().resetFetchToOracle();
    return out;
}

} // namespace cobra::warp
