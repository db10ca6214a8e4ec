#include "exec/oracle.hpp"

#include <cassert>

#include "warp/state_util.hpp"

namespace cobra::exec {

using prog::OpClass;
using prog::StaticInst;

Oracle::Oracle(const prog::Program& program, std::uint64_t seed)
    : prog_(program), seed_(seed), pc_(program.entry())
{
    branchState_.resize(prog_.numBranchBehaviors());
    indirectState_.resize(prog_.numIndirectBehaviors());
    memState_.resize(prog_.numMemStreams());
    lastWriter_.fill(kInvalidSeq);
}

const DynInst&
Oracle::peek(std::size_t k)
{
    while (cursor_ + k >= buffer_.size())
        generateOne();
    return buffer_[cursor_ + k];
}

const DynInst&
Oracle::consume()
{
    const DynInst& di = peek(0);
    ++cursor_;
    return di;
}

void
Oracle::rewindTo(SeqNum seq)
{
    assert(seq >= bufferBase_);
    assert(seq <= bufferBase_ + buffer_.size());
    cursor_ = static_cast<std::size_t>(seq - bufferBase_);
}

void
Oracle::retireUpTo(SeqNum seq)
{
    while (!buffer_.empty() && bufferBase_ <= seq) {
        buffer_.pop_front();
        ++bufferBase_;
        assert(cursor_ > 0);
        --cursor_;
    }
}

void
Oracle::bindCfSource(CfSource* cf)
{
    cf_ = cf;
    if (cf_ != nullptr)
        cf_->seek(cfConsumed());
}

std::uint64_t
Oracle::cfConsumed() const
{
    std::uint64_t n = 0;
    for (const BranchState& b : branchState_)
        n += b.occurrence;
    for (const IndirectState& s : indirectState_)
        n += s.occurrence;
    return n;
}

void
Oracle::applyReplayDirection(const StaticInst& si, bool taken)
{
    const prog::BranchBehavior& b = prog_.branchBehavior(si.behaviorId);
    BranchState& st = branchState_[si.behaviorId];
    if (b.kind == prog::BranchBehavior::Kind::Loop) {
        // Mirror evalDirection's trip bookkeeping so loop state (and
        // therefore checkpoints) stays byte-identical across modes.
        if (st.loopCount == 0) {
            unsigned trip = b.trip;
            if (b.tripJitter > 0) {
                trip += static_cast<unsigned>(
                    mix64(b.seed ^ st.occurrence) % (b.tripJitter + 1));
            }
            st.curTrip = trip < 1 ? 1 : trip;
        }
        st.loopCount = taken ? st.loopCount + 1 : 0;
    }
    ++st.occurrence;
    st.localHist = (st.localHist << 1) | (taken ? 1 : 0);
}

bool
Oracle::evalDirection(const StaticInst& si)
{
    const prog::BranchBehavior& b = prog_.branchBehavior(si.behaviorId);
    BranchState& st = branchState_[si.behaviorId];
    bool taken = false;

    switch (b.kind) {
      case prog::BranchBehavior::Kind::Biased: {
        const std::uint64_t h = mix64(b.seed ^ st.occurrence);
        taken = (h >> 11) * (1.0 / 9007199254740992.0) < b.pTaken;
        break;
      }
      case prog::BranchBehavior::Kind::Loop: {
        if (st.loopCount == 0) {
            // Fix the trip count for this loop run.
            unsigned trip = b.trip;
            if (b.tripJitter > 0) {
                trip += static_cast<unsigned>(
                    mix64(b.seed ^ st.occurrence) % (b.tripJitter + 1));
            }
            st.curTrip = trip < 1 ? 1 : trip;
        }
        taken = st.loopCount + 1 < st.curTrip;
        st.loopCount = taken ? st.loopCount + 1 : 0;
        break;
      }
      case prog::BranchBehavior::Kind::Periodic: {
        const unsigned pos =
            static_cast<unsigned>(st.occurrence % b.patternLen);
        taken = (b.pattern >> pos) & 1;
        break;
      }
      case prog::BranchBehavior::Kind::GlobalCorrelated: {
        const std::uint64_t h = ghist_ & maskBits(b.depth);
        taken = mix64(b.seed ^ h) & 1;
        if (b.noise > 0.0) {
            const std::uint64_t n = mix64(~b.seed ^ st.occurrence);
            if ((n >> 11) * (1.0 / 9007199254740992.0) < b.noise)
                taken = !taken;
        }
        break;
      }
      case prog::BranchBehavior::Kind::LocalCorrelated: {
        const std::uint64_t h = st.localHist & maskBits(b.depth);
        taken = mix64(b.seed ^ h) & 1;
        if (b.noise > 0.0) {
            const std::uint64_t n = mix64(~b.seed ^ st.occurrence);
            if ((n >> 11) * (1.0 / 9007199254740992.0) < b.noise)
                taken = !taken;
        }
        break;
      }
    }

    ++st.occurrence;
    st.localHist = (st.localHist << 1) | (taken ? 1 : 0);
    return taken;
}

Addr
Oracle::evalIndirect(const StaticInst& si)
{
    const prog::IndirectBehavior& b = prog_.indirectBehavior(si.behaviorId);
    IndirectState& st = indirectState_[si.behaviorId];
    const std::uint64_t occ = st.occurrence++;
    if (b.targets.empty())
        return pc_ + kInstBytes;

    std::size_t idx = 0;
    switch (b.kind) {
      case prog::IndirectBehavior::Kind::Monomorphic:
        idx = 0;
        break;
      case prog::IndirectBehavior::Kind::RoundRobin:
        idx = occ % b.targets.size();
        break;
      case prog::IndirectBehavior::Kind::HashSelected:
        idx = mix64(b.seed ^ occ) % b.targets.size();
        break;
      case prog::IndirectBehavior::Kind::HistorySelected:
        idx = mix64(b.seed ^ (ghist_ & maskBits(b.depth))) %
              b.targets.size();
        break;
    }
    return b.targets[idx];
}

Addr
Oracle::evalMemAddr(const StaticInst& si)
{
    if (si.memStreamId == prog::kNoMemStream)
        return 0x7000'0000;
    const prog::MemStream& m = prog_.memStream(si.memStreamId);
    MemState& st = memState_[si.memStreamId];
    const std::uint64_t occ = st.occurrence++;
    Addr a = m.base;
    switch (m.kind) {
      case prog::MemStream::Kind::Stride: {
        const std::uint64_t off =
            (occ * static_cast<std::uint64_t>(m.stride)) % m.windowBytes;
        a = m.base + (off & ~std::uint64_t{7});
        break;
      }
      case prog::MemStream::Kind::Random:
        a = m.base + (mix64(m.seed ^ occ) % m.windowBytes & ~std::uint64_t{7});
        break;
      case prog::MemStream::Kind::PointerChase:
        a = m.base +
            (mix64(m.seed ^ st.last) % m.windowBytes & ~std::uint64_t{7});
        st.last = a;
        break;
    }
    return a;
}

void
Oracle::generateOne()
{
    const Addr pc = prog_.clampPc(pc_);
    const StaticInst& si = prog_.at(pc);

    DynInst di;
    di.seq = genSeq_++;
    di.pc = pc;
    di.si = &si;
    di.nextPc = pc + kInstBytes;

    // Register dependences: producers recorded before dst update so a
    // self-referencing instruction depends on the previous writer.
    if (si.src1 != 0)
        di.dep1 = lastWriter_[si.src1 % 32];
    if (si.src2 != 0)
        di.dep2 = lastWriter_[si.src2 % 32];

    switch (si.op) {
      case OpClass::CondBranch: {
        if (cf_ != nullptr) {
            di.taken = cf_->nextCond(pc);
            applyReplayDirection(si, di.taken);
        } else {
            di.taken = evalDirection(si);
        }
        if (di.taken) {
            assert(si.target != kInvalidAddr);
            di.nextPc = si.target;
        }
        ghist_ = (ghist_ << 1) | (di.taken ? 1 : 0);
        break;
      }
      case OpClass::Jump:
        di.taken = true;
        di.nextPc = si.target;
        break;
      case OpClass::Call:
        di.taken = true;
        di.nextPc = si.target;
        callStack_.push_back(pc + kInstBytes);
        break;
      case OpClass::IndirectJump:
        di.taken = true;
        if (cf_ != nullptr) {
            di.nextPc = cf_->nextIndirect(pc);
            ++indirectState_[si.behaviorId].occurrence;
        } else {
            di.nextPc = evalIndirect(si);
        }
        break;
      case OpClass::IndirectCall:
        di.taken = true;
        if (cf_ != nullptr) {
            di.nextPc = cf_->nextIndirect(pc);
            ++indirectState_[si.behaviorId].occurrence;
        } else {
            di.nextPc = evalIndirect(si);
        }
        callStack_.push_back(pc + kInstBytes);
        break;
      case OpClass::Return:
        di.taken = true;
        if (callStack_.empty()) {
            di.nextPc = prog_.entry();
        } else {
            di.nextPc = callStack_.back();
            callStack_.pop_back();
        }
        break;
      case OpClass::Load:
      case OpClass::Store:
        di.memAddr = evalMemAddr(si);
        break;
      default:
        break;
    }

    if (si.dst != 0)
        lastWriter_[si.dst % 32] = di.seq;

    pc_ = di.nextPc;
    buffer_.push_back(di);
}

DynInst
Oracle::wrongPath(Addr raw_pc, std::uint64_t salt) const
{
    const Addr pc = prog_.clampPc(raw_pc);
    const StaticInst& si = prog_.at(pc);
    const std::uint64_t h = mix64(pc ^ mix64(salt ^ seed_));

    DynInst di;
    di.pc = pc;
    di.si = &si;
    di.nextPc = pc + kInstBytes;
    di.wrongPath = true;

    switch (si.op) {
      case OpClass::CondBranch:
        di.taken = h & 1;
        if (di.taken && si.target != kInvalidAddr)
            di.nextPc = si.target;
        else
            di.taken = di.taken && si.target != kInvalidAddr;
        break;
      case OpClass::Jump:
      case OpClass::Call:
        di.taken = true;
        di.nextPc = si.target != kInvalidAddr ? si.target
                                              : pc + kInstBytes;
        break;
      case OpClass::IndirectJump:
      case OpClass::IndirectCall: {
        di.taken = true;
        const prog::IndirectBehavior& b =
            prog_.indirectBehavior(si.behaviorId);
        if (b.targets.empty())
            di.nextPc = pc + kInstBytes;
        else
            di.nextPc = b.targets[h % b.targets.size()];
        break;
      }
      case OpClass::Return:
        di.taken = true;
        di.nextPc = prog_.clampPc(prog_.base() + (h % (prog_.size() *
                                                       kInstBytes)));
        break;
      case OpClass::Load:
      case OpClass::Store:
        if (si.memStreamId != prog::kNoMemStream) {
            const prog::MemStream& m = prog_.memStream(si.memStreamId);
            di.memAddr =
                m.base + (h % m.windowBytes & ~std::uint64_t{7});
        } else {
            di.memAddr = 0x7000'0000;
        }
        break;
      default:
        break;
    }
    return di;
}

namespace {

/**
 * Serialize one generated instruction. The static-instruction pointer
 * (never null: generateOne sets it) is encoded as its index into
 * @p prog (the checkpoint fingerprint guarantees both sides see the
 * same image).
 */
void
saveDynInst(warp::StateWriter& w, const DynInst& di,
            const prog::Program& prog)
{
    w.u64(di.seq);
    w.u64(di.pc);
    w.u64(static_cast<std::uint64_t>(di.si - &prog.at(prog.base())));
    w.boolean(di.taken);
    w.u64(di.nextPc);
    w.u64(di.memAddr);
    w.u64(di.dep1);
    w.u64(di.dep2);
    w.boolean(di.wrongPath);
}

void
loadDynInst(warp::StateReader& r, DynInst& di, const prog::Program& prog)
{
    di.seq = r.u64();
    di.pc = r.u64();
    const std::uint64_t idx = r.u64();
    if (idx >= prog.size())
        r.fail("static-instruction index exceeds the program image");
    di.si = &prog.at(prog.pcOf(idx));
    di.taken = r.boolean();
    di.nextPc = r.u64();
    di.memAddr = r.u64();
    di.dep1 = r.u64();
    di.dep2 = r.u64();
    di.wrongPath = r.boolean();
}

} // namespace

void
Oracle::saveState(warp::StateWriter& w) const
{
    w.u64(pc_);
    w.u64(genSeq_);
    w.vecU(callStack_);
    w.u64(ghist_);
    warp::saveVec(w, branchState_,
                  [](warp::StateWriter& ww, const BranchState& b) {
                      ww.u64(b.occurrence);
                      ww.u32(b.loopCount);
                      ww.u32(b.curTrip);
                      ww.u64(b.localHist);
                  });
    warp::saveVec(w, indirectState_,
                  [](warp::StateWriter& ww, const IndirectState& s) {
                      ww.u64(s.occurrence);
                  });
    warp::saveVec(w, memState_,
                  [](warp::StateWriter& ww, const MemState& s) {
                      ww.u64(s.occurrence);
                      ww.u64(s.last);
                  });
    for (SeqNum s : lastWriter_)
        w.u64(s);
    w.u64(buffer_.size());
    for (const DynInst& di : buffer_)
        saveDynInst(w, di, prog_);
    w.u64(bufferBase_);
    w.u64(cursor_);
}

void
Oracle::restoreState(warp::StateReader& r)
{
    pc_ = r.u64();
    genSeq_ = r.u64();
    callStack_ = r.vecU<Addr>();
    ghist_ = r.u64();
    warp::loadVec(r, branchState_,
                  [](warp::StateReader& rr, BranchState& b) {
                      b.occurrence = rr.u64();
                      b.loopCount = rr.u32();
                      b.curTrip = rr.u32();
                      b.localHist = rr.u64();
                  });
    warp::loadVec(r, indirectState_,
                  [](warp::StateReader& rr, IndirectState& s) {
                      s.occurrence = rr.u64();
                  });
    warp::loadVec(r, memState_,
                  [](warp::StateReader& rr, MemState& s) {
                      s.occurrence = rr.u64();
                      s.last = rr.u64();
                  });
    for (SeqNum& s : lastWriter_)
        s = r.u64();
    buffer_.clear();
    const std::uint64_t buffered = r.u64();
    if (buffered > (1u << 20))
        r.fail("oracle buffer implausibly large");
    for (std::uint64_t i = 0; i < buffered; ++i) {
        DynInst di;
        loadDynInst(r, di, prog_);
        buffer_.push_back(di);
    }
    bufferBase_ = r.u64();
    cursor_ = r.u64();
    if (cursor_ > buffer_.size())
        r.fail("oracle cursor beyond its buffer");
    if (cf_ != nullptr)
        cf_->seek(cfConsumed());
}

} // namespace cobra::exec
