#include "trace/replay.hpp"

#include "guard/errors.hpp"

namespace cobra::trace {

TraceRecord
DecodedTrace::record(std::size_t i) const
{
    TraceRecord r;
    r.pc = pc[i];
    r.target = target[i];
    const std::uint8_t m = rmeta[i];
    r.type = DecodedBlock::typeOf(m);
    r.taken = DecodedBlock::takenOf(m);
    r.slot = static_cast<std::uint8_t>(DecodedBlock::slotOf(m));
    return r;
}

std::shared_ptr<const DecodedTrace>
decodeTrace(const TraceReader& reader)
{
    auto out = std::make_shared<DecodedTrace>();
    out->meta = reader.meta();
    out->digest = reader.contentDigest();
    out->pc.reserve(reader.recordCount());
    out->target.reserve(reader.recordCount());
    out->rmeta.reserve(reader.recordCount());

    DecodedBlock block;
    for (std::size_t b = 0; b < reader.blockCount(); ++b) {
        reader.decodeBlock(b, block);
        out->pc.insert(out->pc.end(), block.pc.begin(), block.pc.end());
        out->target.insert(out->target.end(), block.target.begin(),
                           block.target.end());
        out->rmeta.insert(out->rmeta.end(), block.meta.begin(),
                          block.meta.end());
    }
    return out;
}

std::shared_ptr<const DecodedTrace>
loadTrace(const std::string& path)
{
    TraceReader reader(path);
    return decodeTrace(reader);
}

// ---- TraceCursor -------------------------------------------------------

TraceCursor::TraceCursor(std::shared_ptr<const DecodedTrace> trace)
    : trace_(std::move(trace))
{
    if (!trace_)
        throw guard::CheckpointError("trace cursor", "null trace");
}

void
TraceCursor::fail(const std::string& detail) const
{
    throw guard::CheckpointError(
        "trace '" + trace_->meta.name + "' record " +
            std::to_string(pos_),
        detail);
}

std::uint8_t
TraceCursor::expect(Addr pc, bool cond)
{
    if (pos_ >= trace_->size()) {
        fail("trace exhausted (captured for " +
             std::to_string(trace_->meta.sourceInsts) +
             " committed instructions)");
    }
    const std::uint8_t m = trace_->rmeta[pos_];
    const bool is_cond = DecodedBlock::typeOf(m) == RecordType::Cond;
    if (is_cond != cond)
        fail("record type desync (trace does not match this program)");
    if (trace_->pc[pos_] != pc) {
        fail("site desync: trace has pc 0x" /* hex not worth a stream */ +
             std::to_string(trace_->pc[pos_]) + ", oracle is at " +
             std::to_string(pc));
    }
    return m;
}

bool
TraceCursor::nextCond(Addr pc)
{
    const std::uint8_t m = expect(pc, true);
    ++pos_;
    return DecodedBlock::takenOf(m);
}

Addr
TraceCursor::nextIndirect(Addr pc)
{
    expect(pc, false);
    return trace_->target[pos_++];
}

void
TraceCursor::seek(std::uint64_t idx)
{
    if (idx > trace_->size())
        fail("seek beyond the end of the trace");
    pos_ = idx;
}

// ---- validateReplayMeta ------------------------------------------------

void
validateReplayMeta(const TraceMeta& tm, const prog::Program& program,
                   std::uint64_t oracle_seed, std::uint64_t total_insts)
{
    if (tm.kind != TraceKind::CapturedOracle) {
        throw guard::ConfigError(
            "replayTrace",
            "'" + tm.name + "' is an imported (external) trace; "
            "full-core replay needs a capture-mode trace "
            "(cobra_sim --capture-trace)");
    }
    if (tm.programFingerprint != prog::programFingerprint(program)) {
        throw guard::ConfigError(
            "replayTrace",
            "trace '" + tm.name + "' was captured from a different "
            "program than workload '" + program.name() + "'");
    }
    if (tm.oracleSeed != oracle_seed) {
        throw guard::ConfigError(
            "replayTrace",
            "trace '" + tm.name + "' was captured with oracle seed " +
                std::to_string(tm.oracleSeed) +
                ", but this run is configured with " +
                std::to_string(oracle_seed));
    }
    if (total_insts > tm.sourceInsts) {
        throw guard::ConfigError(
            "replayTrace",
            "trace '" + tm.name + "' guarantees " +
                std::to_string(tm.sourceInsts) +
                " committed instructions, but warmup+measured is " +
                std::to_string(total_insts) +
                "; recapture with a larger budget");
    }
}

// ---- captureTrace ------------------------------------------------------

TraceMeta
captureTrace(const prog::Program& program, const std::string& path,
             std::uint64_t insts, std::uint64_t seed,
             unsigned fetch_width)
{
    TraceMeta meta;
    meta.kind = TraceKind::CapturedOracle;
    meta.fetchWidth = fetch_width;
    meta.oracleSeed = seed;
    meta.programFingerprint = prog::programFingerprint(program);
    meta.sourceInsts = insts;
    meta.name = program.name();

    TraceWriter writer(path, meta);
    exec::Oracle oracle(program, seed);
    const std::uint64_t total = insts + kCaptureSlackInsts;
    for (std::uint64_t i = 0; i < total; ++i) {
        const exec::DynInst& di = oracle.consume();
        switch (di.si->op) {
          case prog::OpClass::CondBranch: {
            TraceRecord r;
            r.pc = di.pc;
            r.type = RecordType::Cond;
            r.taken = di.taken;
            // Static taken-target, like trace::recordTrace: untaken
            // records carry no target byte.
            r.target = di.taken ? di.nextPc : kInvalidAddr;
            r.slot = static_cast<std::uint8_t>(
                (di.pc / kInstBytes) & (fetch_width - 1));
            writer.add(r);
            break;
          }
          case prog::OpClass::IndirectJump:
          case prog::OpClass::IndirectCall: {
            TraceRecord r;
            r.pc = di.pc;
            r.type = di.si->op == prog::OpClass::IndirectJump
                         ? RecordType::IndirectJump
                         : RecordType::IndirectCall;
            r.taken = true;
            r.target = di.nextPc;
            r.slot = static_cast<std::uint8_t>(
                (di.pc / kInstBytes) & (fetch_width - 1));
            writer.add(r);
            break;
          }
          default:
            break;
        }
        oracle.retireUpTo(di.seq);
    }
    writer.finalize();
    return writer.meta();
}

} // namespace cobra::trace
