/**
 * @file
 * Trace replay: capture mode (freeze a synthetic workload's committed
 * control-flow stream into a trace file), fully-decoded immutable
 * traces shared across sweep replicas, and the CfSource cursors that
 * feed the oracle executor from recorded bytes.
 *
 * Sharing model: a DecodedTrace is decoded once (SoA strips over all
 * blocks) and held by shared_ptr; every replica/point gets its own
 * tiny TraceCursor over the shared strips, so an N-point sweep pays
 * one decode per workload regardless of N (prog::WorkloadCache keys
 * decoded traces by content digest). Replay, warp restores and the
 * trace-driven evaluators all read through this one decode.
 */

#ifndef COBRA_TRACE_REPLAY_HPP
#define COBRA_TRACE_REPLAY_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "exec/oracle.hpp"
#include "program/program.hpp"
#include "trace/format.hpp"

namespace cobra::trace {

/**
 * A trace fully decoded into immutable SoA record strips, plus its
 * header metadata and content digest. Construction validates every
 * block checksum; afterwards reads are plain array indexing.
 */
struct DecodedTrace
{
    TraceMeta meta;
    std::uint64_t digest = 0; ///< Content digest of the source file.
    std::vector<Addr> pc;
    std::vector<Addr> target;
    std::vector<std::uint8_t> rmeta; ///< Packed meta (DecodedBlock bits).

    std::size_t size() const { return pc.size(); }

    RecordType typeAt(std::size_t i) const
    {
        return DecodedBlock::typeOf(rmeta[i]);
    }
    bool takenAt(std::size_t i) const
    {
        return DecodedBlock::takenOf(rmeta[i]);
    }
    unsigned slotAt(std::size_t i) const
    {
        return DecodedBlock::slotOf(rmeta[i]);
    }

    TraceRecord record(std::size_t i) const;
};

/** Decode every block of @p reader into one shared immutable trace. */
std::shared_ptr<const DecodedTrace> decodeTrace(const TraceReader& reader);

/** Open, validate and fully decode a trace file. */
std::shared_ptr<const DecodedTrace> loadTrace(const std::string& path);

/**
 * Replay cursor over a shared DecodedTrace: the per-replica view.
 * Validates the site of every read; desync or exhaustion raises
 * guard::CheckpointError naming the record index.
 */
class TraceCursor final : public exec::CfSource
{
  public:
    explicit TraceCursor(std::shared_ptr<const DecodedTrace> trace);

    bool nextCond(Addr pc) override;
    Addr nextIndirect(Addr pc) override;
    void seek(std::uint64_t idx) override;
    std::uint64_t position() const override { return pos_; }

    const DecodedTrace& trace() const { return *trace_; }

  private:
    [[noreturn]] void fail(const std::string& detail) const;
    std::uint8_t expect(Addr pc, bool cond);

    std::shared_ptr<const DecodedTrace> trace_;
    std::uint64_t pos_ = 0;
};

/**
 * Capture mode: architecturally execute @p program for
 * @p insts + slack committed instructions and freeze the committed
 * control-flow stream (conditional directions, indirect targets) into
 * a CapturedOracle trace file at @p path. The recorded slack
 * (kCaptureSlackInsts) covers the frontend's speculative overrun
 * beyond the budget, so the written trace guarantees any replay of up
 * to @p insts committed instructions; meta.sourceInsts records that
 * guarantee. Returns the finalized header metadata.
 */
TraceMeta captureTrace(const prog::Program& program,
                       const std::string& path, std::uint64_t insts,
                       std::uint64_t seed = 0xD15EA5E,
                       unsigned fetch_width = 4);

/** Committed-instruction slack captureTrace records beyond its budget
 *  (bounds the frontend's maximum speculative overrun generously). */
inline constexpr std::uint64_t kCaptureSlackInsts = 65536;

/**
 * Check that a trace can drive a full-core replay of @p program with
 * oracle seed @p oracle_seed for @p total_insts committed instructions
 * (warmup + measured): captured kind, matching program fingerprint,
 * matching seed, sufficient guaranteed budget. Throws
 * guard::ConfigError naming the violated rule. Shared by the
 * Simulator constructor and cobra_serve admission, so a request is
 * rejected up front with exactly the message a point would fail with.
 */
void validateReplayMeta(const TraceMeta& meta,
                        const prog::Program& program,
                        std::uint64_t oracle_seed,
                        std::uint64_t total_insts);

} // namespace cobra::trace

#endif // COBRA_TRACE_REPLAY_HPP
