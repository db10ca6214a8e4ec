/**
 * @file
 * Static instruction definition for the synthetic RISC-like ISA used
 * by the workload substrate (DESIGN.md §2 item 3).
 *
 * The ISA is deliberately minimal: fixed 4-byte instructions, 32 int
 * registers, and exactly the control-flow vocabulary a branch
 * predictor cares about (conditional branches, direct/indirect jumps,
 * calls, returns).
 */

#ifndef COBRA_PROGRAM_INSTRUCTION_HPP
#define COBRA_PROGRAM_INSTRUCTION_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace cobra::prog {

/** Operation classes, coarse enough for a timing model. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< 1-cycle integer op.
    IntMul,     ///< 3-cycle integer multiply.
    IntDiv,     ///< 12-cycle unpipelined divide.
    FpAlu,      ///< 4-cycle floating-point op.
    Load,       ///< Memory load (latency from cache model).
    Store,      ///< Memory store.
    CondBranch, ///< Conditional direct branch.
    Jump,       ///< Unconditional direct jump.
    IndirectJump, ///< Register-target jump (e.g., switch tables).
    Call,       ///< Direct call (pushes return address).
    IndirectCall, ///< Register-target call.
    Return,     ///< Return (pops return address).
    Nop,        ///< No-op / padding.
};

/** True for any control-flow instruction. */
constexpr bool
isControlFlow(OpClass op)
{
    switch (op) {
      case OpClass::CondBranch:
      case OpClass::Jump:
      case OpClass::IndirectJump:
      case OpClass::Call:
      case OpClass::IndirectCall:
      case OpClass::Return:
        return true;
      default:
        return false;
    }
}

/** True for indirect-target control flow (target not in the encoding). */
constexpr bool
isIndirectCf(OpClass op)
{
    return op == OpClass::IndirectJump || op == OpClass::IndirectCall ||
           op == OpClass::Return;
}

/** True for call-type instructions (push a return address). */
constexpr bool
isCall(OpClass op)
{
    return op == OpClass::Call || op == OpClass::IndirectCall;
}

/** Sentinel for "no behaviour attached". */
inline constexpr std::uint32_t kNoBehavior = 0xffffffffu;

/** Sentinel for "no memory stream attached". */
inline constexpr std::uint32_t kNoMemStream = 0xffffffffu;

/**
 * One static instruction in the program image. Direction/target
 * behaviour is referenced by id and resolved by the oracle executor.
 */
struct StaticInst
{
    OpClass op = OpClass::Nop;

    /** Destination register; 0 means "none" (x0 is hardwired zero). */
    RegIndex dst = 0;
    /** Source registers; 0 means "no dependence through this slot". */
    RegIndex src1 = 0;
    RegIndex src2 = 0;

    /** Target PC for direct branches / jumps / calls. */
    Addr target = kInvalidAddr;

    /** Direction/target behaviour id (cond branches, indirect CF). */
    std::uint32_t behaviorId = kNoBehavior;

    /** Address-stream id for loads and stores. */
    std::uint32_t memStreamId = kNoMemStream;

    /**
     * Marked by the program builder: a short forwards branch whose
     * shadow is straight-line code, eligible for SFB predication
     * (paper §VI-C).
     */
    bool sfbEligible = false;

    /** Human-readable mnemonic, for diagnostics. */
    std::string describe() const;
};

/** Short mnemonic for an OpClass. */
const char* opClassName(OpClass op);

} // namespace cobra::prog

#endif // COBRA_PROGRAM_INSTRUCTION_HPP
