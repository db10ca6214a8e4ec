/**
 * @file
 * Fundamental scalar types shared across the COBRA model.
 */

#ifndef COBRA_COMMON_TYPES_HPP
#define COBRA_COMMON_TYPES_HPP

#include <cstdint>
#include <cstddef>
#include <limits>

namespace cobra {

/** Byte address in the simulated machine. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Global dynamic-instruction sequence number (program order). */
using SeqNum = std::uint64_t;

/** Architectural register index in the synthetic ISA. */
using RegIndex = std::uint16_t;

/** Identifier of a static instruction within a Program. */
using StaticId = std::uint32_t;

/** Sentinel for "no sequence number". */
inline constexpr SeqNum kInvalidSeq = std::numeric_limits<SeqNum>::max();

/** Sentinel for "no address". */
inline constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no cycle": an event that never comes. */
inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/** Size of one instruction in bytes (fixed-width synthetic ISA). */
inline constexpr unsigned kInstBytes = 4;

} // namespace cobra

#endif // COBRA_COMMON_TYPES_HPP
