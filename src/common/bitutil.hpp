/**
 * @file
 * Bit-manipulation helpers used by predictor index/tag hashing.
 */

#ifndef COBRA_COMMON_BITUTIL_HPP
#define COBRA_COMMON_BITUTIL_HPP

#include <bit>
#include <cassert>
#include <cstdint>

namespace cobra {

/** Return a mask with the low @p n bits set (n may be 0..64). */
constexpr std::uint64_t
maskBits(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/** Extract bits [lo, lo+n) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned n)
{
    return (v >> lo) & maskBits(n);
}

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** ceil(log2(v)) for v >= 1. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    assert(v >= 1);
    return v <= 1 ? 0 : static_cast<unsigned>(std::bit_width(v - 1));
}

/** floor(log2(v)) for v >= 1. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    assert(v >= 1);
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** XOR-fold @p v down to @p outBits bits (classic gshare-style folding). */
constexpr std::uint64_t
foldXor(std::uint64_t v, unsigned outBits)
{
    if (outBits == 0)
        return 0;
    if (outBits >= 64)
        return v;
    std::uint64_t r = 0;
    while (v != 0) {
        r ^= v & maskBits(outBits);
        v >>= outBits;
    }
    return r;
}

/**
 * Mix a 64-bit value (splitmix64 finalizer). Used for deterministic
 * pseudo-random behaviour functions and wrong-path outcome synthesis.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one mixed hash. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

} // namespace cobra

#endif // COBRA_COMMON_BITUTIL_HPP
