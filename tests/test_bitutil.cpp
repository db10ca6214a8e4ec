#include <gtest/gtest.h>

#include "common/bitutil.hpp"

namespace cobra {
namespace {

TEST(BitUtil, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xffu);
    EXPECT_EQ(maskBits(63), 0x7fffffffffffffffull);
    EXPECT_EQ(maskBits(64), ~std::uint64_t{0});
    EXPECT_EQ(maskBits(99), ~std::uint64_t{0});
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xdeadbeef, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeef, 16, 16), 0xdeadu);
    EXPECT_EQ(bits(0xff, 4, 0), 0u);
}

TEST(BitUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(BitUtil, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);

    // The definition: the smallest l with 2^l >= v.
    const auto byLoop = [](std::uint64_t v) {
        unsigned l = 0;
        while (l < 64 && (std::uint64_t{1} << l) < v)
            ++l;
        return l;
    };
    for (std::uint64_t v = 1; v <= (std::uint64_t{1} << 20); ++v)
        ASSERT_EQ(ceilLog2(v), byLoop(v)) << v;
    for (unsigned k = 1; k <= 63; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        for (std::uint64_t v : {p - 1, p, p + 1})
            ASSERT_EQ(ceilLog2(v), byLoop(v)) << "2^" << k;
    }
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(2047), 10u);
}

TEST(BitUtil, FoldXorWidth)
{
    // Folded results must fit in the requested width.
    for (unsigned w = 1; w <= 16; ++w) {
        const std::uint64_t f = foldXor(0xfedcba9876543210ull, w);
        EXPECT_LE(f, maskBits(w)) << "width " << w;
    }
}

TEST(BitUtil, FoldXorIdentityForWideOutputs)
{
    EXPECT_EQ(foldXor(0x1234, 64), 0x1234u);
    EXPECT_EQ(foldXor(0x1234, 0), 0u);
}

TEST(BitUtil, FoldXorMixesAllInputBits)
{
    // Flipping any input bit must flip the folded output.
    const std::uint64_t base = 0xa5a5a5a5a5a5a5a5ull;
    const std::uint64_t f0 = foldXor(base, 10);
    for (unsigned b = 0; b < 64; ++b)
        EXPECT_NE(foldXor(base ^ (1ull << b), 10), f0) << "bit " << b;
}

TEST(BitUtil, Mix64Deterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(BitUtil, Mix64AvalanchesLowBits)
{
    // Nearby inputs should flip roughly half the output bits.
    int totalFlips = 0;
    for (std::uint64_t x = 0; x < 64; ++x) {
        totalFlips +=
            __builtin_popcountll(mix64(x) ^ mix64(x + 1));
    }
    const double avg = totalFlips / 64.0;
    EXPECT_GT(avg, 24.0);
    EXPECT_LT(avg, 40.0);
}

TEST(BitUtil, HashCombineOrderSensitive)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

} // namespace
} // namespace cobra
