#include <gtest/gtest.h>

#include "bpu/history_file.hpp"

namespace cobra::bpu {
namespace {

HistoryFileEntry
entryAt(Addr pc)
{
    HistoryFileEntry e;
    e.pc = pc;
    return e;
}

TEST(HistoryFile, EnqueueDequeueFifo)
{
    HistoryFile hf(4);
    EXPECT_TRUE(hf.empty());
    const FtqPos a = hf.enqueue(entryAt(0x100));
    const FtqPos b = hf.enqueue(entryAt(0x200));
    EXPECT_EQ(hf.size(), 2u);
    EXPECT_EQ(hf.headPos(), a);
    EXPECT_EQ(hf.head().pc, 0x100u);
    hf.dequeueHead();
    EXPECT_EQ(hf.headPos(), b);
    EXPECT_EQ(hf.head().pc, 0x200u);
}

TEST(HistoryFile, PositionsMonotonicNeverRecycled)
{
    HistoryFile hf(2);
    const FtqPos a = hf.enqueue(entryAt(0x1));
    hf.dequeueHead();
    const FtqPos b = hf.enqueue(entryAt(0x2));
    hf.dequeueHead();
    const FtqPos c = hf.enqueue(entryAt(0x3));
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_FALSE(hf.contains(a));
    EXPECT_FALSE(hf.contains(b));
    EXPECT_TRUE(hf.contains(c));
}

TEST(HistoryFile, FullBackpressure)
{
    HistoryFile hf(3);
    hf.enqueue(entryAt(1));
    hf.enqueue(entryAt(2));
    hf.enqueue(entryAt(3));
    EXPECT_TRUE(hf.full());
    hf.dequeueHead();
    EXPECT_FALSE(hf.full());
}

TEST(HistoryFile, SquashAfterDropsYounger)
{
    HistoryFile hf(8);
    const FtqPos a = hf.enqueue(entryAt(0xa));
    const FtqPos b = hf.enqueue(entryAt(0xb));
    hf.enqueue(entryAt(0xc));
    hf.enqueue(entryAt(0xd));
    hf.squashAfter(b);
    EXPECT_EQ(hf.size(), 2u);
    EXPECT_TRUE(hf.contains(a));
    EXPECT_TRUE(hf.contains(b));
    EXPECT_EQ(hf.tailPos(), b + 1);
    // Space freed by the squash is reusable.
    const FtqPos e = hf.enqueue(entryAt(0xe));
    EXPECT_EQ(e, b + 1);
    EXPECT_EQ(hf.at(e).pc, 0xeu);
}

TEST(HistoryFile, RestartAtContinuesPositions)
{
    // A checkpoint restore empties the file and continues its
    // positions where the producer's empty file stood.
    HistoryFile hf(4);
    hf.enqueue(entryAt(1));
    hf.enqueue(entryAt(2));
    hf.restartAt(41);
    EXPECT_TRUE(hf.empty());
    EXPECT_FALSE(hf.contains(1));
    EXPECT_EQ(hf.enqueue(entryAt(3)), 41u);
    EXPECT_EQ(hf.head().pc, 3u);
}

TEST(HistoryFile, RingWrapsCorrectly)
{
    HistoryFile hf(3);
    for (int round = 0; round < 10; ++round) {
        const FtqPos p = hf.enqueue(entryAt(0x1000 + round));
        EXPECT_EQ(hf.at(p).pc, 0x1000u + round);
        hf.dequeueHead();
    }
}

TEST(HistoryFile, EntryStateRoundTrip)
{
    HistoryFile hf(4);
    HistoryFileEntry e;
    e.pc = 0x1234;
    e.ghist = HistoryRegister(16);
    e.ghist.push(true);
    e.lhist = 0x55;
    e.brMask[2] = true;
    e.metas.resize(3);
    e.metas[1][0] = 0xdead;
    const FtqPos p = hf.enqueue(std::move(e));
    const HistoryFileEntry& r = hf.at(p);
    EXPECT_EQ(r.pc, 0x1234u);
    EXPECT_TRUE(r.ghist.bit(0));
    EXPECT_EQ(r.lhist, 0x55u);
    EXPECT_TRUE(r.brMask[2]);
    EXPECT_EQ(r.metas[1][0], 0xdeadu);
}

TEST(HistoryFile, StorageAccountsGhistAndMeta)
{
    HistoryFile hf(32);
    const auto small = hf.storageBits(16, 8, 4);
    const auto big = hf.storageBits(64, 128, 4);
    EXPECT_GT(big, small);
    EXPECT_EQ(big - small, 32u * (48 + 120));
}

} // namespace
} // namespace cobra::bpu
