#include <gtest/gtest.h>

#include <map>

#include "exec/oracle.hpp"
#include "program/builder.hpp"
#include "program/workload.hpp"
#include "test_util.hpp"

namespace cobra::exec {
namespace {

using prog::BranchBehavior;
using prog::OpClass;

TEST(Oracle, LoopBehaviorTripCount)
{
    BranchBehavior b;
    b.kind = BranchBehavior::Kind::Loop;
    b.trip = 4;
    prog::ProgramBuilder bld(1);
    const Addr top = bld.here();
    bld.emitNop();
    bld.emitCondBranch(b, top);
    prog::Program p = bld.takeProgram();
    p.setEntry(top);

    Oracle o(p);
    // Expect the branch taken 3 times then not taken, repeating.
    int branchSeen = 0;
    std::vector<bool> outcomes;
    while (branchSeen < 12) {
        const DynInst& di = o.consume();
        if (di.si->op == OpClass::CondBranch) {
            outcomes.push_back(di.taken);
            ++branchSeen;
        }
        o.retireUpTo(di.seq);
    }
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(outcomes[i], (i + 1) % 4 != 0) << i;
}

TEST(Oracle, BiasedFrequency)
{
    BranchBehavior b;
    b.kind = BranchBehavior::Kind::Biased;
    b.pTaken = 0.8;
    b.seed = 99;
    prog::Program p = test::singleBranchProgram(b);
    Oracle o(p);
    int taken = 0, total = 0;
    while (total < 3000) {
        const DynInst& di = o.consume();
        if (di.isCondBranch()) {
            taken += di.taken;
            ++total;
        }
        o.retireUpTo(di.seq);
    }
    EXPECT_NEAR(taken / 3000.0, 0.8, 0.03);
}

TEST(Oracle, SequentialPcsAndRedirects)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("dhrystone"));
    Oracle o(p);
    Addr expected = p.entry();
    for (int i = 0; i < 20000; ++i) {
        const DynInst& di = o.consume();
        ASSERT_EQ(di.pc, expected) << "discontinuity at " << i;
        ASSERT_TRUE(p.contains(di.nextPc));
        expected = di.nextPc;
        o.retireUpTo(di.seq);
    }
}

TEST(Oracle, CallStackBalanced)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("xalancbmk"));
    Oracle o(p);
    std::vector<Addr> shadow;
    for (int i = 0; i < 50000; ++i) {
        const DynInst& di = o.consume();
        if (prog::isCall(di.si->op)) {
            shadow.push_back(di.pc + kInstBytes);
        } else if (di.si->op == OpClass::Return) {
            ASSERT_FALSE(shadow.empty());
            EXPECT_EQ(di.nextPc, shadow.back());
            shadow.pop_back();
        }
        o.retireUpTo(di.seq);
    }
}

TEST(Oracle, RewindReproducesStream)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("leela"));
    Oracle o(p);
    std::vector<DynInst> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(o.consume());
    // Rewind to the 40th instruction and re-consume.
    o.rewindTo(first[40].seq);
    for (int i = 40; i < 100; ++i) {
        const DynInst& di = o.consume();
        ASSERT_EQ(di.seq, first[i].seq);
        ASSERT_EQ(di.pc, first[i].pc);
        ASSERT_EQ(di.taken, first[i].taken);
        ASSERT_EQ(di.nextPc, first[i].nextPc);
    }
}

TEST(Oracle, RetireDropsBufferButKeepsCursor)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("xz"));
    Oracle o(p);
    for (int i = 0; i < 50; ++i)
        o.consume();
    const SeqNum next = o.nextSeq();
    o.retireUpTo(next - 1);
    const DynInst& di = o.consume();
    EXPECT_EQ(di.seq, next);
}

TEST(Oracle, PeekDoesNotAdvance)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("x264"));
    Oracle o(p);
    const Addr pc0 = o.peek(0).pc;
    const Addr pc5 = o.peek(5).pc;
    EXPECT_EQ(o.peek(0).pc, pc0);
    EXPECT_EQ(o.peek(5).pc, pc5);
    EXPECT_EQ(o.consume().pc, pc0);
}

TEST(Oracle, WrongPathDeterministicAndClamped)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("gcc"));
    Oracle o(p);
    const DynInst a = o.wrongPath(0xdead0000, 7);
    const DynInst b = o.wrongPath(0xdead0000, 7);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.nextPc, b.nextPc);
    EXPECT_TRUE(a.wrongPath);
    EXPECT_TRUE(p.contains(a.pc));
    // Different salts may change outcomes but stay in the image.
    const DynInst c = o.wrongPath(0xdead0000, 8);
    EXPECT_TRUE(p.contains(c.nextPc) || c.nextPc == c.pc + kInstBytes);
}

TEST(Oracle, WrongPathDoesNotDisturbArchState)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("perlbench"));
    Oracle o1(p), o2(p);
    for (int i = 0; i < 100; ++i)
        o2.wrongPath(p.base() + 4 * (i % p.size()), i);
    for (int i = 0; i < 2000; ++i) {
        const DynInst& a = o1.consume();
        const DynInst& b = o2.consume();
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.taken, b.taken);
    }
}

TEST(Oracle, RegisterDependencesPointBackward)
{
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile("exchange2"));
    Oracle o(p);
    for (int i = 0; i < 5000; ++i) {
        const DynInst& di = o.consume();
        if (di.dep1 != kInvalidSeq) {
            EXPECT_LT(di.dep1, di.seq);
        }
        if (di.dep2 != kInvalidSeq) {
            EXPECT_LT(di.dep2, di.seq);
        }
        o.retireUpTo(di.seq);
    }
}

TEST(Oracle, GlobalCorrelatedIsDeterministicFunctionOfHistory)
{
    BranchBehavior b;
    b.kind = BranchBehavior::Kind::GlobalCorrelated;
    b.depth = 6;
    b.noise = 0.0;
    b.seed = 5;
    prog::Program p = test::singleBranchProgram(b);
    Oracle o(p);
    // Collect the branch outcome stream; verify outcome = f(history).
    std::vector<bool> outs;
    while (outs.size() < 4000) {
        const DynInst& di = o.consume();
        if (di.isCondBranch())
            outs.push_back(di.taken);
        o.retireUpTo(di.seq);
    }
    std::map<std::uint64_t, bool> fn;
    std::uint64_t h = 0;
    for (bool out : outs) {
        const std::uint64_t key = h & maskBits(6);
        auto it = fn.find(key);
        if (it != fn.end())
            EXPECT_EQ(it->second, out);
        else
            fn[key] = out;
        h = (h << 1) | (out ? 1 : 0);
    }
}

} // namespace
} // namespace cobra::exec
