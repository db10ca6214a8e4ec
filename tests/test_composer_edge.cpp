/**
 * @file
 * Composer edge cases: nested arbitration, wide (8-slot) fetch
 * bundles, deep chains, mixed-latency orderings, and metadata-slot
 * assignment across complex trees.
 */

#include <gtest/gtest.h>

#include "bpu/composer.hpp"
#include "components/bim.hpp"
#include "components/btb.hpp"
#include "components/tourney.hpp"
#include "test_util.hpp"

namespace cobra::bpu {
namespace {

using namespace cobra::comps;

HbimParams
bim(unsigned latency, unsigned width = 4, IndexMode mode = IndexMode::Pc)
{
    HbimParams p;
    p.sets = 64;
    p.latency = latency;
    p.fetchWidth = width;
    p.mode = mode;
    return p;
}

TourneyParams
tourney(unsigned latency, unsigned width = 4)
{
    TourneyParams p;
    p.sets = 64;
    p.latency = latency;
    p.fetchWidth = width;
    return p;
}

QueryState
query(ComposedPredictor& cp, Addr pc = 0x1000)
{
    QueryState q;
    q.reset(pc, cp.width(), static_cast<unsigned>(cp.components().size()),
            cp.width());
    HistoryRegister gh(64);
    q.captureHistory(gh, 0);
    return q;
}

TEST(ComposerEdge, NestedArbInsideArbChild)
{
    // ARB3 > [ (ARB3a > [A2, B2]) ... ] is rejected (equal latency is
    // allowed; the inner arb feeding the outer one must not respond
    // later than the outer).
    Topology topo;
    auto* outer = topo.make<Tourney>("OUTER", tourney(3));
    auto* inner = topo.make<Tourney>("INNER", tourney(3));
    auto* a = topo.make<Hbim>("A", bim(2));
    auto* b = topo.make<Hbim>("B", bim(2));
    auto* c = topo.make<Hbim>("C", bim(2));
    auto innerNode = topo.arb(inner, {topo.leaf(a), topo.leaf(b)});
    topo.setRoot(topo.arb(outer, {innerNode, topo.leaf(c)}));
    EXPECT_NO_THROW(topo.validate());
    ComposedPredictor cp(std::move(topo), 4);
    QueryState q = query(cp);
    for (unsigned d = 1; d <= 3; ++d)
        EXPECT_NO_FATAL_FAILURE(cp.evaluateStage(q, d));
    // All five components got their metadata slots.
    EXPECT_EQ(q.metadata().size(), 5u);
}

TEST(ComposerEdge, EightWideBundles)
{
    Topology topo;
    auto* a = topo.make<Hbim>("A", bim(2, 8));
    topo.setRoot(topo.leaf(a));
    ComposedPredictor cp(std::move(topo), 8);
    QueryState q = query(cp);
    cp.evaluateStage(q, 1);
    const PredictionBundle bnd = cp.evaluateStage(q, 2);
    EXPECT_EQ(bnd.width, 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(bnd.slots[i].valid) << i;
}

TEST(ComposerEdge, NarrowComponentInWidePipelineRejected)
{
    Topology topo;
    auto* narrow = topo.make<Hbim>("N", bim(2, 4));
    topo.setRoot(topo.leaf(narrow));
    EXPECT_THROW(ComposedPredictor(std::move(topo), 8),
                 std::logic_error);
}

TEST(ComposerEdge, DeepChainEvaluates)
{
    Topology topo;
    std::vector<PredictorComponent*> comps;
    for (int i = 0; i < 6; ++i) {
        comps.push_back(
            topo.make<Hbim>(std::string("C").append(std::to_string(i)),
                            bim(i % 2 ? 2 : 3)));
    }
    topo.setRoot(topo.chainOf(comps));
    ComposedPredictor cp(std::move(topo), 4);
    QueryState q = query(cp);
    for (unsigned d = 1; d <= 3; ++d)
        EXPECT_NO_FATAL_FAILURE(cp.evaluateStage(q, d));
    EXPECT_EQ(cp.components().size(), 6u);
    EXPECT_EQ(cp.totalMetaBits(), 6u * 8);
}

TEST(ComposerEdge, SlowComponentBelowFastOne)
{
    // FAST2 > SLOW3: the slow component's stage-3 output becomes the
    // fast one's pass-through *input*; where the fast one provided at
    // stage 2, its value stays final.
    Topology topo;
    auto* fast = topo.make<Hbim>("FAST", bim(2));
    auto* slow = topo.make<Hbim>("SLOW", bim(3));
    topo.setRoot(topo.chainOf({fast, slow}));
    ComposedPredictor cp(std::move(topo), 4);
    QueryState q = query(cp);
    cp.evaluateStage(q, 1);
    const PredictionBundle s2 = cp.evaluateStage(q, 2);
    const PredictionBundle s3 = cp.evaluateStage(q, 3);
    // The fast HBIM provides direction for all slots at stage 2; the
    // slow one cannot override it at stage 3 (lower priority).
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(s2.slots[i].taken, s3.slots[i].taken) << i;
        EXPECT_TRUE(s3.slots[i].valid);
    }
}

TEST(ComposerEdge, ValidSlotsLimitRespected)
{
    Topology topo;
    auto* a = topo.make<Hbim>("A", bim(2));
    topo.setRoot(topo.leaf(a));
    ComposedPredictor cp(std::move(topo), 4);
    QueryState q;
    q.reset(0x1000, /*valid_slots=*/2, 1, 4);
    HistoryRegister gh(64);
    q.captureHistory(gh, 0);
    cp.evaluateStage(q, 1);
    const PredictionBundle b = cp.evaluateStage(q, 2);
    EXPECT_TRUE(b.slots[0].valid);
    EXPECT_TRUE(b.slots[1].valid);
    EXPECT_FALSE(b.slots[2].valid);
    EXPECT_FALSE(b.slots[3].valid);
}

TEST(ComposerEdge, BundleHelpers)
{
    PredictionBundle b;
    b.width = 4;
    EXPECT_EQ(b.firstTakenSlot(), 4u);
    EXPECT_FALSE(b.anyTaken());
    b.slots[2].valid = true;
    b.slots[2].taken = true;
    EXPECT_EQ(b.firstTakenSlot(), 2u);
    EXPECT_TRUE(b.anyTaken());
    b.clear();
    EXPECT_FALSE(b.anyTaken());
}

TEST(ComposerEdge, DiffAndPatchRoundTrip)
{
    PredictionSlot before;
    PredictionSlot after = before;
    after.valid = true;
    after.taken = true;
    after.targetValid = true;
    after.target = 0x42;
    const std::uint8_t mask = diffSlots(before, after);
    EXPECT_TRUE(mask & kProvideDir);
    EXPECT_TRUE(mask & kProvideTarget);
    EXPECT_FALSE(mask & kProvideType);

    PredictionSlot replay;
    applySlotPatch(replay, after, mask);
    EXPECT_TRUE(replay.valid);
    EXPECT_TRUE(replay.taken);
    EXPECT_EQ(replay.target, 0x42u);
}

} // namespace
} // namespace cobra::bpu
