#include <gtest/gtest.h>

#include "components/loop.hpp"
#include "test_util.hpp"

namespace cobra::comps {
namespace {

LoopParams
smallLoop()
{
    LoopParams p;
    p.entries = 32;
    p.latency = 3;
    p.fetchWidth = 4;
    return p;
}

/**
 * Drives the loop predictor through the full speculative protocol:
 * predict -> fire (speculative count advance) -> update at commit,
 * with mispredict on wrong predictions.
 */
class LoopDriver
{
  public:
    LoopDriver(LoopPredictor& lp, Addr pc, unsigned slot)
        : lp_(lp), pc_(pc), slot_(slot), gh_(64)
    {
    }

    bool
    round(bool actual, bool baseTaken = true)
    {
        bpu::PredictContext ctx;
        ctx.pc = pc_;
        ctx.validSlots = 4;
        ctx.ghist = &gh_;
        bpu::PredictionBundle b;
        b.width = 4;
        b.slots[slot_].valid = true;
        b.slots[slot_].taken = baseTaken;
        bpu::Metadata meta{};
        lp_.predict(ctx, b, meta);
        const bool pred = b.slots[slot_].valid && b.slots[slot_].taken;

        bpu::FireEvent fev;
        fev.pc = pc_;
        fev.finalPred = &b;
        fev.ghist = &gh_;
        fev.meta = &meta;
        lp_.fire(fev);

        bpu::ResolveEvent ev;
        ev.pc = pc_;
        ev.ghist = &gh_;
        ev.meta = &meta;
        ev.brMask[slot_] = true;
        ev.takenMask[slot_] = actual;
        ev.cfiValid = actual;
        ev.cfiIdx = slot_;
        ev.cfiType = bpu::CfiType::Br;
        ev.cfiTaken = actual;
        ev.mispredicted = pred != actual;
        ev.predicted = &b;
        if (ev.mispredicted)
            lp_.mispredict(ev);
        lp_.update(ev);
        gh_.push(actual);
        return pred;
    }

    LoopPredictor& lp_;
    Addr pc_;
    unsigned slot_;
    HistoryRegister gh_;
};

TEST(LoopPredictor, LearnsFixedTrip)
{
    LoopPredictor lp("LOOP", smallLoop());
    LoopDriver drv(lp, 0x9000, 1);
    const auto outs = test::loopOutcomes(12, 400);
    int correct = 0, total = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const bool p = drv.round(outs[i]);
        if (i > outs.size() / 2) {
            ++total;
            correct += p == outs[i];
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.99);
}

TEST(LoopPredictor, IgnoresShortTrips)
{
    LoopParams p = smallLoop();
    p.minTrip = 4;
    LoopPredictor lp("LOOP", p);
    LoopDriver drv(lp, 0x9000, 0);
    // Trip-2 loop: below minTrip, the predictor must pass through
    // (base predicts taken) rather than override.
    const auto outs = test::loopOutcomes(2, 200);
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const bool pred = drv.round(outs[i]);
        if (i > 100) {
            EXPECT_TRUE(pred) << "short loops must pass through";
        }
    }
}

TEST(LoopPredictor, LosesConfidenceOnIrregularLoop)
{
    LoopPredictor lp("LOOP", smallLoop());
    LoopDriver drv(lp, 0x9000, 0);
    // Alternate trips 6 and 9: confidence can never persist, so after
    // warmup the predictor must mostly pass through (base: taken).
    std::vector<bool> outs;
    for (int it = 0; it < 150; ++it) {
        const unsigned trip = it % 2 == 0 ? 6 : 9;
        for (unsigned k = 0; k < trip; ++k)
            outs.push_back(k + 1 < trip);
    }
    int overrides = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const bool pred = drv.round(outs[i]);
        if (i > outs.size() / 2 && pred != true)
            ++overrides; // predicted an exit => confident override
    }
    // It may occasionally gain confidence but must not predict exits
    // regularly (< one per loop run on average).
    EXPECT_LT(overrides, 75);
}

TEST(LoopPredictor, RepairRestoresSpeculativeCount)
{
    LoopPredictor lp("LOOP", smallLoop());
    LoopDriver drv(lp, 0x9000, 0);
    // Train to confidence on a trip-8 loop.
    const auto outs = test::loopOutcomes(8, 200);
    for (bool o : outs)
        drv.round(o);

    // Speculatively fire twice beyond the architectural point, then
    // deliver repairs with the stored metadata; the next prediction
    // sequence must continue correctly.
    bpu::PredictContext ctx;
    ctx.pc = 0x9000;
    ctx.validSlots = 4;
    ctx.ghist = &drv.gh_;
    std::vector<bpu::Metadata> metas(2);
    for (int k = 0; k < 2; ++k) {
        bpu::PredictionBundle b;
        b.width = 4;
        b.slots[0].valid = true;
        b.slots[0].taken = true;
        lp.predict(ctx, b, metas[k]);
        bpu::FireEvent fev;
        fev.pc = 0x9000;
        fev.finalPred = &b;
        fev.ghist = &drv.gh_;
        fev.meta = &metas[k];
        lp.fire(fev);
    }
    // Walk repair youngest-first (the §IV-B2 forwards-walk order).
    for (int k = 1; k >= 0; --k) {
        bpu::ResolveEvent ev;
        ev.pc = 0x9000;
        ev.ghist = &drv.gh_;
        ev.meta = &metas[k];
        ev.brMask[0] = true;
        lp.repair(ev);
    }
    // Resume the loop where it architecturally was: accuracy holds.
    int correct = 0;
    const auto more = test::loopOutcomes(8, 50);
    for (bool o : more)
        correct += drv.round(o) == o;
    EXPECT_GT(correct / 400.0, 0.95);
}

TEST(LoopPredictor, MispredictDropsConfidence)
{
    LoopPredictor lp("LOOP", smallLoop());
    LoopDriver drv(lp, 0x9000, 0);
    const auto outs = test::loopOutcomes(10, 150);
    for (bool o : outs)
        drv.round(o);
    // Force a surprise outcome: trip suddenly shortens.
    drv.round(true);
    drv.round(true);
    drv.round(false); // early exit => mispredict while confident
    // Immediately after, the predictor must stop overriding.
    bpu::PredictContext ctx;
    ctx.pc = 0x9000;
    ctx.validSlots = 4;
    ctx.ghist = &drv.gh_;
    bpu::PredictionBundle b;
    b.width = 4;
    b.slots[0].valid = true;
    b.slots[0].taken = true;
    bpu::Metadata meta{};
    lp.predict(ctx, b, meta);
    EXPECT_TRUE(b.slots[0].taken)
        << "after a loop mispredict the entry must lose confidence";
}

TEST(LoopPredictor, StorageAccounting)
{
    LoopPredictor lp("LOOP", smallLoop());
    EXPECT_GT(lp.storageBits(), 0u);
    EXPECT_EQ(lp.metaBits(), 1u + 10);
}

} // namespace
} // namespace cobra::comps
