#include <gtest/gtest.h>

#include "program/workload.hpp"

namespace cobra::prog {
namespace {

TEST(WorkloadLibrary, Specint17Complete)
{
    const auto names = WorkloadLibrary::specint17();
    ASSERT_EQ(names.size(), 10u);
    for (const auto& n : names)
        EXPECT_NO_THROW(WorkloadLibrary::profile(n)) << n;
}

TEST(WorkloadLibrary, AblationProxiesPresent)
{
    EXPECT_NO_THROW(WorkloadLibrary::profile("dhrystone"));
    EXPECT_NO_THROW(WorkloadLibrary::profile("coremark"));
}

TEST(WorkloadLibrary, UnknownThrows)
{
    EXPECT_THROW(WorkloadLibrary::profile("nonesuch"),
                 std::out_of_range);
}

TEST(Workload, BuildDeterministic)
{
    const auto prof = WorkloadLibrary::profile("gcc");
    const Program a = buildWorkload(prof);
    const Program b = buildWorkload(prof);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto& ia = a.at(a.pcOf(i));
        const auto& ib = b.at(b.pcOf(i));
        ASSERT_EQ(ia.op, ib.op) << i;
        ASSERT_EQ(ia.target, ib.target) << i;
    }
}

TEST(Workload, SeedChangesLayout)
{
    auto prof = WorkloadLibrary::profile("gcc");
    const Program a = buildWorkload(prof);
    prof.seed ^= 0x1234567;
    const Program b = buildWorkload(prof);
    // Same shape parameters but different sampled content.
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a.at(a.pcOf(i)).op != b.at(b.pcOf(i)).op;
    EXPECT_TRUE(differs);
}

TEST(Workload, EveryProfileBuildsValidProgram)
{
    for (const auto& name : WorkloadLibrary::all()) {
        const Program p = buildWorkload(WorkloadLibrary::profile(name));
        EXPECT_GT(p.size(), 50u) << name;
        EXPECT_TRUE(p.contains(p.entry())) << name;
        EXPECT_GT(p.countOpClass(OpClass::CondBranch), 5u) << name;
        // Every direct CF target must be inside the image.
        for (std::size_t i = 0; i < p.size(); ++i) {
            const auto& si = p.at(p.pcOf(i));
            if (si.target != kInvalidAddr) {
                EXPECT_TRUE(p.contains(si.target))
                    << name << " @" << i;
            }
            if (si.op == OpClass::CondBranch) {
                EXPECT_NE(si.behaviorId, kNoBehavior) << name;
            }
        }
    }
}

TEST(Workload, IndirectTargetsResolved)
{
    const Program p =
        buildWorkload(WorkloadLibrary::profile("omnetpp"));
    std::size_t sites = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const auto& si = p.at(p.pcOf(i));
        if (si.op != OpClass::IndirectJump)
            continue;
        ++sites;
        const auto& b = p.indirectBehavior(si.behaviorId);
        EXPECT_FALSE(b.targets.empty());
        for (Addr t : b.targets)
            EXPECT_TRUE(p.contains(t));
    }
    EXPECT_GT(sites, 0u) << "omnetpp should contain switches";
}

TEST(Workload, MemStreamsAttached)
{
    const Program p = buildWorkload(WorkloadLibrary::profile("mcf"));
    EXPECT_GT(p.numMemStreams(), 0u);
    std::size_t loadsWithStreams = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const auto& si = p.at(p.pcOf(i));
        if (si.op == OpClass::Load && si.memStreamId != kNoMemStream)
            ++loadsWithStreams;
    }
    EXPECT_GT(loadsWithStreams, 0u);
}

TEST(Workload, CoremarkHammockHeavy)
{
    const Program p =
        buildWorkload(WorkloadLibrary::profile("coremark"));
    std::size_t sfbEligible = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
        sfbEligible += p.at(p.pcOf(i)).sfbEligible;
    EXPECT_GT(sfbEligible, 10u)
        << "the SFB showcase needs short hammocks";
}

} // namespace
} // namespace cobra::prog
