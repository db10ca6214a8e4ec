/**
 * @file
 * Pinned detailed-core outputs. Every other exactness suite compares
 * COBRA with itself; this one holds the backend scheduler to a
 * committed table recorded before its wakeup-and-select rewrite. Each
 * row is one run's SimResult plus the backend's issue and dispatch-
 * stall counters and the frontend's bubble and finalize-stall
 * counters, over the presets with SFB off and on, two ghist repair
 * modes with SFB, and a stress core that forces port contention,
 * full-queue stalls and same-cycle wakeup. A reordering of issue,
 * wakeup or cache access shows up as a diff, and so does a stall
 * cycle credited to the wrong counter; a mismatch prints the run's
 * row in table form.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

using namespace cobra;

namespace {

/** One pinned run. */
struct Row
{
    const char* name;
    std::uint64_t cycles, insts, condBranches, cfis, condMispredicts,
        jalrMispredicts, sfbConversions, ghistReplays, packetsKilled;
    std::uint64_t issued, stallRob, stallIq, stallLdq, stallStq;
    std::uint64_t fetchBubbles, stallHistfile, stallFetchbuffer;
    std::uint64_t ticked;
};

// The first two lines of each row were recorded with the scan
// scheduler that predates wakeup and select; the third with the loop
// that ticked every cycle, before idle cycles were skipped; the last
// with the skip.
// Columns: cycles, insts, condBranches, cfis, condMispredicts,
// jalrMispredicts, sfbConversions, ghistReplays, packetsKilled; then
// issued, stall_rob, stall_iq, stall_ldq, stall_stq; then
// fetch_bubbles, stall_histfile, stall_fetchbuffer; then ticked, the
// cycles the loop evaluated (Simulator::tickedCycles). It is exact, so
// a unit whose idle predicate turns conservative fails here although
// every simulated output still matches.
// clang-format off
const Row kPinned[] = {
    {"Tournament/leela",
     79283, 20002, 2294, 2716, 207, 25, 0, 819, 6319,
     24674, 45634, 16262, 12721, 612,
     70618, 4458, 64978,
     19935},
    {"Tournament/leela/sfb",
     79569, 19999, 2245, 2712, 188, 25, 51, 807, 6087,
     24421, 45890, 17019, 12576, 525,
     71398, 4274, 65942,
     19504},
    {"Tournament/mcf",
     158918, 20002, 1917, 2375, 129, 59, 0, 390, 5404,
     24732, 9499, 39389, 114021, 2560,
     159008, 128, 158351,
     22864},
    {"Tournament/mcf/sfb",
     158400, 19999, 1873, 2371, 102, 52, 48, 389, 4977,
     24367, 9367, 39918, 114155, 2391,
     159494, 128, 158837,
     21840},
    {"B2/leela",
     79331, 20002, 2294, 2716, 186, 28, 0, 941, 6206,
     24524, 46280, 16317, 12889, 646,
     71179, 2610, 67842,
     19461},
    {"B2/leela/sfb",
     78784, 20000, 2230, 2713, 167, 27, 82, 953, 6022,
     24140, 45900, 16914, 12729, 628,
     71204, 2552, 67910,
     19008},
    {"B2/mcf",
     159041, 20002, 1917, 2375, 145, 52, 0, 517, 5487,
     24638, 9420, 39378, 113723, 3066,
     159060, 124, 158407,
     23109},
    {"B2/mcf/sfb",
     158568, 20000, 1856, 2369, 112, 45, 70, 497, 5098,
     24390, 9666, 40191, 113438, 2560,
     159466, 124, 158813,
     22211},
    {"TAGE-L/leela",
     78767, 20002, 2294, 2716, 196, 20, 0, 827, 5799,
     24331, 46209, 16122, 12577, 612,
     70687, 4594, 65198,
     19451},
    {"TAGE-L/leela/sfb",
     79077, 20001, 2233, 2713, 185, 27, 78, 839, 5937,
     24684, 46081, 16928, 12292, 506,
     70796, 4906, 65158,
     19846},
    {"TAGE-L/mcf",
     160340, 20002, 1917, 2375, 116, 61, 0, 528, 4632,
     24950, 10262, 38047, 116010, 2724,
     161225, 137, 160561,
     22573},
    {"TAGE-L/mcf/sfb",
     160281, 19999, 1861, 2370, 96, 54, 74, 532, 4434,
     24711, 9805, 38633, 116406, 2388,
     161601, 137, 160937,
     22150},
    {"REF-BIG/leela",
     74969, 19998, 2294, 2716, 189, 29, 0, 848, 6262,
     25798, 0, 4897, 42177, 4028,
     65970, 24047, 40848,
     20266},
    {"REF-BIG/leela/sfb",
     75500, 19999, 2233, 2713, 182, 30, 87, 849, 6238,
     25951, 0, 4896, 43078, 3918,
     66597, 23651, 41876,
     20370},
    {"REF-BIG/mcf",
     153392, 20000, 1916, 2374, 109, 53, 0, 572, 3115,
     25016, 0, 4221, 149105, 6359,
     155085, 6606, 147837,
     20722},
    {"REF-BIG/mcf/sfb",
     153046, 20001, 1861, 2370, 92, 55, 83, 555, 2973,
     24830, 0, 4797, 148982, 5949,
     155121, 6862, 147617,
     20420},
    {"TAGE-L/leela/sfb/none",
     79452, 20001, 2233, 2713, 214, 18, 77, 0, 5573,
     24708, 45638, 16818, 12829, 589,
     71196, 5284, 65002,
     19921},
    {"TAGE-L/leela/sfb/repair-only",
     79445, 20001, 2233, 2713, 213, 21, 80, 0, 5614,
     24695, 45839, 16691, 12791, 587,
     71243, 4830, 65503,
     19842},
    {"TAGE-L/gcc/stress",
     208485, 20002, 2148, 2585, 244, 47, 0, 1358, 5012,
     22407, 96378, 47712, 83585, 714,
     217898, 0, 213853,
     25781},
    {"TAGE-L/gcc/stress/sfb",
     208616, 20001, 2122, 2582, 237, 46, 23, 1352, 4958,
     22399, 96255, 47696, 83901, 714,
     218149, 0, 214268,
     25647},
    {"TAGE-L/x264/stress",
     155906, 19998, 2591, 2668, 78, 0, 0, 306, 1342,
     22151, 99218, 20963, 50195, 84,
     164098, 0, 163367,
     21099},
    {"TAGE-L/x264/stress/sfb",
     155907, 19998, 2588, 2668, 78, 0, 3, 306, 1342,
     22151, 99219, 20963, 50195, 84,
     164099, 0, 163368,
     21096},
};
// clang-format on

struct Case
{
    sim::Design design;
    const char* workload;
    bool sfb = false;
    bpu::GhistRepairMode ghist = bpu::GhistRepairMode::RepairAndReplay;
    bool stress = false;
};

std::string
caseName(const Case& c)
{
    std::string n =
        std::string(sim::designName(c.design)) + "/" + c.workload;
    if (c.stress)
        n += "/stress";
    if (c.sfb)
        n += "/sfb";
    if (c.ghist != bpu::GhistRepairMode::RepairAndReplay)
        n += std::string("/") + bpu::ghistRepairModeName(c.ghist);
    return n;
}

std::string
rowText(const Row& r)
{
    std::ostringstream os;
    os << "{\"" << r.name << "\",\n     " << r.cycles << ", " << r.insts
       << ", " << r.condBranches << ", " << r.cfis << ", "
       << r.condMispredicts << ", " << r.jalrMispredicts << ", "
       << r.sfbConversions << ", " << r.ghistReplays << ", "
       << r.packetsKilled << ",\n     " << r.issued << ", "
       << r.stallRob << ", " << r.stallIq << ", " << r.stallLdq << ", "
       << r.stallStq << ",\n     " << r.fetchBubbles << ", "
       << r.stallHistfile << ", " << r.stallFetchbuffer << ",\n     "
       << r.ticked << "},";
    return os.str();
}

void
checkPinned(const std::vector<Case>& cases)
{
    static prog::WorkloadCache workloads;
    for (const Case& c : cases) {
        const std::string name = caseName(c);
        sim::SimConfig cfg = sim::makeConfig(c.design);
        cfg.warmupInsts = 2'000;
        cfg.maxInsts = 20'000;
        cfg.backend.sfbEnabled = c.sfb;
        cfg.bpu.ghistMode = c.ghist;
        if (c.stress)
            test::useStressCore(cfg);

        sim::Simulator s(workloads.get(c.workload),
                         sim::buildTopology(c.design), cfg);
        const sim::SimResult r = s.run();
        const StatGroup& be = s.backend().stats();
        const StatGroup& fe = s.frontend().stats();
        const Row got{name.c_str(),
                      r.cycles,
                      r.insts,
                      r.condBranches,
                      r.cfis,
                      r.condMispredicts,
                      r.jalrMispredicts,
                      r.sfbConversions,
                      r.ghistReplays,
                      r.packetsKilled,
                      be.get("issued"),
                      be.get("stall_rob"),
                      be.get("stall_iq"),
                      be.get("stall_ldq"),
                      be.get("stall_stq"),
                      fe.get("fetch_bubbles"),
                      fe.get("stall_histfile"),
                      fe.get("stall_fetchbuffer"),
                      s.tickedCycles()};

        const Row* want = nullptr;
        for (const Row& p : kPinned)
            if (name == p.name)
                want = &p;
        if (want == nullptr) {
            ADD_FAILURE() << "no pinned row; this run gives\n    "
                          << rowText(got);
            continue;
        }
        // Fields the table does not carry must keep their defaults:
        // no deadlock, no faults, no audit, no diagnostics.
        sim::SimResult pinned;
        pinned.cycles = want->cycles;
        pinned.insts = want->insts;
        pinned.condBranches = want->condBranches;
        pinned.cfis = want->cfis;
        pinned.condMispredicts = want->condMispredicts;
        pinned.jalrMispredicts = want->jalrMispredicts;
        pinned.sfbConversions = want->sfbConversions;
        pinned.ghistReplays = want->ghistReplays;
        pinned.packetsKilled = want->packetsKilled;
        std::string diff;
        for (const std::string& f : sim::diffFields(r, pinned))
            diff += " " + f;
        EXPECT_TRUE(diff.empty() && got.issued == want->issued &&
                    got.stallRob == want->stallRob &&
                    got.stallIq == want->stallIq &&
                    got.stallLdq == want->stallLdq &&
                    got.stallStq == want->stallStq &&
                    got.fetchBubbles == want->fetchBubbles &&
                    got.stallHistfile == want->stallHistfile &&
                    got.stallFetchbuffer == want->stallFetchbuffer &&
                    got.ticked == want->ticked)
            << name << " differs from its pinned row (SimResult:"
            << (diff.empty() ? " equal" : diff) << ")\n  pinned "
            << rowText(*want) << "\n  got    " << rowText(got);
    }
}

} // namespace

TEST(SchedulerPin, PresetsWithSfbOffAndOn)
{
    std::vector<Case> cases;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig})
        for (const char* w : {"leela", "mcf"})
            for (bool sfb : {false, true})
                cases.push_back(Case{d, w, sfb});
    checkPinned(cases);
}

TEST(SchedulerPin, GhistRepairModesWithSfb)
{
    checkPinned({
        Case{sim::Design::TageL, "leela", true, bpu::GhistRepairMode::None},
        Case{sim::Design::TageL, "leela", true,
             bpu::GhistRepairMode::RepairOnly},
    });
}

TEST(SchedulerPin, StressCore)
{
    std::vector<Case> cases;
    for (const char* w : {"gcc", "x264"})
        for (bool sfb : {false, true})
            cases.push_back(Case{sim::Design::TageL, w, sfb,
                                 bpu::GhistRepairMode::RepairAndReplay,
                                 true});
    checkPinned(cases);
}
