/**
 * @file
 * A §VI-B-style speculation study: runs the same workload under the
 * three global-history repair policies and reports the speculative
 * machinery at work — wrong-path fetch, re-steers, history replays,
 * repair-walk events — the phenomena the paper argues trace-based
 * simulators cannot capture.
 */

#include <iostream>

#include "common/table.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

using namespace cobra;

int
main(int argc, char** argv)
{
    const std::string wl = argc > 1 ? argv[1] : "leela";
    const prog::Program program =
        prog::buildWorkload(prog::WorkloadLibrary::profile(wl));
    std::cout << "Speculation study on '" << wl << "' with TAGE-L\n\n";

    TextTable t;
    t.addRow({"ghist policy", "IPC", "accuracy", "MPKI", "replays",
              "packets killed", "repair events"});

    for (bpu::GhistRepairMode mode :
         {bpu::GhistRepairMode::None, bpu::GhistRepairMode::RepairOnly,
          bpu::GhistRepairMode::RepairAndReplay}) {
        sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
        cfg.bpu.ghistMode = mode;
        cfg.maxInsts = 200'000;
        cfg.warmupInsts = 50'000;
        sim::Simulator s(program,
                         sim::buildTopology(sim::Design::TageL), cfg);
        const auto r = s.run();

        t.beginRow();
        t.cell(bpu::ghistRepairModeName(mode));
        t.cell(r.ipc(), 3);
        t.cell(r.accuracy(), 4);
        t.cell(r.mpki(), 2);
        t.cell(r.ghistReplays);
        t.cell(r.packetsKilled);
        t.cell(s.bpu().stats().get("repair_events"));
    }
    t.print(std::cout);

    std::cout
        << "\nWrong-path fetch really happens in this model: after a\n"
           "mispredict, fetch continues down the wrong path, firing\n"
           "speculative updates into the predictors until the branch\n"
           "resolves; the history file's snapshots and the forwards-\n"
           "walk repair machinery then restore the state (paper "
           "§IV-B).\n";
    return 0;
}
