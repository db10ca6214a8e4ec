/**
 * @file
 * Implements the paper's §VI-A future-work item: predictor access
 * energy ("the energy cost of continuously reading predictor SRAMs
 * is significant" [36]). Runs each design and reports access energy
 * per kilo-instruction broken down by sub-component, exposing the
 * accuracy-vs-energy trade the paper says it plans to tune.
 */

#include <iostream>

#include "bench_util.hpp"
#include "program/workload.hpp"
#include "sim/simulator.hpp"

using namespace cobra;

int
main()
{
    bench::Sweep sweep("energy");
    const phys::EnergyModel model;

    std::cout << "== §VI-A (future work): predictor access energy "
                 "==\n\n";

    const std::vector<sim::Design> designs = sim::paperDesigns();
    std::vector<std::size_t> handles;
    // The energy report needs the live Simulator, so each point's
    // execute hook gathers it into the point's own slot.
    std::vector<phys::EnergyReport> reports(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        sim::SweepPoint p =
            sim::SweepPoint::preset(designs[i], sweep.workload("gcc"));
        p.execute = [&reports, &model, i](sim::Simulator& s) {
            const sim::SimResult r = s.run();
            reports[i] = s.bpu().energyReport(model);
            return r;
        };
        handles.push_back(sweep.add(std::move(p)));
    }
    sweep.run();

    TextTable t;
    t.addRow({"Design", "nJ / kilo-inst", "accuracy", "top consumer"});

    struct Summary
    {
        std::string design;
        double njPerKi = 0;
    };
    std::vector<Summary> sums;

    for (std::size_t i = 0; i < designs.size(); ++i) {
        const sim::Design d = designs[i];
        const auto& r = sweep.res(handles[i]);
        const phys::EnergyReport& er = reports[i];
        const double njPerKi =
            er.totalPj() / 1000.0 / (r.insts / 1000.0);
        std::string top = "?";
        double topPj = -1;
        for (const auto& item : er.items) {
            if (item.pj > topPj) {
                topPj = item.pj;
                top = item.name;
            }
        }
        sums.push_back({sim::designName(d), njPerKi});

        t.beginRow();
        t.cell(sim::designName(d));
        t.cell(njPerKi, 2);
        t.cell(r.accuracy(), 4);
        t.cell(top + " (" +
               formatDouble(100 * topPj / er.totalPj(), 0) + "%)");

        std::cout << sim::designName(d) << " breakdown (pJ):\n";
        for (const auto& item : er.items)
            std::cout << "  " << item.name << ": "
                      << formatDouble(item.pj / 1e6, 2) << " uJ\n";
        std::cout << "\n";
    }
    t.print(std::cout);
    std::cout << "\n";

    auto get = [&](const std::string& n) {
        for (const auto& s : sums)
            if (s.design == n)
                return s.njPerKi;
        return 0.0;
    };
    bool ok = true;
    ok &= bench::shapeCheck(
        "the accurate TAGE-L pays the most access energy (its 7 "
        "tagged tables are read every fetch)",
        get("TAGE-L") > get("B2") && get("TAGE-L") > get("Tournament"));
    return sweep.finish(ok);
}
