/**
 * @file
 * Quantifies the paper's §II-B methodological claim: trace-based
 * simulators "cannot model microarchitectural behaviors like
 * speculation and superscalar execution" and "demonstrate substantial
 * modelling error for branch prediction accuracy" [3], [6], [20].
 *
 * We evaluate the *identical* composed predictor pipelines two ways:
 *  - trace-driven: idealized one-branch-at-a-time evaluation with
 *    perfect instantly-updated histories (CBP-style), and
 *  - execution-driven: inside the speculating superscalar core, with
 *    wrong-path pollution, history skew, delayed commit-time updates
 *    and repair.
 * The gap is the modelling error a software trace model would make.
 */

#include <iostream>

#include "bench_util.hpp"
#include "trace/trace.hpp"

using namespace cobra;

int
main()
{
    bench::Sweep sweep("trace_vs_execution");
    const bench::RunScale scale = sweep.scale();

    std::cout << "== §II-B: trace-driven vs execution-driven accuracy "
                 "==\n\n";

    const std::vector<std::string> workloads = {"deepsjeng", "leela",
                                                "gcc", "dhrystone"};
    const std::vector<sim::Design> designs = sim::paperDesigns();

    // The execution-driven half of every comparison runs on the
    // sweep pool; the idealized trace evaluations stay on this
    // thread (they are cheap and share recorded traces per workload).
    std::vector<std::size_t> handles;
    for (const std::string& wl : workloads)
        for (sim::Design d : designs)
            handles.push_back(sweep.add(d, wl));
    sweep.run();

    TextTable t;
    t.addRow({"Workload", "Design", "trace acc", "in-core acc",
              "error (pp)"});

    std::vector<double> errors;
    std::size_t pi = 0;
    for (const std::string& wl : workloads) {
        const prog::Program& p = sweep.workload(wl);
        const trace::DecodedTrace tr = trace::recordTrace(
            p, scale.measure / 4 + scale.warmup / 4);

        for (sim::Design d : designs) {
            const unsigned ghistBits = sim::makeConfig(d).bpu.ghistBits;
            trace::TraceDrivenEvaluator ev(
                bpu::ComposedPredictor(sim::buildTopology(d), 4),
                ghistBits);
            const auto traceRes = ev.evaluate(tr, tr.size() / 4);

            const auto& coreRes = sweep.res(handles[pi++]);

            const double err =
                traceRes.accuracy() - coreRes.accuracy();
            errors.push_back(err);
            t.beginRow();
            t.cell(wl);
            t.cell(sim::designName(d));
            t.cell(traceRes.accuracy(), 4);
            t.cell(coreRes.accuracy(), 4);
            t.cell(formatDouble(100 * err, 2));
        }
    }
    t.print(std::cout);

    const double meanErr = arithmeticMean(errors);
    std::cout << "\nmean modelling error (trace - in-core): "
              << formatDouble(100 * meanErr, 2) << " pp\n"
              << "(the paper's motivation: single-digit-percent "
                 "mispredict differences are commercially valuable, "
                 "and trace models miss speculation effects of this "
                 "size)\n\n";

    bool ok = true;
    ok &= bench::shapeCheck(
        "the idealized trace model overestimates accuracy "
        "(speculation effects are invisible to it)",
        meanErr > 0.0);
    int positive = 0;
    for (double e : errors)
        positive += e > -0.001;
    ok &= bench::shapeCheck(
        "the error is pervasive across designs and workloads",
        positive >= static_cast<int>(errors.size()) - 2);
    return sweep.finish(ok);
}
