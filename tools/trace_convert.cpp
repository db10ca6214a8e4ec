/**
 * @file
 * trace_convert: import external branch-trace corpora into the COBRA
 * binary container (CBTR), and inspect existing traces.
 *
 * Usage:
 *   trace_convert --in PATH --out PATH [--format cbp|alpha-bz2]
 *                 [--name NAME] [--fetch-width N]
 *   trace_convert --dump PATH [--limit N]
 *
 * Import formats (see src/trace/convert.hpp):
 *   cbp        CBP-style text records: `<hex pc> <0|1|N|T|n|t>` per
 *              line (the int_1 / fp_1 / mm_1 corpus)
 *   alpha-bz2  the same records, bzip2-compressed on disk (the
 *              `bunzip2 -kc <trace> | ./predictor` Alpha corpus);
 *              needs a build with libbz2
 *
 * Imported traces are TraceKind::External: they drive the idealized
 * trace-driven evaluator, not full-core replay (which needs
 * `cobra_sim --capture-trace`). Malformed input is a structured
 * error (exit 1); bad flag combinations exit 2.
 */

#include <iostream>
#include <string>

#include "cli_flags.hpp"
#include "trace/convert.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"

using namespace cobra;

namespace {

void
usage()
{
    std::cout <<
        "trace_convert — import/inspect COBRA binary branch traces\n"
        "\n"
        "  --in PATH         input trace file to convert\n"
        "  --out PATH        output .cbtr path\n"
        "  --format F        cbp | alpha-bz2 (default: cbp, or\n"
        "                    alpha-bz2 when --in ends in .bz2)\n"
        "  --name NAME       trace name stored in the header\n"
        "                    (default: --in basename)\n"
        "  --fetch-width N   slot derivation width, 1..8 (default 4)\n"
        "  --dump PATH       print a .cbtr header and records instead\n"
        "  --limit N         max records to print with --dump\n"
        "                    (default 20; 0 = all)\n";
}

std::string
basenameOf(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string b =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = b.find('.');
    return dot == std::string::npos ? b : b.substr(0, dot);
}

const char*
kindName(trace::TraceKind k)
{
    switch (k) {
      case trace::TraceKind::CapturedOracle:
        return "captured-oracle";
      case trace::TraceKind::External:
        return "external";
    }
    return "?";
}

const char*
typeName(trace::RecordType t)
{
    switch (t) {
      case trace::RecordType::Cond:
        return "cond";
      case trace::RecordType::IndirectJump:
        return "jmp ";
      case trace::RecordType::IndirectCall:
        return "call";
    }
    return "?";
}

int
dumpTrace(const std::string& path, std::uint64_t limit)
{
    trace::TraceReader reader(path);
    const trace::TraceMeta& m = reader.meta();
    std::cout << "trace:    " << path << "\n"
              << "name:     " << m.name << "\n"
              << "kind:     " << kindName(m.kind) << "\n"
              << "records:  " << m.recordCount << " (" << m.condCount
              << " conditional)\n"
              << "blocks:   " << reader.blockCount() << "\n"
              << "fetchw:   " << unsigned(m.fetchWidth) << "\n";
    if (m.kind == trace::TraceKind::CapturedOracle) {
        std::cout << "seed:     0x" << std::hex << m.oracleSeed
                  << std::dec << "\n"
                  << "program:  0x" << std::hex << m.programFingerprint
                  << std::dec << "\n"
                  << "insts:    " << m.sourceInsts
                  << " (guaranteed replay budget)\n";
    }
    if (m.recordCount == 0 || limit == 0)
        return 0;
    std::cout << "\n";
    trace::DecodedBlock blk;
    std::uint64_t printed = 0;
    for (std::size_t b = 0; b < reader.blockCount(); ++b) {
        reader.decodeBlock(b, blk);
        for (std::size_t i = 0; i < blk.pc.size(); ++i) {
            const auto t = trace::DecodedBlock::typeOf(blk.meta[i]);
            std::cout << typeName(t) << " 0x" << std::hex << blk.pc[i]
                      << std::dec;
            if (t == trace::RecordType::Cond) {
                std::cout << (trace::DecodedBlock::takenOf(blk.meta[i])
                                  ? " T"
                                  : " N");
            }
            if (blk.target[i] != kInvalidAddr)
                std::cout << " -> 0x" << std::hex << blk.target[i]
                          << std::dec;
            std::cout << "\n";
            if (++printed >= limit) {
                if (printed < m.recordCount)
                    std::cout << "... (" << (m.recordCount - printed)
                              << " more; --limit 0 prints all)\n";
                return 0;
            }
        }
    }
    return 0;
}

int
runMain(int argc, char** argv)
{
    std::string inPath, outPath, dumpPath, name, format;
    unsigned fetchWidth = 4;
    std::uint64_t limit = 20;
    bool limitSet = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    throw std::runtime_error("missing value for " + a);
                return argv[i];
            };
            if (a == "--in")
                inPath = next();
            else if (a == "--out")
                outPath = next();
            else if (a == "--format")
                format = next();
            else if (a == "--name")
                name = next();
            else if (a == "--fetch-width")
                fetchWidth = cli::parseUnsigned(a, next());
            else if (a == "--dump")
                dumpPath = next();
            else if (a == "--limit") {
                limit = cli::parseU64(a, next());
                limitSet = true;
            } else if (a == "--help" || a == "-h") {
                usage();
                return 0;
            } else {
                throw std::runtime_error("unknown option: " + a);
            }
        }
        if (!dumpPath.empty()) {
            if (!inPath.empty() || !outPath.empty())
                throw std::runtime_error(
                    "--dump cannot be combined with --in/--out");
        } else {
            if (inPath.empty() || outPath.empty())
                throw std::runtime_error(
                    "--in and --out are both required (or --dump)");
            if (limitSet)
                throw std::runtime_error("--limit only applies to "
                                         "--dump");
        }
        if (fetchWidth < 1 || fetchWidth > 8)
            throw std::runtime_error("--fetch-width must be 1..8");
        if (format.empty()) {
            format = inPath.size() >= 4 &&
                             inPath.substr(inPath.size() - 4) == ".bz2"
                         ? "alpha-bz2"
                         : "cbp";
        }
        if (format != "cbp" && format != "alpha-bz2")
            throw std::runtime_error("unknown --format: " + format);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n\n";
        usage();
        return 2;
    }

    if (!dumpPath.empty()) {
        if (limit == 0)
            limit = ~0ull;
        return dumpTrace(dumpPath, limit);
    }

    if (name.empty())
        name = basenameOf(inPath);
    const trace::ImportStats st =
        format == "cbp"
            ? trace::convertCbpFile(inPath, outPath, name, fetchWidth)
            : trace::convertAlphaBz2File(inPath, outPath, name,
                                         fetchWidth);
    std::cout << "imported " << st.records << " branch records ("
              << st.taken << " taken) from " << st.lines
              << " lines\n"
              << "name:     " << name << "\n"
              << "trace:    " << outPath << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
