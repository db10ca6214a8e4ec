/**
 * @file
 * cobra_serve tests: the strict JSON parser, request validation, the
 * spool state machine, the write-ahead journal (including torn-tail
 * replay), the warm-state snapshot cache under poisoning, concurrent
 * WorkloadCache use, and the daemon end to end — healthy grids,
 * structured rejections, per-point timeout/retry records, priority
 * shedding, crash recovery from a journaled mid-request state, and the
 * watch loop's wake on arrival.
 */

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/journal.hpp"
#include "serve/request.hpp"
#include "serve/spool.hpp"
#include "serve/warm_cache.hpp"
#include "test_util.hpp"
#include "trace/replay.hpp"
#include "warp/snapshot.hpp"

using namespace cobra;
namespace fs = std::filesystem;

namespace {

/** A scratch directory under the system temp dir, wiped on entry. */
std::string
scratchDir(const char* leaf)
{
    const fs::path p = fs::temp_directory_path() / leaf;
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** Submit a request document the way clients must: temp + rename. */
void
submit(const serve::Spool& spool, const std::string& fname,
       const std::string& text)
{
    const std::string dst = spool.incomingDir() + "/" + fname;
    writeFile(dst + ".tmp", text);
    fs::rename(dst + ".tmp", dst);
}

/** A minimal valid request body; extra fields splice in before "}". */
std::string
smallRequest(const std::string& id, const std::string& extra = "")
{
    return "{\"id\": \"" + id + "\", \"client\": \"test\", "
           "\"designs\": [\"tagel\"], \"workloads\": [\"leela\"], "
           "\"insts\": 8000, \"warmup\": 1000" +
           (extra.empty() ? "" : ", " + extra) + "}";
}

std::string
resultText(const serve::Spool& spool, const std::string& id)
{
    return serve::readFileText(spool.resultPath(id));
}

serve::ServeConfig
onceConfig(const std::string& root)
{
    serve::ServeConfig cfg;
    cfg.spoolRoot = root;
    cfg.jobs = 2;
    cfg.once = true;
    cfg.backoffBaseMs = 1; // Keep retry tests fast.
    return cfg;
}

std::size_t
runOnce(const serve::ServeConfig& cfg)
{
    std::atomic<bool> stop{false};
    serve::Daemon daemon(cfg);
    return daemon.run(stop);
}

/** Poll @p ready every 5 ms for up to @p seconds; its last value. */
template <typename Pred>
bool
waitUntil(Pred ready, double seconds)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(ServeJson, ParsesScalarsArraysAndObjects)
{
    const serve::Json doc = serve::Json::parse(
        "{\"a\": 1, \"b\": -2.5, \"c\": true, \"d\": null, "
        "\"e\": [1, 2, 3], \"f\": {\"g\": \"hi\"}}");
    EXPECT_EQ(doc.getU64("a", 0), 1u);
    EXPECT_DOUBLE_EQ(doc.getDouble("b", 0.0), -2.5);
    EXPECT_TRUE(doc.getBool("c", false));
    ASSERT_NE(doc.find("d"), nullptr);
    EXPECT_TRUE(doc.find("d")->isNull());
    ASSERT_NE(doc.find("e"), nullptr);
    EXPECT_EQ(doc.find("e")->asArray().size(), 3u);
    EXPECT_EQ(doc.find("f")->getString("g", ""), "hi");
}

TEST(ServeJson, IntegersSurviveUntruncated)
{
    const serve::Json doc =
        serve::Json::parse("{\"big\": 9007199254740993}");
    // 2^53 + 1 is not representable as a double; the integer view is.
    EXPECT_EQ(doc.getU64("big", 0), 9007199254740993ull);
}

TEST(ServeJson, StringEscapesDecode)
{
    const serve::Json doc = serve::Json::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
    EXPECT_EQ(doc.getString("s", ""), "a\"b\\c\n\tA");
}

TEST(ServeJson, MalformedDocumentsAreStructuredErrors)
{
    const char* bad[] = {
        "",                        // empty
        "{",                       // unterminated object
        "[1, 2",                   // unterminated array
        "{\"a\": 1,}",             // trailing comma
        "{\"a\" 1}",               // missing colon
        "{\"a\": 1} extra",        // trailing content
        "{\"a\": 1, \"a\": 2}",    // duplicate key
        "\"unterminated",          // unterminated string
        "{\"a\": 01}",             // leading zero
        "nul",                     // truncated literal
        "{\"a\": \"\x01\"}",       // raw control character
    };
    for (const char* text : bad)
        EXPECT_THROW(serve::Json::parse(text), serve::JsonError)
            << "accepted: " << text;
}

TEST(ServeJson, NestingDepthIsBounded)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_THROW(serve::Json::parse(deep), serve::JsonError);
}

TEST(ServeJson, TypeMismatchesThrowNotCrash)
{
    const serve::Json doc = serve::Json::parse("{\"a\": \"text\"}");
    EXPECT_THROW(doc.find("a")->asU64(), serve::JsonError);
    EXPECT_THROW(doc.find("a")->asArray(), serve::JsonError);
    EXPECT_THROW(serve::Json::parse("{\"a\": -1}").getU64("a", 0),
                 serve::JsonError);
}

TEST(ServeJson, NonIntegerLiteralsOutsideInt64AreOutOfRange)
{
    // Written with an exponent, these are doubles; casting them to
    // int64 would be undefined behaviour. 9.3e18 is just past 2^63.
    for (const char* lit : {"1e30", "9.3e18", "-1e30"}) {
        try {
            (void)serve::Json::parse(lit).asU64(); // Reads via asInt().
            ADD_FAILURE() << "accepted " << lit;
        } catch (const serve::JsonError& e) {
            EXPECT_NE(std::string(e.what()).find("out of range"),
                      std::string::npos)
                << lit << ": " << e.what();
        }
    }
    // In range, an exponent literal is still an integer.
    EXPECT_EQ(serve::Json::parse("4e3").asU64(), 4000u);
}

// ---------------------------------------------------------------------
// Request parsing and validation
// ---------------------------------------------------------------------

namespace {

/**
 * Each document must be rejected with a message naming its field.
 * The values are 2^32 plus a valid one: a narrowing cast before the
 * range check would read 4294967298 as 2 and admit it.
 */
void
expectFieldRejected(
    const std::vector<std::pair<std::string, std::string>>& cases)
{
    for (const auto& [field, text] : cases) {
        try {
            (void)serve::SweepRequest::parse(text, "f");
            ADD_FAILURE() << "accepted oversized " << field;
        } catch (const serve::RequestError& e) {
            EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace

TEST(ServeRequest, ParsesFullDocumentWithDefaults)
{
    const serve::SweepRequest r = serve::SweepRequest::parse(
        smallRequest("r1"), "fallback");
    EXPECT_EQ(r.id, "r1");
    EXPECT_EQ(r.client, "test");
    EXPECT_EQ(r.priority, 1);
    ASSERT_EQ(r.designs.size(), 1u);
    EXPECT_EQ(r.designs[0], sim::presetSpec(sim::Design::TageL));
    EXPECT_EQ(r.workloads, std::vector<std::string>{"leela"});
    EXPECT_EQ(r.insts, 8000u);
    EXPECT_EQ(r.warmup, 1000u);
    EXPECT_FALSE(r.warp);
    EXPECT_EQ(r.maxRetries, 2u);
}

TEST(ServeRequest, FallbackIdIsTheSpoolStem)
{
    const serve::SweepRequest r = serve::SweepRequest::parse(
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"]}",
        "spool-stem");
    EXPECT_EQ(r.id, "spool-stem");
}

TEST(ServeRequest, GridIsWorkloadMajor)
{
    const serve::SweepRequest r = serve::SweepRequest::parse(
        "{\"id\": \"g\", \"client\": \"c\", "
        "\"designs\": [\"tagel\", \"b2\"], "
        "\"workloads\": [\"leela\", \"x264\"]}",
        "g");
    const auto pts = r.points();
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].label, "TAGE-L/leela");
    EXPECT_EQ(pts[1].label, "B2/leela");
    EXPECT_EQ(pts[2].label, "TAGE-L/x264");
    EXPECT_EQ(pts[3].label, "B2/x264");
}

TEST(ServeRequest, SemanticViolationsAreRejected)
{
    const char* bad[] = {
        "{\"client\": \"c\", \"designs\": [\"nope\"], "
        "\"workloads\": [\"leela\"]}", // unknown design
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"nope\"]}", // unknown workload
        "{\"designs\": [\"b2\"], \"workloads\": [\"leela\"]}", // no client
        "{\"client\": \"c\", \"designs\": [], "
        "\"workloads\": [\"leela\"]}", // empty designs
        "{\"client\": \"c\", \"designs\": [\"b2\", \"b2\"], "
        "\"workloads\": [\"leela\"]}", // duplicate design
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\", \"leela\"]}", // duplicate workload
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"], \"priority\": 7}", // bad priority
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"], \"id\": \"../x\"}", // path escape
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"], "
        "\"fault_rate\": 1.5}", // fault_rate > 1 (SimConfig::validate)
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"], "
        "\"warp\": {\"intervals\": 0}}", // bad warp block
        "not json at all",
    };
    for (const char* text : bad)
        EXPECT_THROW(serve::SweepRequest::parse(text, "f"),
                     serve::RequestError)
            << "accepted: " << text;

    const std::string head = "{\"client\": \"c\", \"designs\": [\"b2\"], "
                             "\"workloads\": [\"leela\"], ";
    expectFieldRejected({
        {"priority", head + "\"priority\": 4294967298}"},
        {"max_retries", head + "\"max_retries\": 4294967304}"},
        {"warp.intervals", head + "\"warp\": {\"intervals\": 4294967298}}"},
    });
}

TEST(ServeRequest, InlineDesignSpecResolvesLikeThePresetName)
{
    const std::string spec = sim::presetSpec("tagel").toJson();
    const serve::SweepRequest r = serve::SweepRequest::parse(
        "{\"id\": \"s\", \"client\": \"c\", \"design_spec\": " + spec +
            ", \"workloads\": [\"leela\"]}",
        "s");
    ASSERT_EQ(r.designs.size(), 1u);
    EXPECT_EQ(r.designs[0], sim::presetSpec(sim::Design::TageL));
    const auto pts = r.points();
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].label, "TAGE-L/leela");
}

TEST(ServeRequest, DesignSpecArrayConcatenatesAfterNames)
{
    const std::string spec = sim::presetSpec("b2").toJson();
    const serve::SweepRequest r = serve::SweepRequest::parse(
        "{\"id\": \"s\", \"client\": \"c\", "
        "\"designs\": [\"tagel\"], \"design_spec\": [" +
            spec + "], \"workloads\": [\"leela\"]}",
        "s");
    ASSERT_EQ(r.designs.size(), 2u);
    EXPECT_EQ(r.designs[0].name, "TAGE-L");
    EXPECT_EQ(r.designs[1].name, "B2");
}

TEST(ServeRequest, BadInlineSpecsAreRejected)
{
    const char* bad[] = {
        // Malformed spec document (unknown component kind).
        "{\"client\": \"c\", \"workloads\": [\"leela\"], "
        "\"design_spec\": {\"name\": \"x\", \"components\": "
        "[{\"id\": \"A\", \"kind\": \"nope\"}], \"tree\": \"A\"}}",
        // Duplicate name across designs and design_spec: points would
        // collide on their labels.
        "{\"client\": \"c\", \"workloads\": [\"leela\"], "
        "\"designs\": [\"b2\"], \"design_spec\": {\"name\": \"B2\", "
        "\"components\": [{\"id\": \"A\", \"kind\": \"bim\"}], "
        "\"tree\": \"A\"}}",
        // Empty design_spec array.
        "{\"client\": \"c\", \"workloads\": [\"leela\"], "
        "\"design_spec\": []}",
        // Neither designs nor design_spec.
        "{\"client\": \"c\", \"workloads\": [\"leela\"]}",
    };
    for (const char* text : bad)
        EXPECT_THROW(serve::SweepRequest::parse(text, "f"),
                     serve::RequestError)
            << "accepted: " << text;
}

TEST(ServeRequest, OutOfRangeSizingInInlineSpecIsRejected)
{
    // The daemon runs points in its own process: an empty RAS or an
    // oversized structure must stop at admission.
    for (const auto& [field, spec] : test::outOfRangeSizingSpecs()) {
        const std::string text =
            "{\"client\": \"c\", \"workloads\": [\"leela\"], "
            "\"design_spec\": " +
            spec.toJson() + "}";
        try {
            (void)serve::SweepRequest::parse(text, "f");
            ADD_FAILURE() << "admitted out-of-range " << field;
        } catch (const serve::RequestError& e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ServeRequest, SearchKindParsesIntoOnePoint)
{
    const serve::SweepRequest r = serve::SweepRequest::parse(
        "{\"id\": \"s\", \"client\": \"c\", \"kind\": \"search\", "
        "\"workloads\": [\"mcf\", \"leela\"], "
        "\"search\": {\"seed\": 9, \"pool\": 6, \"budget_kb\": 512, "
        "\"seed_evals\": 3, \"survivors\": 4}}",
        "s");
    EXPECT_EQ(r.kind, "search");
    EXPECT_TRUE(r.designs.empty());
    EXPECT_EQ(r.searchCfg.seed, 9u);
    EXPECT_EQ(r.searchCfg.pool, 6u);
    EXPECT_EQ(r.searchCfg.budget.storageKb, 512u);
    ASSERT_EQ(r.searchCfg.workloads.size(), 2u);
    EXPECT_EQ(r.searchCfg.workloads[0], "mcf");
    const auto pts = r.points();
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].label, "search");
}

TEST(ServeRequest, SearchKindRejectsIncompatibleFields)
{
    const char* bad[] = {
        // Search requests explore designs themselves.
        "{\"client\": \"c\", \"kind\": \"search\", "
        "\"workloads\": [\"mcf\"], \"designs\": [\"b2\"]}",
        // No warp block (search runs its own warp tier).
        "{\"client\": \"c\", \"kind\": \"search\", "
        "\"workloads\": [\"mcf\"], \"warp\": {}}",
        // No trace replay.
        "{\"client\": \"c\", \"kind\": \"search\", "
        "\"workloads\": [\"mcf\"], \"trace\": \"x.cbtr\"}",
        // Invalid search block (pool 0).
        "{\"client\": \"c\", \"kind\": \"search\", "
        "\"workloads\": [\"mcf\"], \"search\": {\"pool\": 0}}",
        // A search block on a sweep request is a schema error.
        "{\"client\": \"c\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"mcf\"], \"search\": {\"pool\": 4}}",
        // Unknown kind.
        "{\"client\": \"c\", \"kind\": \"census\", "
        "\"workloads\": [\"mcf\"], \"designs\": [\"b2\"]}",
    };
    for (const char* text : bad)
        EXPECT_THROW(serve::SweepRequest::parse(text, "f"),
                     serve::RequestError)
            << "accepted: " << text;

    std::vector<std::pair<std::string, std::string>> wide;
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"pool", "4294967328"},
             {"seed_evals", "4294967306"},
             {"survivors", "4294967310"},
             {"warp_survivors", "4294967301"},
             {"finalists", "4294967298"},
             {"intervals", "4294967300"}}) {
        wide.emplace_back("search." + key,
                          "{\"client\": \"c\", \"kind\": \"search\", "
                          "\"workloads\": [\"mcf\"], \"search\": {\"" +
                              key + "\": " + value + "}}");
    }
    expectFieldRejected(wide);
}

namespace {

/** @p text must be rejected with a message naming unknown @p field. */
void
expectUnknownField(const std::string& text, const std::string& field)
{
    try {
        (void)serve::SweepRequest::parse(text, "f");
        ADD_FAILURE() << "accepted unknown " << field;
    } catch (const serve::RequestError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown field '" + field +
                                             "'"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(ServeRequest, UnknownTopLevelKeyIsRejected)
{
    // Ignored, the misspelt watchdog would run the point without one.
    expectUnknownField(smallRequest("u", "\"point_timout_ms\": 500"),
                       "point_timout_ms");
}

TEST(ServeRequest, UnknownWarpKeyIsRejected)
{
    // Ignored, the misspelt sample would measure whole intervals.
    expectUnknownField(
        smallRequest("u", "\"warp\": {\"intervals\": 2, "
                          "\"sampel_insts\": 5000}"),
        "warp.sampel_insts");
}

TEST(ServeRequest, UnknownSearchKeyIsRejected)
{
    // A removed option must not pass silently either.
    expectUnknownField("{\"client\": \"c\", \"kind\": \"search\", "
                       "\"workloads\": [\"mcf\"], "
                       "\"search\": {\"pool\": 6, \"batch_eval\": false}}",
                       "search.batch_eval");
}

// ---------------------------------------------------------------------
// Spool state machine
// ---------------------------------------------------------------------

TEST(ServeSpool, LifecycleRenamesMoveTheDocument)
{
    serve::Spool spool(scratchDir("cobra_spool_lifecycle"));
    submit(spool, "r.json", "{}");
    ASSERT_EQ(spool.scanIncoming(),
              std::vector<std::string>{"r.json"});

    ASSERT_TRUE(spool.claim("r.json"));
    EXPECT_TRUE(spool.scanIncoming().empty());
    ASSERT_EQ(spool.scanActive(), std::vector<std::string>{"r.json"});

    spool.finish("r.json", /*ok=*/true);
    EXPECT_TRUE(spool.scanActive().empty());
    EXPECT_TRUE(fs::exists(spool.doneDir() + "/r.json"));

    submit(spool, "bad.json", "{");
    spool.reject("bad.json");
    EXPECT_TRUE(fs::exists(spool.failedDir() + "/bad.json"));

    EXPECT_FALSE(spool.claim("vanished.json"));
}

TEST(ServeSpool, ScansSkipTempAndForeignFiles)
{
    serve::Spool spool(scratchDir("cobra_spool_scan"));
    writeFile(spool.incomingDir() + "/half.json.tmp", "{");
    writeFile(spool.incomingDir() + "/notes.txt", "hi");
    submit(spool, "b.json", "{}");
    submit(spool, "a.json", "{}");
    EXPECT_EQ(spool.scanIncoming(),
              (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(ServeSpool, AtomicWriteLeavesNoTemp)
{
    const std::string dir = scratchDir("cobra_spool_atomic");
    for (const serve::Durability d :
         {serve::Durability::Durable, serve::Durability::Advisory}) {
        serve::writeFileAtomic(dir + "/out.json", "{\"x\": 1}\n", d);
        EXPECT_EQ(serve::readFileText(dir + "/out.json"),
                  "{\"x\": 1}\n");
        EXPECT_FALSE(fs::exists(dir + "/out.json.tmp"));
    }
}

TEST(ServeSpool, DoorbellRingsOnRenameAndDrains)
{
    using Clock = std::chrono::steady_clock;
    serve::Spool spool(scratchDir("cobra_spool_doorbell"));
    serve::IncomingWatch bell = spool.watchIncoming();
    EXPECT_FALSE(bell.wait(1)); // Nothing arrived yet.

    // Two renames before one wait: a single wake drains both.
    submit(spool, "a.json", "{}");
    submit(spool, "b.json", "{}");
    const auto t0 = Clock::now();
    EXPECT_TRUE(bell.wait(30'000));
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(10));
    EXPECT_FALSE(bell.wait(1));

    // Creating a file in place does not ring; only the rename does.
    writeFile(spool.incomingDir() + "/c.json.tmp", "{}");
    EXPECT_FALSE(bell.wait(1));
    fs::rename(spool.incomingDir() + "/c.json.tmp",
               spool.incomingDir() + "/c.json");
    EXPECT_TRUE(bell.wait(30'000));

    // Unwatchable directory: the same wait is a plain timed sleep.
    serve::IncomingWatch deaf(spool.root() + "/no-such-dir");
    const auto t1 = Clock::now();
    EXPECT_FALSE(deaf.wait(20));
    EXPECT_GE(Clock::now() - t1, std::chrono::milliseconds(20));
}

// ---------------------------------------------------------------------
// Write-ahead journal
// ---------------------------------------------------------------------

TEST(ServeJournal, AppendsReplayInOrder)
{
    const std::string dir = scratchDir("cobra_journal_basic");
    const std::string path = dir + "/journal.log";
    {
        serve::Journal j(path);
        j.append(serve::Journal::acceptLine("r1", "ci", 2, 4));
        j.append(serve::Journal::pointLine("r1", 0, "ok", "", "", 1,
                                           "FRAG"));
        j.append(serve::Journal::pointLine(
            "r1", 1, "failed", "deadlock", "no progress", 3, ""));
        j.append(serve::Journal::doneLine("r1", "failed"));
    }
    std::vector<std::string> evs;
    std::vector<std::string> extras;
    const std::size_t n = serve::Journal::replay(
        path, [&](const serve::Json& rec) {
            evs.push_back(rec.getString("ev", ""));
            extras.push_back(rec.getString("fragment", "") +
                             rec.getString("error_class", ""));
        });
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(evs, (std::vector<std::string>{"accept", "point",
                                             "point", "done"}));
    EXPECT_EQ(extras[1], "FRAG");
    EXPECT_EQ(extras[2], "deadlock");
}

TEST(ServeJournal, TornTailStopsReplayWithoutError)
{
    const std::string dir = scratchDir("cobra_journal_torn");
    const std::string path = dir + "/journal.log";
    {
        serve::Journal j(path);
        j.append(serve::Journal::acceptLine("r1", "ci", 1, 1));
        j.append(serve::Journal::pointLine("r1", 0, "ok", "", "", 1,
                                           "FRAG"));
    }
    // Simulate a crash mid-append: cut the last record short.
    std::string text = serve::readFileText(path);
    writeFile(path, text.substr(0, text.size() - 20));

    std::size_t points = 0;
    const std::size_t n = serve::Journal::replay(
        path, [&](const serve::Json& rec) {
            if (rec.getString("ev", "") == "point")
                ++points;
        });
    EXPECT_EQ(n, 1u); // The accept survived; the torn point did not.
    EXPECT_EQ(points, 0u);
    EXPECT_EQ(serve::Journal::replay(dir + "/absent.log",
                                     [](const serve::Json&) {}),
              0u);
}

TEST(ServeJournal, CheckpointAtomicallyRewrites)
{
    const std::string dir = scratchDir("cobra_journal_ckpt");
    const std::string path = dir + "/journal.log";
    serve::Journal j(path);
    for (int i = 0; i < 10; ++i)
        j.append(serve::Journal::acceptLine("old", "c", 0, 1));
    j.checkpoint({serve::Journal::acceptLine("kept", "c", 1, 2)});
    j.append(serve::Journal::doneLine("kept", "ok"));

    std::vector<std::string> ids;
    serve::Journal::replay(path, [&](const serve::Json& rec) {
        ids.push_back(rec.getString("id", ""));
    });
    EXPECT_EQ(ids, (std::vector<std::string>{"kept", "kept"}));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(ServeJournal, FragmentsWithNewlinesStayLineOriented)
{
    const std::string dir = scratchDir("cobra_journal_frag");
    const std::string path = dir + "/journal.log";
    const std::string frag = "    {\n      \"label\": \"a/b\"\n    }";
    {
        serve::Journal j(path);
        j.append(serve::Journal::pointLine("r", 0, "ok", "", "", 1,
                                           frag));
        j.append(serve::Journal::doneLine("r", "ok"));
    }
    std::string recovered;
    const std::size_t n = serve::Journal::replay(
        path, [&](const serve::Json& rec) {
            if (rec.getString("ev", "") == "point")
                recovered = rec.getString("fragment", "");
        });
    EXPECT_EQ(n, 2u); // The embedded newlines did not split records.
    EXPECT_EQ(recovered, frag);
}

// ---------------------------------------------------------------------
// Warm-state cache poisoning
// ---------------------------------------------------------------------

TEST(ServeWarmCache, RoundTripsAndCountsHits)
{
    serve::WarmCache cache(scratchDir("cobra_warm_rt"));
    warp::Snapshot snap;
    snap.fingerprint = 0xF00D;
    snap.cycle = 123;
    snap.insts = 456;
    snap.payload = {1, 2, 3, 4};

    const std::string key = cache.keyPath("leela", 0xABCD, 4, 2);
    warp::Snapshot out;
    EXPECT_FALSE(cache.lookup(key, out)); // miss
    cache.store(key, snap);
    ASSERT_TRUE(cache.lookup(key, out)); // hit
    EXPECT_EQ(out.fingerprint, 0xF00Du);
    EXPECT_EQ(out.insts, 456u);
    EXPECT_EQ(out.payload, snap.payload);
    EXPECT_EQ(cache.stats().get("hits"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
    EXPECT_EQ(cache.stats().get("stores"), 1u);
}

TEST(ServeWarmCache, KeysSeparateWorkloadConfigAndSlot)
{
    serve::WarmCache cache(scratchDir("cobra_warm_keys"));
    const std::string a = cache.keyPath("leela", 1, 4, 0);
    EXPECT_NE(a, cache.keyPath("x264", 1, 4, 0));
    EXPECT_NE(a, cache.keyPath("leela", 2, 4, 0));
    EXPECT_NE(a, cache.keyPath("leela", 1, 8, 0));
    EXPECT_NE(a, cache.keyPath("leela", 1, 4, 1));
}

TEST(ServeWarmCache, TruncatedEntryIsEvictedAsAMiss)
{
    serve::WarmCache cache(scratchDir("cobra_warm_trunc"));
    warp::Snapshot snap;
    snap.payload.assign(64, 7);
    const std::string key = cache.keyPath("leela", 9, 2, 0);
    cache.store(key, snap);

    std::string bytes = serve::readFileText(key);
    writeFile(key, bytes.substr(0, bytes.size() / 2));

    warp::Snapshot out;
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_EQ(cache.stats().get("rejected"), 1u);
    EXPECT_FALSE(fs::exists(key)); // evicted for regeneration
    EXPECT_FALSE(cache.lookup(key, out)); // now a plain miss
    EXPECT_EQ(cache.stats().get("misses"), 1u);
}

TEST(ServeWarmCache, BitFlippedEntryIsEvictedAsAMiss)
{
    serve::WarmCache cache(scratchDir("cobra_warm_flip"));
    warp::Snapshot snap;
    snap.payload.assign(64, 7);
    const std::string key = cache.keyPath("leela", 9, 2, 1);
    cache.store(key, snap);

    std::string bytes = serve::readFileText(key);
    bytes[bytes.size() - 3] ^= 0x40; // corrupt the payload tail
    writeFile(key, bytes);

    warp::Snapshot out;
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_EQ(cache.stats().get("rejected"), 1u);
    EXPECT_FALSE(fs::exists(key));
}

TEST(ServeWarmCache, DirectoryAndOldVersionEntriesAreEvictedAsMisses)
{
    serve::WarmCache cache(scratchDir("cobra_warm_foreign"));
    const std::string dirKey = cache.keyPath("leela", 9, 2, 0);
    fs::create_directories(dirKey);

    // An entry stored by this build, then its version word (bytes 4-7,
    // after the magic) set to 1: the format before valid-line cache
    // sections.
    warp::Snapshot snap;
    snap.payload.assign(64, 7);
    const std::string oldKey = cache.keyPath("leela", 9, 2, 1);
    cache.store(oldKey, snap);
    std::string bytes = serve::readFileText(oldKey);
    ASSERT_EQ(bytes[4], static_cast<char>(warp::Snapshot::kVersion));
    bytes[4] = 1;
    writeFile(oldKey, bytes);

    warp::Snapshot out;
    EXPECT_FALSE(cache.lookup(dirKey, out));
    EXPECT_FALSE(cache.lookup(oldKey, out));
    EXPECT_EQ(cache.stats().get("rejected"), 2u);
    EXPECT_EQ(cache.stats().get("hits"), 0u);
    EXPECT_FALSE(fs::exists(dirKey));
    EXPECT_FALSE(fs::exists(oldKey));
}

// ---------------------------------------------------------------------
// Concurrent workload-cache use
// ---------------------------------------------------------------------

TEST(ServeWorkloadCache, ConcurrentGetsShareOnePerName)
{
    prog::WorkloadCache cache;
    const auto names = prog::WorkloadLibrary::all();
    ASSERT_GE(names.size(), 2u);

    // Hammer the cache from many threads; every thread must observe
    // the same Program address per name (one build, shared borrow).
    std::vector<std::vector<const prog::Program*>> seen(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 4; ++rep)
                for (const auto& n : names)
                    seen[t].push_back(&cache.get(n));
        });
    }
    for (auto& th : threads)
        th.join();
    for (std::size_t t = 1; t < seen.size(); ++t)
        EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(cache.size(), names.size());
}

// ---------------------------------------------------------------------
// Daemon end to end
// ---------------------------------------------------------------------

TEST(ServeDaemon, HealthyGridRetiresOk)
{
    const std::string root = scratchDir("cobra_serve_ok");
    serve::Spool spool(root);
    submit(spool, "grid.json",
           "{\"id\": \"grid\", \"client\": \"ci\", "
           "\"designs\": [\"tagel\", \"b2\"], "
           "\"workloads\": [\"leela\"], "
           "\"insts\": 8000, \"warmup\": 1000}");

    EXPECT_EQ(runOnce(onceConfig(root)), 1u);
    EXPECT_TRUE(fs::exists(spool.doneDir() + "/grid.json"));

    const serve::Json doc = serve::Json::parse(resultText(spool,
                                                          "grid"));
    EXPECT_EQ(doc.getString("tool", ""), "cobra_serve");
    EXPECT_EQ(doc.getString("status", ""), "ok");
    const auto& pts = doc.find("points")->asArray();
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].getString("label", ""), "TAGE-L/leela");
    EXPECT_EQ(pts[0].getString("status", ""), "ok");
    EXPECT_EQ(pts[0].getU64("attempts", 0), 1u);
    EXPECT_GT(pts[0].getU64("insts", 0), 0u);
    EXPECT_GT(pts[0].getDouble("ipc", 0.0), 0.0);
    EXPECT_EQ(pts[1].getString("status", ""), "ok");

    // The health document reflects the retire.
    const serve::Json status =
        serve::Json::parse(serve::readFileText(spool.statusPath()));
    EXPECT_EQ(status.getString("state", ""), "stopped");
    EXPECT_EQ(status.getU64("retired", 0), 1u);
}

TEST(ServeDaemon, InvalidRequestBecomesStructuredRejection)
{
    const std::string root = scratchDir("cobra_serve_invalid");
    serve::Spool spool(root);
    submit(spool, "broken.json", "this is not json");
    submit(spool, "unknown.json",
           "{\"client\": \"ci\", \"designs\": [\"warpcore\"], "
           "\"workloads\": [\"leela\"]}");

    EXPECT_EQ(runOnce(onceConfig(root)), 0u);
    EXPECT_TRUE(fs::exists(spool.failedDir() + "/broken.json"));
    EXPECT_TRUE(fs::exists(spool.failedDir() + "/unknown.json"));

    const serve::Json doc =
        serve::Json::parse(resultText(spool, "broken"));
    EXPECT_EQ(doc.getString("status", ""), "rejected");
    EXPECT_EQ(doc.getString("reason", ""), "invalid_request");
    EXPECT_NE(doc.getString("detail", ""), "");

    const serve::Json doc2 =
        serve::Json::parse(resultText(spool, "unknown"));
    EXPECT_EQ(doc2.getString("reason", ""), "invalid_request");
    EXPECT_NE(doc2.getString("detail", "").find("design"),
              std::string::npos);
}

TEST(ServeDaemon, TimeoutPointFailsWithRetriesRecorded)
{
    const std::string root = scratchDir("cobra_serve_timeout");
    serve::Spool spool(root);
    submit(spool, "slow.json",
           "{\"id\": \"slow\", \"client\": \"ci\", "
           "\"designs\": [\"tagel\"], \"workloads\": [\"leela\"], "
           "\"insts\": 400000, \"warmup\": 1000, "
           "\"point_timeout_ms\": 1, \"max_retries\": 1}");

    serve::ServeConfig cfg = onceConfig(root);
    cfg.watchdogSliceCycles = 500; // Check the deadline early.
    EXPECT_EQ(runOnce(cfg), 1u);
    EXPECT_TRUE(fs::exists(spool.failedDir() + "/slow.json"));

    const serve::Json doc = serve::Json::parse(resultText(spool,
                                                          "slow"));
    EXPECT_EQ(doc.getString("status", ""), "failed");
    const auto& pts = doc.find("points")->asArray();
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].getString("status", ""), "failed");
    EXPECT_EQ(pts[0].getString("error_class", ""), "timeout");
    // Transient class: one retry consumed before the final record.
    EXPECT_EQ(pts[0].getU64("attempts", 0), 2u);
}

TEST(ServeDaemon, AdmissionControlQuotaAndSize)
{
    const std::string root = scratchDir("cobra_serve_admission");
    serve::Spool spool(root);
    submit(spool, "big.json",
           "{\"id\": \"big\", \"client\": \"ci\", "
           "\"designs\": [\"tagel\", \"b2\"], "
           "\"workloads\": [\"leela\", \"x264\"], "
           "\"insts\": 8000, \"warmup\": 1000}");
    submit(spool, "ok1.json", smallRequest("ok1"));
    submit(spool, "ok2.json", smallRequest("ok2"));

    serve::ServeConfig cfg = onceConfig(root);
    cfg.maxPointsPerRequest = 2; // "big" (4 points) is too large.
    cfg.maxPointsPerClient = 1;  // "ok1" fits; "ok2" busts the quota.
    EXPECT_EQ(runOnce(cfg), 1u);

    const serve::Json big = serve::Json::parse(resultText(spool,
                                                          "big"));
    EXPECT_EQ(big.getString("reason", ""), "too_large");
    EXPECT_EQ(big.find("points")->asArray().size(), 4u);
    EXPECT_EQ(big.find("points")->asArray()[0].getString("status", ""),
              "rejected");

    EXPECT_EQ(serve::Json::parse(resultText(spool, "ok1"))
                  .getString("status", ""),
              "ok");
    EXPECT_EQ(serve::Json::parse(resultText(spool, "ok2"))
                  .getString("reason", ""),
              "quota");
}

TEST(ServeDaemon, FullQueueShedsLowestPriority)
{
    const std::string root = scratchDir("cobra_serve_shed");
    serve::Spool spool(root);
    // Scanned in name order: a (prio 1) fills the queue, b (prio 1)
    // cannot displace it, c (prio 3) sheds a.
    submit(spool, "a.json", smallRequest("a", "\"priority\": 1"));
    submit(spool, "b.json", smallRequest("b", "\"priority\": 1"));
    submit(spool, "c.json", smallRequest("c", "\"priority\": 3"));

    serve::ServeConfig cfg = onceConfig(root);
    cfg.maxQueue = 1;
    EXPECT_EQ(runOnce(cfg), 1u);

    EXPECT_EQ(serve::Json::parse(resultText(spool, "a"))
                  .getString("reason", ""),
              "shed");
    EXPECT_EQ(serve::Json::parse(resultText(spool, "b"))
                  .getString("reason", ""),
              "queue_full");
    EXPECT_EQ(serve::Json::parse(resultText(spool, "c"))
                  .getString("status", ""),
              "ok");
    EXPECT_TRUE(fs::exists(spool.failedDir() + "/a.json"));
    EXPECT_TRUE(fs::exists(spool.failedDir() + "/b.json"));
    EXPECT_TRUE(fs::exists(spool.doneDir() + "/c.json"));
}

TEST(ServeDaemon, RecoveryReplaysJournaledPointsWithoutRerun)
{
    const std::string root = scratchDir("cobra_serve_recover");
    serve::Spool spool(root);

    // Manufacture a crashed daemon's state: a claimed two-point
    // request in active/ whose first point already journaled. The
    // sentinel fragment is bytes a re-run could never produce.
    const std::string frag =
        "    {\n      \"label\": \"TAGE-L/leela\",\n"
        "      \"status\": \"ok\",\n      \"attempts\": 1,\n"
        "      \"insts\": 424242,\n      \"cycles\": 9,\n"
        "      \"ipc\": 1.0,\n      \"mpki\": 1.0,\n"
        "      \"accuracy\": 1.0,\n"
        "      \"wall_seconds\": 0.125\n    }";
    writeFile(spool.activeDir() + "/crashed.json",
              "{\"id\": \"crashed\", \"client\": \"ci\", "
              "\"designs\": [\"tagel\", \"b2\"], "
              "\"workloads\": [\"leela\"], "
              "\"insts\": 8000, \"warmup\": 1000}");
    {
        serve::Journal j(spool.journalPath());
        j.append(serve::Journal::acceptLine("crashed", "ci", 1, 2));
        j.append(serve::Journal::pointLine("crashed", 0, "ok", "", "",
                                           1, frag));
    }

    EXPECT_EQ(runOnce(onceConfig(root)), 1u);
    EXPECT_TRUE(fs::exists(spool.doneDir() + "/crashed.json"));

    const std::string text = resultText(spool, "crashed");
    // The journaled fragment was republished verbatim (424242 insts
    // prove point 0 was not re-simulated)...
    EXPECT_NE(text.find("424242"), std::string::npos);
    const serve::Json doc = serve::Json::parse(text);
    EXPECT_EQ(doc.getString("status", ""), "ok");
    const auto& pts = doc.find("points")->asArray();
    ASSERT_EQ(pts.size(), 2u);
    // ...while point 1 genuinely ran.
    EXPECT_EQ(pts[1].getString("label", ""), "B2/leela");
    EXPECT_EQ(pts[1].getU64("insts", 0), 8000u);
}

TEST(ServeDaemon, RecoveryRetiresDoneRequestsWithoutRerun)
{
    const std::string root = scratchDir("cobra_serve_recover_done");
    serve::Spool spool(root);

    // Crash window: result published and done journaled, but the
    // retire rename never happened.
    writeFile(spool.activeDir() + "/finished.json",
              smallRequest("finished"));
    spool.writeResult("finished", "{\"sentinel\": true}\n");
    {
        serve::Journal j(spool.journalPath());
        j.append(serve::Journal::acceptLine("finished", "test", 1, 1));
        j.append(serve::Journal::doneLine("finished", "ok"));
    }

    EXPECT_EQ(runOnce(onceConfig(root)), 1u);
    EXPECT_TRUE(fs::exists(spool.doneDir() + "/finished.json"));
    // The published result was NOT overwritten by a re-run.
    EXPECT_EQ(resultText(spool, "finished"), "{\"sentinel\": true}\n");
}

TEST(ServeDaemon, WarpRequestsReuseWarmStateBitIdentically)
{
    const std::string root = scratchDir("cobra_serve_warm_e2e");
    serve::Spool spool(root);
    const std::string body =
        "\"client\": \"ci\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"], "
        "\"insts\": 30000, \"warmup\": 2000, "
        "\"warp\": {\"intervals\": 2, \"warmup_cycles\": 2000}";
    submit(spool, "cold.json", "{\"id\": \"cold\", " + body + "}");

    serve::ServeConfig cfg = onceConfig(root);
    EXPECT_EQ(runOnce(cfg), 1u);
    submit(spool, "warm.json", "{\"id\": \"warm\", " + body + "}");
    EXPECT_EQ(runOnce(cfg), 1u);

    const serve::Json cold = serve::Json::parse(resultText(spool,
                                                           "cold"));
    const serve::Json warm = serve::Json::parse(resultText(spool,
                                                           "warm"));
    const serve::Json& cp = cold.find("points")->asArray()[0];
    const serve::Json& wp = warm.find("points")->asArray()[0];
    ASSERT_EQ(cp.getString("status", ""), "ok");
    ASSERT_EQ(wp.getString("status", ""), "ok");

    const serve::Json* cw = cp.find("warp");
    const serve::Json* ww = wp.find("warp");
    ASSERT_NE(cw, nullptr);
    ASSERT_NE(ww, nullptr);
    EXPECT_EQ(cw->getU64("warm_hits", 99), 0u);
    EXPECT_GT(cw->getU64("ff_insts", 0), 0u);
    EXPECT_EQ(ww->getU64("warm_hits", 0), 2u); // both intervals hit
    EXPECT_EQ(ww->getU64("ff_insts", 99), 0u); // fast-forward skipped

    // Warm-path estimates are bit-identical to the cold run.
    EXPECT_EQ(cp.getU64("cycles", 1), wp.getU64("cycles", 2));
    EXPECT_EQ(cp.getU64("insts", 1), wp.getU64("insts", 2));
    EXPECT_EQ(cp.getU64("cond_mispredicts", 1),
              wp.getU64("cond_mispredicts", 2));
}

TEST(ServeDaemon, NearbyFaultRatesKeepTheirOwnWarmEntries)
{
    // 1e-4 and 1.0000001e-4 print alike at stream precision. Keyed on
    // that text, B's cold pass would overwrite A's snapshots and the
    // second A would miss.
    const std::string root = scratchDir("cobra_serve_warm_keys");
    serve::Spool spool(root);
    const serve::ServeConfig cfg = onceConfig(root);
    for (const auto& [id, rate] :
         {std::pair<std::string, std::string>{"a1", "1e-4"},
          {"b", "1.0000001e-4"},
          {"a2", "1e-4"}}) {
        submit(spool, id + ".json",
               "{\"id\": \"" + id + "\", \"client\": \"ci\", "
               "\"designs\": [\"b2\"], \"workloads\": [\"leela\"], "
               "\"insts\": 30000, \"warmup\": 2000, "
               "\"fault_rate\": " + rate + ", \"fault_seed\": 7, "
               "\"warp\": {\"intervals\": 2, \"warmup_cycles\": 2000}}");
        ASSERT_EQ(runOnce(cfg), 1u) << id;
    }
    const serve::Json again =
        serve::Json::parse(resultText(spool, "a2"));
    const serve::Json& p = again.find("points")->asArray()[0];
    ASSERT_EQ(p.getString("status", ""), "ok");
    EXPECT_EQ(p.find("warp")->getU64("warm_hits", 99), 2u);
}

TEST(ServeDaemon, PoisonedWarmCacheRegeneratesCleanly)
{
    const std::string root = scratchDir("cobra_serve_warm_poison");
    serve::Spool spool(root);
    const std::string body =
        "\"client\": \"ci\", \"designs\": [\"b2\"], "
        "\"workloads\": [\"leela\"], "
        "\"insts\": 30000, \"warmup\": 2000, "
        "\"warp\": {\"intervals\": 2, \"warmup_cycles\": 2000}";
    submit(spool, "cold.json", "{\"id\": \"cold\", " + body + "}");
    EXPECT_EQ(runOnce(onceConfig(root)), 1u);

    // Corrupt every cached snapshot.
    std::size_t poisoned = 0;
    for (const auto& e : fs::directory_iterator(spool.warmDir())) {
        std::string bytes = serve::readFileText(e.path().string());
        bytes[bytes.size() / 2] ^= 0x01;
        writeFile(e.path().string(), bytes);
        ++poisoned;
    }
    ASSERT_EQ(poisoned, 2u);

    submit(spool, "again.json", "{\"id\": \"again\", " + body + "}");
    EXPECT_EQ(runOnce(onceConfig(root)), 1u);

    const serve::Json cold = serve::Json::parse(resultText(spool,
                                                           "cold"));
    const serve::Json again = serve::Json::parse(resultText(spool,
                                                            "again"));
    const serve::Json& cp = cold.find("points")->asArray()[0];
    const serve::Json& ap = again.find("points")->asArray()[0];
    ASSERT_EQ(ap.getString("status", ""), "ok");
    // Poison forced a cold pass (no warm hits), and the regenerated
    // run still produced the identical estimate.
    EXPECT_EQ(ap.find("warp")->getU64("warm_hits", 99), 0u);
    EXPECT_GT(ap.find("warp")->getU64("ff_insts", 0), 0u);
    EXPECT_EQ(cp.getU64("cycles", 1), ap.getU64("cycles", 2));
}

TEST(ServeDaemon, PollMsOutsideItsRangeIsAConfigError)
{
    const std::string root =
        (fs::temp_directory_path() / "cobra_serve_poll_ms").string();
    fs::remove_all(root);
    serve::ServeConfig cfg = onceConfig(root);
    // 0 would spin; above INT_MAX poll() would read a negative
    // timeout and block forever.
    for (const std::uint64_t ms : {0ull, 3'600'001ull, 2'147'483'648ull}) {
        cfg.pollMs = ms;
        try {
            serve::Daemon daemon(cfg);
            ADD_FAILURE() << "accepted pollMs " << ms;
        } catch (const guard::ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find("pollMs"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_FALSE(fs::exists(root)) << "refused after touching the spool";
    for (const std::uint64_t ms : {1ull, 3'600'000ull}) {
        cfg.pollMs = ms;
        EXPECT_NO_THROW(serve::Daemon{cfg}) << ms;
    }
}

TEST(ServeDaemon, IdleDaemonWakesOnArrival)
{
    const std::string root = scratchDir("cobra_serve_wake");
    serve::ServeConfig cfg = onceConfig(root);
    cfg.once = false;
    cfg.pollMs = 30'000; // Only the doorbell can beat the deadline.
    serve::Daemon daemon(cfg);
    const serve::Spool& spool = daemon.spool();

    std::atomic<bool> stop{false};
    std::exception_ptr failure;
    std::thread server([&] {
        try {
            daemon.run(stop);
        } catch (...) {
            failure = std::current_exception();
        }
    });

    // run() writes status.json once it serves; then let it settle
    // into its idle wait before the request arrives.
    EXPECT_TRUE(waitUntil([&] { return fs::exists(spool.statusPath()); },
                          30.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    submit(spool, "wake.json", smallRequest("wake"));
    // 10 s leaves room for the sanitizer builds.
    EXPECT_TRUE(waitUntil(
        [&] { return fs::exists(spool.resultPath("wake")); }, 10.0))
        << "no result within 10 s of an arrival at a 30 s poll";
    // status.json is rewritten right after the request retires. (Not
    // a throw: the server thread must be joined below.)
    serve::Json status;
    waitUntil(
        [&] {
            try {
                status = serve::Json::parse(
                    serve::readFileText(spool.statusPath()));
            } catch (const std::exception&) {
                return false;
            }
            return status.getU64("retired", 0) == 1;
        },
        10.0);

    // Teardown: raise the flag, then ring the doorbell with a file the
    // scan ignores.
    stop = true;
    writeFile(spool.incomingDir() + "/ring.tmp", "");
    fs::rename(spool.incomingDir() + "/ring.tmp",
               spool.incomingDir() + "/ring");
    server.join();
    if (failure)
        std::rethrow_exception(failure);

    ASSERT_EQ(status.getU64("retired", 0), 1u);
    const serve::Json& counters =
        *status.find("stats")->find("serve")->find("counters");
    EXPECT_GE(counters.getU64("arrival_wakeups", 0), 1u);
    EXPECT_EQ(serve::Json::parse(resultText(spool, "wake"))
                  .getString("status", ""),
              "ok");
}

// ---------------------------------------------------------------------
// Replay traces through the service
// ---------------------------------------------------------------------

TEST(ServeDaemon, TraceRequestReplaysBitIdenticallyToExecute)
{
    const std::string root = scratchDir("cobra_serve_trace");
    serve::Spool spool(root);

    // Capture the workload the request will replay.
    prog::WorkloadCache programs;
    const std::string tracePath = root + "/leela.cbtr";
    trace::captureTrace(programs.get("leela"), tracePath, 10'000);

    const std::string opts =
        "\"designs\": [\"tagel\", \"b2\"], "
        "\"workloads\": [\"leela\"], "
        "\"insts\": 8000, \"warmup\": 1000";
    submit(spool, "exec.json",
           "{\"id\": \"exec\", \"client\": \"ci\", " + opts + "}");
    submit(spool, "replay.json",
           "{\"id\": \"replay\", \"client\": \"ci\", " + opts +
               ", \"trace\": \"" + tracePath + "\"}");
    EXPECT_EQ(runOnce(onceConfig(root)), 2u);

    const serve::Json execDoc =
        serve::Json::parse(resultText(spool, "exec"));
    const serve::Json replayDoc =
        serve::Json::parse(resultText(spool, "replay"));
    const auto& ep = execDoc.find("points")->asArray();
    const auto& rp = replayDoc.find("points")->asArray();
    ASSERT_EQ(ep.size(), 2u);
    ASSERT_EQ(rp.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_EQ(rp[i].getString("status", ""), "ok");
        EXPECT_EQ(rp[i].getU64("cycles", 1), ep[i].getU64("cycles", 2))
            << rp[i].getString("label", "");
        EXPECT_EQ(rp[i].getU64("insts", 1), ep[i].getU64("insts", 2));
        EXPECT_EQ(rp[i].getU64("cond_mispredicts", 1),
                  ep[i].getU64("cond_mispredicts", 2));
    }
}

TEST(ServeDaemon, BadTraceRequestsAreRejectedAtAdmission)
{
    const std::string root = scratchDir("cobra_serve_trace_bad");
    serve::Spool spool(root);

    prog::WorkloadCache programs;
    const std::string tracePath = root + "/leela.cbtr";
    trace::captureTrace(programs.get("leela"), tracePath, 6'000);

    // Corrupt copy: flip one payload byte.
    const std::string corrupt = root + "/corrupt.cbtr";
    {
        std::string bytes = serve::readFileText(tracePath);
        bytes[200] ^= 0x20;
        writeFile(corrupt, bytes);
    }

    const std::string head =
        "\"client\": \"ci\", \"designs\": [\"b2\"], "
        "\"insts\": 4000, \"warmup\": 1000, ";
    // Missing file, corrupt file, wrong workload, budget overrun:
    // all must become invalid_trace rejection documents.
    submit(spool, "gone.json",
           "{\"id\": \"gone\", " + head +
               "\"workloads\": [\"leela\"], \"trace\": \"" + root +
               "/absent.cbtr\"}");
    submit(spool, "corrupt.json",
           "{\"id\": \"corrupt\", " + head +
               "\"workloads\": [\"leela\"], \"trace\": \"" + corrupt +
               "\"}");
    submit(spool, "mismatch.json",
           "{\"id\": \"mismatch\", " + head +
               "\"workloads\": [\"x264\"], \"trace\": \"" + tracePath +
               "\"}");
    submit(spool, "overrun.json",
           "{\"id\": \"overrun\", \"client\": \"ci\", "
           "\"designs\": [\"b2\"], \"workloads\": [\"leela\"], "
           "\"insts\": 400000, \"warmup\": 1000, \"trace\": \"" +
               tracePath + "\"}");
    EXPECT_EQ(runOnce(onceConfig(root)), 0u);

    for (const char* id : {"gone", "corrupt", "mismatch", "overrun"}) {
        const serve::Json doc =
            serve::Json::parse(resultText(spool, id));
        EXPECT_EQ(doc.getString("status", ""), "rejected") << id;
        EXPECT_EQ(doc.getString("reason", ""), "invalid_trace") << id;
        EXPECT_NE(doc.getString("detail", ""), "") << id;
    }

    // A trace with more than one workload is a parse-level rejection.
    EXPECT_THROW(serve::SweepRequest::parse(
                     "{\"client\": \"c\", \"designs\": [\"b2\"], "
                     "\"workloads\": [\"leela\", \"x264\"], "
                     "\"trace\": \"t.cbtr\"}",
                     "f"),
                 serve::RequestError);
}
