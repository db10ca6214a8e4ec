/**
 * @file
 * cobra_serve write-ahead journal: one append-only text file of JSON
 * records (one per line) that makes request execution crash-safe. The
 * protocol orders every durable fact before the action it licenses:
 *
 *   accept  — journaled BEFORE the request file renames incoming ->
 *             active (a crash between the two re-admits harmlessly);
 *   point   — journaled as each sweep point reaches a FINAL state
 *             (ok, or failed with retries exhausted), carrying the
 *             rendered result fragment so a restart can emit the
 *             exact bytes the completed point produced;
 *   done    — journaled AFTER the request's result document is
 *             published, licensing the active -> done|failed rename.
 *
 * Appends are flushed and fsync'd, so a kill -9 can lose at most
 * work that had not reached a final state — never a recorded point.
 * Replay is torn-tail tolerant: the first malformed line (a record
 * cut by the crash) ends the replay; everything before it is intact
 * by construction.
 *
 * checkpoint() compacts the journal (atomically and durably, via
 * fsync'd temp+rename) to just the records describing still-active
 * requests, bounding its growth across a long daemon life.
 */

#ifndef COBRA_SERVE_JOURNAL_HPP
#define COBRA_SERVE_JOURNAL_HPP

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace cobra::serve {

class Journal
{
  public:
    /** Opens @p path for appending (created if absent). */
    explicit Journal(std::string path);
    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /**
     * Append one record line durably (flush + fsync). Thread-safe:
     * sweep workers journal point completions concurrently.
     */
    void append(const std::string& line);

    /**
     * Atomically and durably replace the journal's contents with
     * @p lines (writeFileAtomic), then reopen for appending.
     */
    void checkpoint(const std::vector<std::string>& lines);

    /** Records replayed by the last replay() call on this path. */
    const std::string& path() const { return path_; }

    // ---- Record serialization (shared by append and checkpoint) -----
    static std::string acceptLine(const std::string& req_id,
                                  const std::string& client,
                                  int priority, std::size_t points);
    static std::string pointLine(const std::string& req_id,
                                 std::size_t idx,
                                 const std::string& status,
                                 const std::string& error_class,
                                 const std::string& error,
                                 unsigned attempts,
                                 const std::string& fragment);
    static std::string doneLine(const std::string& req_id,
                                const std::string& status);

    /**
     * Replay a journal file: @p cb is invoked with each well-formed
     * record (a parsed JSON object with an "ev" member), in order.
     * Returns the number of records replayed. A missing file replays
     * zero records; a malformed line (torn tail after a crash) stops
     * the replay silently.
     */
    static std::size_t
    replay(const std::string& path,
           const std::function<void(const Json&)>& cb);

  private:
    void open();

    std::string path_;
    std::mutex m_;
    std::FILE* f_ = nullptr;
};

} // namespace cobra::serve

#endif // COBRA_SERVE_JOURNAL_HPP
