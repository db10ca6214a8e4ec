/**
 * @file
 * The cobra_serve spool: a watched directory tree that doubles as the
 * daemon's request state machine. A request document's location IS
 * its lifecycle state, and every transition is a same-filesystem
 * rename (atomic on POSIX), so a crash at any instant leaves each
 * request in exactly one well-defined state:
 *
 *     incoming/r.json  --claim-->  active/r.json  --finish-->  done/r.json
 *                       (accept                   (result       failed/r.json
 *                        journaled                 written
 *                        first)                    first)
 *
 * Clients submit by writing a temp file and renaming it into
 * `incoming/` (write-then-rename, like the daemon's own outputs), so
 * the daemon never observes a half-written document. Result and
 * status documents are written with the same temp+rename discipline
 * via writeFileAtomic(); result documents are also fsync'd, because
 * the journal's `done` record licenses recovery to skip them.
 *
 * That rename is also the intake doorbell: watchIncoming() wakes an
 * idle daemon when a document lands in `incoming/`.
 */

#ifndef COBRA_SERVE_SPOOL_HPP
#define COBRA_SERVE_SPOOL_HPP

#include <string>
#include <vector>

namespace cobra::serve {

/** How far writeFileAtomic() pushes a document before it returns. */
enum class Durability
{
    /** Page cache only: an advisory document rewritten every loop
     *  iteration (status.json). A power cut may lose or revert it. */
    Advisory,
    /** fsync the temp file before the rename and the directory after
     *  it, so the published document survives a power cut. */
    Durable,
};

/** Atomic file publish: write `path.tmp`, flush, rename onto @p path;
 *  @p durability says whether it must also survive a power cut. */
void writeFileAtomic(const std::string& path, const std::string& content,
                     Durability durability = Durability::Durable);

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readFileText(const std::string& path);

/**
 * The intake doorbell: an inotify watch for documents renamed into
 * `incoming/` (IN_MOVED_TO, the submit step). It only says "scan now";
 * the directory scan stays the one source of truth, so a missed or
 * overflowed event costs at most one idle wait. Where inotify cannot
 * be set up (some network filesystems, an exhausted
 * `max_user_instances`, a non-Linux host) the watch is disarmed and
 * wait() is a plain timed sleep. Owns its descriptor.
 */
class IncomingWatch
{
  public:
    /** Disarmed: wait() only sleeps. */
    IncomingWatch() = default;
    explicit IncomingWatch(const std::string& dir);
    ~IncomingWatch();
    IncomingWatch(const IncomingWatch&) = delete;
    IncomingWatch& operator=(const IncomingWatch&) = delete;

    /**
     * Wait up to @p ms milliseconds for a rename into the directory.
     * A signal also ends the wait (Linux never restarts poll()). Every
     * queued event is drained before returning, so an arrival after
     * the caller's next scan rings again. True iff an event ended the
     * wait.
     */
    bool wait(int ms);

  private:
    int fd_ = -1; ///< The inotify instance; -1 when disarmed.
};

class Spool
{
  public:
    /** Opens (creating if needed) the spool tree under @p root. */
    explicit Spool(std::string root);

    const std::string& root() const { return root_; }
    std::string incomingDir() const { return root_ + "/incoming"; }
    std::string activeDir() const { return root_ + "/active"; }
    std::string doneDir() const { return root_ + "/done"; }
    std::string failedDir() const { return root_ + "/failed"; }
    std::string resultsDir() const { return root_ + "/results"; }
    std::string warmDir() const { return root_ + "/warm"; }
    std::string journalPath() const { return root_ + "/journal.log"; }
    std::string statusPath() const { return root_ + "/status.json"; }

    /** `*.json` filenames in incoming/, sorted (submission order). */
    std::vector<std::string> scanIncoming() const;

    /** Arm the doorbell on incoming/ (before scanning it). */
    IncomingWatch watchIncoming() const;

    /** `*.json` filenames in active/, sorted (recovery order). */
    std::vector<std::string> scanActive() const;

    /**
     * Claim a request: incoming/@p fname -> active/@p fname. False if
     * the file vanished (a competing claim or a client withdrew it).
     */
    bool claim(const std::string& fname);

    /** Retire a request: active/@p fname -> done|failed/@p fname. */
    void finish(const std::string& fname, bool ok);

    /** Reject without claiming: incoming/@p fname -> failed/@p fname. */
    void reject(const std::string& fname);

    /** Publish a result document as results/<id>.json (atomic and
     *  durable). */
    void writeResult(const std::string& id, const std::string& text);

    /** Path a request id's result document lives at. */
    std::string resultPath(const std::string& id) const;

  private:
    std::string root_;
};

} // namespace cobra::serve

#endif // COBRA_SERVE_SPOOL_HPP
