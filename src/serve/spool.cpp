#include "serve/spool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/inotify.h>
#endif

namespace fs = std::filesystem;

namespace cobra::serve {

namespace {

/** fsync @p dir, so a rename inside it survives a power cut. */
void
syncDir(const std::string& dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        throw std::runtime_error("cannot open directory " + dir);
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    // EINVAL: a filesystem that cannot sync a directory at all.
    if (rc != 0 && err != EINVAL)
        throw std::runtime_error("fsync failed: " + dir);
}

} // namespace

void
writeFileAtomic(const std::string& path, const std::string& content,
                Durability durability)
{
    const bool durable = durability == Durability::Durable;
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + tmp);
    bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size() &&
              std::fflush(f) == 0;
    if (ok && durable)
        ok = ::fsync(::fileno(f)) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw std::runtime_error("write failed: " + tmp);
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        throw std::runtime_error("rename " + tmp + " -> " + path +
                                 ": " + ec.message());
    }
    if (durable) {
        const fs::path dir = fs::path(path).parent_path();
        syncDir(dir.empty() ? "." : dir.string());
    }
}

std::string
readFileText(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

IncomingWatch::IncomingWatch(const std::string& dir)
{
#if defined(__linux__)
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ >= 0 && ::inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) < 0) {
        ::close(fd_);
        fd_ = -1;
    }
#else
    (void)dir;
#endif
}

IncomingWatch::~IncomingWatch()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
IncomingWatch::wait(int ms)
{
    // One call for both modes: disarmed, it polls no descriptor and
    // only the timeout (or a signal) ends it.
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, fd_ >= 0 ? 1 : 0, ms) <= 0 || (p.revents & POLLIN) == 0)
        return false;
    char buf[4096];
    while (::read(fd_, buf, sizeof buf) > 0) {
    }
    return true;
}

Spool::Spool(std::string root) : root_(std::move(root))
{
    for (const std::string& d :
         {incomingDir(), activeDir(), doneDir(), failedDir(),
          resultsDir(), warmDir()})
        fs::create_directories(d);
}

namespace {

std::vector<std::string>
scanJsonFiles(const std::string& dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
        if (!e.is_regular_file())
            continue;
        const std::string name = e.path().filename().string();
        // Skip in-flight temp files from write-then-rename clients.
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

std::vector<std::string>
Spool::scanIncoming() const
{
    return scanJsonFiles(incomingDir());
}

IncomingWatch
Spool::watchIncoming() const
{
    return IncomingWatch(incomingDir());
}

std::vector<std::string>
Spool::scanActive() const
{
    return scanJsonFiles(activeDir());
}

bool
Spool::claim(const std::string& fname)
{
    std::error_code ec;
    fs::rename(incomingDir() + "/" + fname,
               activeDir() + "/" + fname, ec);
    return !ec;
}

void
Spool::finish(const std::string& fname, bool ok)
{
    std::error_code ec;
    fs::rename(activeDir() + "/" + fname,
               (ok ? doneDir() : failedDir()) + "/" + fname, ec);
    if (ec) {
        throw std::runtime_error("finish " + fname + ": " +
                                 ec.message());
    }
}

void
Spool::reject(const std::string& fname)
{
    std::error_code ec;
    fs::rename(incomingDir() + "/" + fname,
               failedDir() + "/" + fname, ec);
    if (ec) {
        throw std::runtime_error("reject " + fname + ": " +
                                 ec.message());
    }
}

void
Spool::writeResult(const std::string& id, const std::string& text)
{
    writeFileAtomic(resultPath(id), text);
}

std::string
Spool::resultPath(const std::string& id) const
{
    return resultsDir() + "/" + id + ".json";
}

} // namespace cobra::serve
