#include "serve/journal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "common/json.hpp"
#include "serve/spool.hpp"

namespace cobra::serve {

Journal::Journal(std::string path) : path_(std::move(path))
{
    open();
}

Journal::~Journal()
{
    if (f_ != nullptr)
        std::fclose(f_);
}

void
Journal::open()
{
    f_ = std::fopen(path_.c_str(), "ab");
    if (f_ == nullptr)
        throw std::runtime_error("cannot open journal " + path_);
}

void
Journal::append(const std::string& line)
{
    std::lock_guard<std::mutex> lk(m_);
    if (std::fwrite(line.data(), 1, line.size(), f_) != line.size() ||
        std::fputc('\n', f_) == EOF || std::fflush(f_) != 0)
        throw std::runtime_error("journal append failed: " + path_);
    // Durability, not just ordering: a recorded point must survive a
    // power cut, or recovery could double-run it.
    ::fsync(::fileno(f_));
}

void
Journal::checkpoint(const std::vector<std::string>& lines)
{
    std::lock_guard<std::mutex> lk(m_);
    std::fclose(f_);
    f_ = nullptr;

    std::string text;
    for (const std::string& l : lines)
        text += l + '\n';
    // Durable: the compacted journal replaces records that were each
    // fsync'd, and must not be the one to lose them.
    writeFileAtomic(path_, text, Durability::Durable);
    open();
}

std::string
Journal::acceptLine(const std::string& req_id, const std::string& client,
                    int priority, std::size_t points)
{
    std::ostringstream os;
    os << "{\"ev\": \"accept\", \"id\": \"" << jsonEscape(req_id)
       << "\", \"client\": \"" << jsonEscape(client)
       << "\", \"priority\": " << priority << ", \"points\": " << points
       << "}";
    return os.str();
}

std::string
Journal::pointLine(const std::string& req_id, std::size_t idx,
                   const std::string& status,
                   const std::string& error_class,
                   const std::string& error, unsigned attempts,
                   const std::string& fragment)
{
    std::ostringstream os;
    os << "{\"ev\": \"point\", \"id\": \"" << jsonEscape(req_id)
       << "\", \"idx\": " << idx << ", \"status\": \""
       << jsonEscape(status) << "\", \"error_class\": \""
       << jsonEscape(error_class) << "\", \"error\": \""
       << jsonEscape(error) << "\", \"attempts\": " << attempts
       // The fragment (the point's rendered result-document entry) is
       // itself JSON; it rides inside the record as an escaped string
       // so the journal stays strictly line-oriented.
       << ", \"fragment\": \"" << jsonEscape(fragment) << "\"}";
    return os.str();
}

std::string
Journal::doneLine(const std::string& req_id, const std::string& status)
{
    std::ostringstream os;
    os << "{\"ev\": \"done\", \"id\": \"" << jsonEscape(req_id)
       << "\", \"status\": \"" << jsonEscape(status) << "\"}";
    return os.str();
}

std::size_t
Journal::replay(const std::string& path,
                const std::function<void(const Json&)>& cb)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return 0;
    std::size_t n = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        Json rec;
        try {
            rec = Json::parse(line);
        } catch (const JsonError&) {
            break; // Torn tail: the crash cut this record short.
        }
        if (!rec.isObject() || rec.find("ev") == nullptr)
            break;
        cb(rec);
        ++n;
    }
    return n;
}

} // namespace cobra::serve
