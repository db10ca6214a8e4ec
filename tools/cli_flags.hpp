/**
 * @file
 * Flag-value parsers shared by the command-line tools. Each takes the
 * flag's name so an error names the flag that carried the bad value,
 * and each throws std::runtime_error, which every tool reports as a
 * usage error. An unsigned flag is range-checked on the 64-bit value
 * before it is narrowed, so an oversized value is an error, never a
 * silent wrap.
 */

#ifndef COBRA_TOOLS_CLI_FLAGS_HPP
#define COBRA_TOOLS_CLI_FLAGS_HPP

#include <cctype>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace cobra::cli {

/** The whole of @p v as a non-negative integer (decimal, 0x hex or
 *  leading-0 octal). */
inline std::uint64_t
parseU64(const std::string& flag, const std::string& v)
{
    try {
        // stoull would skip leading blanks and wrap a leading '-'.
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])))
            throw std::invalid_argument(v);
        std::size_t end = 0;
        const std::uint64_t n = std::stoull(v, &end, 0);
        if (end != v.size())
            throw std::invalid_argument(v);
        return n;
    } catch (const std::exception&) {
        throw std::runtime_error("invalid number for " + flag + ": '" +
                                 v + "'");
    }
}

/** parseU64 for an `unsigned` setting: values above UINT_MAX are an
 *  error naming the flag. */
inline unsigned
parseUnsigned(const std::string& flag, const std::string& v)
{
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    const std::uint64_t n = parseU64(flag, v);
    if (n > kMax) {
        throw std::runtime_error(flag + ": " + v +
                                 " is out of range (max " +
                                 std::to_string(kMax) + ")");
    }
    return static_cast<unsigned>(n);
}

/** The whole of @p v as a floating-point number. */
inline double
parseDouble(const std::string& flag, const std::string& v)
{
    try {
        std::size_t end = 0;
        const double d = std::stod(v, &end);
        if (end != v.size())
            throw std::invalid_argument(v);
        return d;
    } catch (const std::exception&) {
        throw std::runtime_error("invalid number for " + flag + ": '" +
                                 v + "'");
    }
}

/** Split a comma-separated list, dropping empty items; a list with no
 *  items is an error. */
inline std::vector<std::string>
splitList(const std::string& flag, const std::string& s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        throw std::runtime_error("empty list for " + flag + ": '" + s +
                                 "'");
    return out;
}

} // namespace cobra::cli

#endif // COBRA_TOOLS_CLI_FLAGS_HPP
