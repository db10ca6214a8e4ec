/**
 * @file
 * Warp state archives: the byte-level serialization layer behind
 * checkpointed snapshots. A StateWriter appends tagged sections of
 * little-endian primitives to a growable byte buffer; a StateReader
 * walks the same layout back, verifying every section tag and bounds-
 * checking every read. Readers never trust the input: any structural
 * mismatch (truncation, tag skew, trailing bytes) raises
 * guard::CheckpointError instead of reading garbage.
 *
 * The layout is deliberately dumb — a flat stream with inline section
 * markers — because save and restore are always the same code walking
 * the same fields in the same order. Sections exist to turn "the
 * stream drifted" into a named, structured error at the first
 * divergent unit rather than a silent state corruption.
 *
 * The writer grows its buffer once per primitive. Large tables (cache
 * line arrays, TAGE rows) go one step further: block() hands out a
 * whole table's bytes at once and the table encodes its elements in
 * place with storeLE/loadLE, in exactly the bytes the per-primitive
 * calls would have produced, so the format does not depend on which
 * path wrote it.
 */

#ifndef COBRA_WARP_STATE_IO_HPP
#define COBRA_WARP_STATE_IO_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "guard/errors.hpp"

namespace cobra::warp {

/** FNV-1a 64-bit over a byte range; the archive payload checksum. */
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size);

/** Store @p v at @p p as sizeof(T) little-endian bytes. */
template <typename T>
inline void
storeLE(std::uint8_t* p, T v)
{
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Load sizeof(T) little-endian bytes from @p p. */
template <typename T>
inline T
loadLE(const std::uint8_t* p)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return v;
}

/** Serializes primitives and tagged sections into a byte buffer. */
class StateWriter
{
  public:
    StateWriter() { buf_.reserve(4096); }

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        storeLE(block(4), v);
    }

    void
    u64(std::uint64_t v)
    {
        storeLE(block(8), v);
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Length-prefixed vector of any unsigned-integral element. */
    template <typename T>
    void
    vecU(const std::vector<T>& v)
    {
        static_assert(std::is_unsigned_v<T>);
        u64(v.size());
        for (const T& x : v)
            u64(static_cast<std::uint64_t>(x));
    }

    /**
     * Append @p n bytes and return where they start; the caller fills
     * them before the next write (which may move the buffer).
     */
    std::uint8_t*
    block(std::size_t n)
    {
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        return buf_.data() + at;
    }

    /**
     * Open a named section. Purely a marker: the tag (and a sentinel)
     * is embedded in the stream so the reader can verify it is
     * decoding the unit it thinks it is.
     */
    void
    section(std::string_view tag)
    {
        u32(kSectionSentinel);
        str(tag);
    }

    const std::vector<std::uint8_t>& bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

    static constexpr std::uint32_t kSectionSentinel = 0x5EC7109Fu;

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Walks a StateWriter-produced byte stream back. Every accessor
 * bounds-checks; section() verifies the embedded tag. All failures
 * raise guard::CheckpointError naming the section being decoded.
 */
class StateReader
{
  public:
    StateReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t>& bytes)
        : StateReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        return loadLE<std::uint32_t>(block(4));
    }

    std::uint64_t
    u64()
    {
        return loadLE<std::uint64_t>(block(8));
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    bool
    boolean()
    {
        return checkedBool(u8());
    }

    /** Decode a boolean byte taken from a block(). */
    bool
    checkedBool(std::uint8_t v) const
    {
        if (v > 1)
            fail("boolean byte out of range");
        return v != 0;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        __builtin_memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (n > size_ - pos_)
            fail("string length exceeds archive");
        std::string s(reinterpret_cast<const char*>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Counterpart of StateWriter::vecU. */
    template <typename T>
    std::vector<T>
    vecU()
    {
        static_assert(std::is_unsigned_v<T>);
        const std::uint64_t n = u64();
        if (n > (size_ - pos_) / 8)
            fail("vector length exceeds archive");
        std::vector<T> v;
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t x = u64();
            if (static_cast<std::uint64_t>(static_cast<T>(x)) != x)
                fail("vector element out of range for target type");
            v.push_back(static_cast<T>(x));
        }
        return v;
    }

    /**
     * Claim the next @p n bytes in one bounds check (the counterpart
     * of StateWriter::block); a short archive fails as truncated.
     */
    const std::uint8_t*
    block(std::size_t n)
    {
        need(n);
        const std::uint8_t* p = data_ + pos_;
        pos_ += n;
        return p;
    }

    /** Verify the next unit is the section named @p tag. */
    void
    section(std::string_view tag)
    {
        if (u32() != StateWriter::kSectionSentinel)
            fail("section marker missing before '" + std::string(tag) +
                 "'");
        where_ = tag;
        const std::string got = str();
        if (got != tag)
            fail("expected section '" + std::string(tag) + "', found '" +
                 got + "'");
    }

    std::size_t remaining() const { return size_ - pos_; }

    /** Restores must consume the archive exactly. */
    void
    expectEnd() const
    {
        if (pos_ != size_) {
            throw guard::CheckpointError(
                std::string(where_),
                std::to_string(size_ - pos_) +
                    " trailing byte(s) after the last section");
        }
    }

    [[noreturn]] void
    fail(const std::string& detail) const
    {
        throw guard::CheckpointError(
            where_.empty() ? "archive" : std::string(where_), detail);
    }

  private:
    void
    need(std::size_t n) const
    {
        if (n > size_ - pos_)
            fail("archive truncated");
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string_view where_ = "";
};

} // namespace cobra::warp

#endif // COBRA_WARP_STATE_IO_HPP
