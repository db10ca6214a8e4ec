/**
 * @file
 * A small-buffer-optimised dynamic array for trivially-copyable
 * value types on the simulator's hot path. Up to @p N elements live
 * inline (no heap traffic); longer sequences transparently spill to a
 * heap buffer. Metadata bundles, history-register words, and other
 * per-prediction state use this so that the cycle loop — and the
 * history-file / repair-queue copies it drives — allocate nothing in
 * steady state.
 */

#ifndef COBRA_COMMON_SMALL_VECTOR_HPP
#define COBRA_COMMON_SMALL_VECTOR_HPP

#include <array>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

namespace cobra {

/**
 * Fixed-inline-capacity vector. Elements are stored in an inline
 * array while size() <= N and in a heap buffer beyond that; the
 * transition copies, so T must be trivially copyable (all hot-path
 * payloads are). The heap buffer is plain storage rather than a
 * std::vector so that SmallVector<bool, N> keeps real bools with
 * addressable data().
 */
template <typename T, std::size_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector is for trivially-copyable payloads");
    static_assert(N >= 1);

  public:
    SmallVector() = default;

    explicit SmallVector(std::size_t n, const T& value = T())
    {
        assign(n, value);
    }

    SmallVector(const SmallVector& o) { *this = o; }

    SmallVector&
    operator=(const SmallVector& o)
    {
        if (this == &o)
            return *this;
        reserveFor(o.size_);
        size_ = o.size_;
        std::memcpy(data(), o.data(), size_ * sizeof(T));
        return *this;
    }

    SmallVector(SmallVector&& o) noexcept
        : size_(o.size_), inline_(o.inline_), heap_(std::move(o.heap_)),
          heapCap_(o.heapCap_)
    {
        o.size_ = 0;
        o.heapCap_ = 0;
    }

    SmallVector&
    operator=(SmallVector&& o) noexcept
    {
        if (this == &o)
            return *this;
        size_ = o.size_;
        inline_ = o.inline_;
        heap_ = std::move(o.heap_);
        heapCap_ = o.heapCap_;
        o.size_ = 0;
        o.heapCap_ = 0;
        return *this;
    }

    /** Resize to @p n elements, each a copy of @p value. */
    void
    assign(std::size_t n, const T& value = T())
    {
        reserveFor(n);
        size_ = n;
        T* d = data();
        for (std::size_t i = 0; i < n; ++i)
            d[i] = value;
    }

    void
    push_back(const T& value)
    {
        reserveFor(size_ + 1);
        // Pick storage for the NEW size: the write that crosses the
        // inline->heap boundary must land in the heap buffer.
        T* d = size_ + 1 <= N ? inline_.data() : heap_.get();
        d[size_++] = value;
    }

    void clear() { size_ = 0; }

    void
    resize(std::size_t n)
    {
        if (n <= size_) {
            if (size_ > N && n <= N)
                std::memcpy(inline_.data(), heap_.get(), n * sizeof(T));
            size_ = n;
            return;
        }
        const std::size_t old = size_;
        reserveFor(n);
        size_ = n; // data() must resolve against the grown size.
        T* d = data();
        for (std::size_t i = old; i < n; ++i)
            d[i] = T();
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T&
    operator[](std::size_t i)
    {
        assert(i < size_);
        return data()[i];
    }

    const T&
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return data()[i];
    }

    T* data() { return size_ <= N ? inline_.data() : heap_.get(); }
    const T* data() const
    {
        return size_ <= N ? inline_.data() : heap_.get();
    }

    T* begin() { return data(); }
    T* end() { return data() + size_; }
    const T* begin() const { return data(); }
    const T* end() const { return data() + size_; }

    T& front() { return (*this)[0]; }
    const T& front() const { return (*this)[0]; }
    T& back() { return (*this)[size_ - 1]; }
    const T& back() const { return (*this)[size_ - 1]; }

    bool
    operator==(const SmallVector& o) const
    {
        if (size_ != o.size_)
            return false;
        const T* a = data();
        const T* b = o.data();
        for (std::size_t i = 0; i < size_; ++i) {
            if (!(a[i] == b[i]))
                return false;
        }
        return true;
    }

    bool operator!=(const SmallVector& o) const { return !(*this == o); }

  private:
    /** Ensure storage for @p n elements, keeping current contents. */
    void
    reserveFor(std::size_t n)
    {
        if (n <= N || n <= heapCap_) {
            if (n > N && size_ <= N) // Re-spill into retained buffer.
                std::memcpy(heap_.get(), inline_.data(),
                            size_ * sizeof(T));
            return;
        }
        std::size_t cap = heapCap_ ? heapCap_ : 2 * N;
        while (cap < n)
            cap *= 2;
        auto grown = std::make_unique<T[]>(cap);
        std::memcpy(grown.get(), data(), size_ * sizeof(T));
        heap_ = std::move(grown);
        heapCap_ = cap;
    }

    std::size_t size_ = 0;
    std::array<T, N> inline_{};
    std::unique_ptr<T[]> heap_;
    std::size_t heapCap_ = 0;
};

} // namespace cobra

#endif // COBRA_COMMON_SMALL_VECTOR_HPP
