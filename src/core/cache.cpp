#include "core/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bitutil.hpp"
#include "warp/state_io.hpp"

namespace cobra::core {

Cache::Cache(const CacheParams& p)
    : params_(p), stats_(p.name)
{
    const std::uint64_t lineCount = p.sizeBytes / p.lineBytes;
    assert(lineCount % p.ways == 0);
    sets_ = static_cast<unsigned>(lineCount / p.ways);
    assert(isPow2(sets_));
    lines_.resize(lineCount);
}

std::size_t
Cache::setOf(Addr addr) const
{
    return static_cast<std::size_t>(
        (addr / params_.lineBytes) & maskBits(ceilLog2(sets_)));
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return (addr / params_.lineBytes) >> ceilLog2(sets_);
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w) {
        const Line& l = lines_[set * params_.ways + w];
        if (l.lruStamp != 0 && l.tag == tag)
            return true;
    }
    return false;
}

bool
Cache::access(Addr addr)
{
    ++accesses_;
    const std::size_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w) {
        Line& l = lines_[set * params_.ways + w];
        if (l.lruStamp != 0 && l.tag == tag) {
            l.lruStamp = ++stamp_;
            return true;
        }
    }
    ++misses_;
    // The least recently used way; an invalid line's stamp is 0, so
    // the first invalid way wins.
    Line* victim = &lines_[set * params_.ways];
    for (unsigned w = 1; w < params_.ways; ++w) {
        Line& l = lines_[set * params_.ways + w];
        if (l.lruStamp < victim->lruStamp)
            victim = &l;
    }
    victim->tag = tag;
    victim->lruStamp = ++stamp_;
    return false;
}

std::uint64_t
Cache::storageBits() const
{
    const std::uint64_t lineCount = params_.sizeBytes / params_.lineBytes;
    const unsigned tagBits = 48 - ceilLog2(params_.lineBytes) -
                             ceilLog2(sets_);
    return lineCount * (params_.lineBytes * 8ull + tagBits + 2);
}

phys::PhysicalCost
Cache::physicalCost() const
{
    phys::PhysicalCost c;
    c.sramBits = storageBits();
    c.sramPorts = {1, 1, 0};
    c.logicGates = 5000;
    return c;
}

CacheHierarchy::CacheHierarchy(const HierarchyParams& p)
    : params_(p), l1i_(p.l1i), l1d_(p.l1d), l2_(p.l2), l3_(p.l3)
{
}

Cycle
CacheHierarchy::walkBeyondL1(Addr addr)
{
    if (l2_.access(addr))
        return params_.l2.hitLatency;
    if (l3_.access(addr))
        return params_.l2.hitLatency + params_.l3.hitLatency;
    return params_.l2.hitLatency + params_.l3.hitLatency +
           params_.memLatency;
}

Cycle
CacheHierarchy::fetchAccess(Addr addr)
{
    const Addr line = addr / params_.l1i.lineBytes;
    const bool hit = l1i_.access(addr);
    Cycle lat = params_.l1i.hitLatency;
    if (!hit) {
        // Next-line prefetcher (Table II): sequential misses are
        // covered — only discontinuous fetches pay the full walk.
        if (lastFetchLine_ != kInvalidAddr && line == lastFetchLine_ + 1)
            lat += params_.l2.hitLatency / 2;
        else
            lat += walkBeyondL1(addr);
        // Prefetch the following line.
        l1i_.access(addr + params_.l1i.lineBytes);
    }
    lastFetchLine_ = line;
    return lat;
}

Cycle
CacheHierarchy::loadAccess(Addr addr)
{
    const bool hit = l1d_.access(addr);
    Cycle lat = params_.l1d.hitLatency;
    if (!hit)
        lat += walkBeyondL1(addr);
    return lat;
}

Cycle
CacheHierarchy::storeAccess(Addr addr)
{
    // Write-allocate; stores retire through a store buffer, so the
    // visible occupancy is short.
    l1d_.access(addr);
    return 1;
}

// The line array is the bulk of a checkpoint, so it travels as two
// blocks: a bitmap of the valid lines (bit i % 8 of byte i / 8 is line
// i), then u64(tag), u64(lruStamp) of each valid line in line order.
// An empty line costs one bit, and the bytes are a function of the
// state.
constexpr std::size_t kLineStateBytes = 8 + 8;

void
Cache::saveState(warp::StateWriter& w) const
{
    const std::size_t n = lines_.size();
    w.u64(n);
    std::uint8_t* bitmap = w.block((n + 7) / 8);
    std::size_t valid = 0;
    for (std::size_t b = 0; b * 8 < n; ++b) {
        unsigned bits = 0;
        for (std::size_t i = b * 8; i < std::min(n, b * 8 + 8); ++i)
            bits |= unsigned{lines_[i].lruStamp != 0} << (i % 8);
        bitmap[b] = static_cast<std::uint8_t>(bits);
        valid += static_cast<std::size_t>(std::popcount(bits));
    }
    std::uint8_t* p = w.block(valid * kLineStateBytes);
    for (const Line& l : lines_) {
        if (l.lruStamp == 0)
            continue;
        warp::storeLE(p, l.tag);
        warp::storeLE(p + 8, l.lruStamp);
        p += kLineStateBytes;
    }
    w.u64(stamp_);
}

void
Cache::restoreState(warp::StateReader& r)
{
    const std::size_t n = lines_.size();
    if (r.u64() != n)
        r.fail("cache line count does not match this configuration");
    const std::size_t bitmapBytes = (n + 7) / 8;
    const std::uint8_t* bitmap = r.block(bitmapBytes);
    if (n % 8 != 0 && (bitmap[n / 8] >> (n % 8)) != 0)
        r.fail("cache bitmap marks a line past the last one");
    std::size_t valid = 0;
    for (std::size_t b = 0; b < bitmapBytes; ++b)
        valid += static_cast<std::size_t>(std::popcount(bitmap[b]));
    const std::uint8_t* entries = r.block(valid * kLineStateBytes);
    const std::uint64_t clock = r.u64();
    for (std::size_t k = 0; k < valid; ++k) {
        const auto stamp =
            warp::loadLE<std::uint64_t>(entries + k * kLineStateBytes + 8);
        if (stamp == 0 || stamp > clock)
            r.fail("valid cache line stamp outside [1, LRU clock]");
    }

    // Every line not named below must read invalid; a cache that never
    // filled a line (stamp_ == 0) already does.
    if (stamp_ != 0)
        std::fill(lines_.begin(), lines_.end(), Line{});
    const std::uint8_t* p = entries;
    for (std::size_t b = 0; b < bitmapBytes; ++b) {
        for (unsigned bits = bitmap[b]; bits != 0; bits &= bits - 1) {
            Line& l = lines_[b * 8 + static_cast<std::size_t>(
                                         std::countr_zero(bits))];
            l.tag = warp::loadLE<std::uint64_t>(p);
            l.lruStamp = warp::loadLE<std::uint64_t>(p + 8);
            p += kLineStateBytes;
        }
    }
    stamp_ = clock;
}

void
CacheHierarchy::saveState(warp::StateWriter& w) const
{
    l1i_.saveState(w);
    l1d_.saveState(w);
    l2_.saveState(w);
    l3_.saveState(w);
    w.u64(lastFetchLine_);
}

void
CacheHierarchy::restoreState(warp::StateReader& r)
{
    l1i_.restoreState(r);
    l1d_.restoreState(r);
    l2_.restoreState(r);
    l3_.restoreState(r);
    lastFetchLine_ = r.u64();
}

} // namespace cobra::core
