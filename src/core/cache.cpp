#include "core/cache.hpp"

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
        if (l.valid && l.tag == tag)
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
        if (l.valid && l.tag == tag) {
            l.lruStamp = ++stamp_;
            return true;
        }
    }
    ++misses_;
    Line* victim = &lines_[set * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w) {
        Line& l = lines_[set * params_.ways + w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lruStamp < victim->lruStamp)
            victim = &l;
    }
    victim->valid = true;
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

// The line array is the bulk of a checkpoint, so it travels as one
// block: per line the bytes of boolean(valid), u64(tag), u64(lruStamp).
constexpr std::size_t kLineStateBytes = 1 + 8 + 8;

void
Cache::saveState(warp::StateWriter& w) const
{
    w.u64(lines_.size());
    std::uint8_t* p = w.block(lines_.size() * kLineStateBytes);
    for (const Line& l : lines_) {
        p[0] = l.valid ? 1 : 0;
        warp::storeLE(p + 1, l.tag);
        warp::storeLE(p + 9, l.lruStamp);
        p += kLineStateBytes;
    }
    w.u64(stamp_);
}

void
Cache::restoreState(warp::StateReader& r)
{
    if (r.u64() != lines_.size())
        r.fail("cache line count does not match this configuration");
    const std::uint8_t* p = r.block(lines_.size() * kLineStateBytes);
    for (Line& l : lines_) {
        l.valid = r.checkedBool(p[0]);
        l.tag = warp::loadLE<std::uint64_t>(p + 1);
        l.lruStamp = warp::loadLE<std::uint64_t>(p + 9);
        p += kLineStateBytes;
    }
    stamp_ = r.u64();
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
