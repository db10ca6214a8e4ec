/**
 * @file
 * Serialization helpers for the recurring state shapes of the model:
 * saturating counters (and vectors of them), history registers, and
 * RNG cores. Only *state* is serialized, never configuration — the
 * restoring object is always constructed from the same SimConfig (the
 * checkpoint fingerprint guarantees it), so widths/lengths act as
 * implicit schema checks: a size mismatch means the archive does not
 * belong to this configuration and raises guard::CheckpointError.
 */

#ifndef COBRA_WARP_STATE_UTIL_HPP
#define COBRA_WARP_STATE_UTIL_HPP

#include <vector>

#include "common/folded_history.hpp"
#include "common/random.hpp"
#include "common/sat_counter.hpp"
#include "warp/state_io.hpp"

namespace cobra::warp {

inline void
saveSat(StateWriter& w, const SatCounter& c)
{
    w.u32(c.value());
}

/** Set @p c to a decoded value @p v, range-checked. */
inline void
setSat(const StateReader& r, SatCounter& c, std::uint32_t v)
{
    if (v > c.maxValue())
        r.fail("saturating-counter value exceeds its range");
    c.set(v);
}

inline void
loadSat(StateReader& r, SatCounter& c)
{
    setSat(r, c, r.u32());
}

inline void
saveSigned(StateWriter& w, const SignedSatCounter& c)
{
    w.i64(c.value());
}

inline void
loadSigned(StateReader& r, SignedSatCounter& c)
{
    const std::int64_t v = r.i64();
    if (v < c.minValue() || v > c.maxValue())
        r.fail("signed-counter value exceeds its range");
    c.set(static_cast<int>(v));
}

template <typename SaveOne, typename T>
void
saveVec(StateWriter& w, const std::vector<T>& v, SaveOne&& one)
{
    w.u64(v.size());
    for (const T& x : v)
        one(w, x);
}

template <typename LoadOne, typename T>
void
loadVec(StateReader& r, std::vector<T>& v, LoadOne&& one)
{
    if (r.u64() != v.size())
        r.fail("table size does not match this configuration");
    for (T& x : v)
        one(r, x);
}

inline void
saveSatVec(StateWriter& w, const std::vector<SatCounter>& v)
{
    saveVec(w, v, [](StateWriter& ww, const SatCounter& c) {
        saveSat(ww, c);
    });
}

inline void
loadSatVec(StateReader& r, std::vector<SatCounter>& v)
{
    loadVec(r, v, [](StateReader& rr, SatCounter& c) { loadSat(rr, c); });
}

inline void
saveSignedVec(StateWriter& w, const std::vector<SignedSatCounter>& v)
{
    saveVec(w, v, [](StateWriter& ww, const SignedSatCounter& c) {
        saveSigned(ww, c);
    });
}

inline void
loadSignedVec(StateReader& r, std::vector<SignedSatCounter>& v)
{
    loadVec(r, v, [](StateReader& rr, SignedSatCounter& c) {
        loadSigned(rr, c);
    });
}

inline void
saveHist(StateWriter& w, const HistoryRegister& h)
{
    w.vecU(h.snapshot());
}

inline void
loadHist(StateReader& r, HistoryRegister& h)
{
    const std::vector<std::uint64_t> words = r.vecU<std::uint64_t>();
    if (words.size() != h.snapshot().size())
        r.fail("history-register width does not match");
    h.restore(words);
}

inline void
saveRng(StateWriter& w, const Rng& rng)
{
    std::uint64_t s[4];
    rng.state(s);
    for (std::uint64_t x : s)
        w.u64(x);
}

inline void
loadRng(StateReader& r, Rng& rng)
{
    std::uint64_t s[4];
    for (auto& x : s)
        x = r.u64();
    rng.setState(s);
}

} // namespace cobra::warp

#endif // COBRA_WARP_STATE_UTIL_HPP
