/**
 * @file
 * Serialization helpers for the COBRA predictor-interface value types
 * (prediction bundles, metadata, per-slot masks). Shared by the query
 * state, the history file, and the frontend packet pipeline so every
 * layer encodes these shapes identically.
 */

#ifndef COBRA_WARP_STATE_BPU_HPP
#define COBRA_WARP_STATE_BPU_HPP

#include "bpu/pred_types.hpp"
#include "warp/state_io.hpp"

namespace cobra::warp {

inline void
saveSlot(StateWriter& w, const bpu::PredictionSlot& s)
{
    w.boolean(s.valid);
    w.boolean(s.taken);
    w.boolean(s.targetValid);
    w.u64(s.target);
    w.u8(static_cast<std::uint8_t>(s.type));
    w.boolean(s.isCall);
    w.boolean(s.isRet);
}

inline void
loadSlot(StateReader& r, bpu::PredictionSlot& s)
{
    s.valid = r.boolean();
    s.taken = r.boolean();
    s.targetValid = r.boolean();
    s.target = r.u64();
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(bpu::CfiType::Jalr))
        r.fail("CFI type byte out of range");
    s.type = static_cast<bpu::CfiType>(type);
    s.isCall = r.boolean();
    s.isRet = r.boolean();
}

inline void
saveBundle(StateWriter& w, const bpu::PredictionBundle& b)
{
    w.u32(b.width);
    for (const auto& s : b.slots)
        saveSlot(w, s);
}

inline void
loadBundle(StateReader& r, bpu::PredictionBundle& b)
{
    const std::uint32_t width = r.u32();
    if (width < 1 || width > bpu::kMaxFetchWidth)
        r.fail("bundle width out of range");
    b.width = width;
    for (auto& s : b.slots)
        loadSlot(r, s);
}

inline void
saveMeta(StateWriter& w, const bpu::Metadata& m)
{
    for (std::uint64_t word : m.w)
        w.u64(word);
}

inline void
loadMeta(StateReader& r, bpu::Metadata& m)
{
    for (std::uint64_t& word : m.w)
        word = r.u64();
}

inline void
saveMetas(StateWriter& w, const bpu::MetadataBundle& metas)
{
    w.u32(static_cast<std::uint32_t>(metas.size()));
    for (const auto& m : metas)
        saveMeta(w, m);
}

/** Load a metadata bundle that must hold @p count entries, one per
 *  component of the predictor being restored. */
inline void
loadMetas(StateReader& r, bpu::MetadataBundle& metas, std::size_t count)
{
    if (r.u32() != count)
        r.fail("metadata count differs from the component count");
    metas.clear();
    for (std::size_t i = 0; i < count; ++i) {
        bpu::Metadata m;
        loadMeta(r, m);
        metas.push_back(m);
    }
}

inline void
saveBoolArray(StateWriter& w,
              const std::array<bool, bpu::kMaxFetchWidth>& a)
{
    for (bool b : a)
        w.boolean(b);
}

inline void
loadBoolArray(StateReader& r, std::array<bool, bpu::kMaxFetchWidth>& a)
{
    for (bool& b : a)
        b = r.boolean();
}

inline void
saveU8Array(StateWriter& w,
            const std::array<std::uint8_t, bpu::kMaxFetchWidth>& a)
{
    for (std::uint8_t b : a)
        w.u8(b);
}

inline void
loadU8Array(StateReader& r,
            std::array<std::uint8_t, bpu::kMaxFetchWidth>& a)
{
    for (std::uint8_t& b : a)
        b = r.u8();
}

} // namespace cobra::warp

#endif // COBRA_WARP_STATE_BPU_HPP
