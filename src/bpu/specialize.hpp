/**
 * @file
 * Specialized simulation loops: devirtualized call tables for the
 * library's concrete component types. When every component of a
 * composed pipeline is one of the library's final classes, the
 * composer binds the fused loop: predict/arbitrate and the four
 * resolution events run through direct (devirtualized) calls and a
 * flattened per-stage evaluation plan instead of virtual dispatch over
 * a recursive tree walk.
 *
 * The fused loop shares the generic path's algorithm code — the thunks
 * below only change *how the call is dispatched*, never what it does —
 * so generic and specialized runs are bit-identical by construction
 * (enforced by tests/test_specialize.cpp).
 *
 * Guard decorators (ContractAuditor, FaultInjector) are not library
 * component types, so audited or fault-injected topologies always run
 * the generic path where every virtual call is observed.
 */

#ifndef COBRA_BPU_SPECIALIZE_HPP
#define COBRA_BPU_SPECIALIZE_HPP

#include <span>

#include "bpu/component.hpp"

namespace cobra::bpu::spec {

/**
 * Devirtualized call table for one concrete (final) component type.
 * Each thunk static_casts to the concrete type and calls the member
 * directly; because the library's component classes are final, the
 * compiler emits direct calls with no vtable load.
 */
struct CompOps
{
    void (*predict)(PredictorComponent*, const PredictContext&,
                    PredictionBundle&, Metadata&);
    void (*arbitrate)(PredictorComponent*, const PredictContext&,
                      std::span<const PredictionBundle>,
                      PredictionBundle&, Metadata&);
    void (*fire)(PredictorComponent*, const FireEvent&);
    void (*mispredict)(PredictorComponent*, const ResolveEvent&);
    void (*repair)(PredictorComponent*, const ResolveEvent&);
    void (*update)(PredictorComponent*, const ResolveEvent&);
    void (*prefetch)(const PredictorComponent*, const PredictContext&);
};

/** Build the call table for concrete component type @p T. */
template <typename T>
const CompOps*
opsOf()
{
    static const CompOps ops = {
        [](PredictorComponent* c, const PredictContext& ctx,
           PredictionBundle& b, Metadata& m) {
            static_cast<T*>(c)->predict(ctx, b, m);
        },
        [](PredictorComponent* c, const PredictContext& ctx,
           std::span<const PredictionBundle> in, PredictionBundle& b,
           Metadata& m) {
            static_cast<T*>(c)->arbitrate(ctx, in, b, m);
        },
        [](PredictorComponent* c, const FireEvent& ev) {
            static_cast<T*>(c)->fire(ev);
        },
        [](PredictorComponent* c, const ResolveEvent& ev) {
            static_cast<T*>(c)->mispredict(ev);
        },
        [](PredictorComponent* c, const ResolveEvent& ev) {
            static_cast<T*>(c)->repair(ev);
        },
        [](PredictorComponent* c, const ResolveEvent& ev) {
            static_cast<T*>(c)->update(ev);
        },
        [](const PredictorComponent* c, const PredictContext& ctx) {
            static_cast<const T*>(c)->prefetch(ctx);
        },
    };
    return &ops;
}

/**
 * Match @p c's dynamic type against the library's final component
 * types. Returns nullptr for any other type (guard wrappers,
 * out-of-library components), which forces the generic path.
 */
const CompOps* opsFor(const PredictorComponent& c);

} // namespace cobra::bpu::spec

#endif // COBRA_BPU_SPECIALIZE_HPP
