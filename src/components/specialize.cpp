/**
 * @file
 * The specialized loop's concrete side: maps a component's dynamic
 * type to the devirtualized call table of one of the library's final
 * component classes. Lives in components/ (not bpu/) because it is the
 * one place the composition layer is allowed to know every concrete
 * type.
 */

#include "bpu/specialize.hpp"

#include <typeinfo>

#include "components/bim.hpp"
#include "components/btb.hpp"
#include "components/gtag.hpp"
#include "components/ittage.hpp"
#include "components/loop.hpp"
#include "components/perceptron.hpp"
#include "components/stat_corrector.hpp"
#include "components/tage.hpp"
#include "components/tourney.hpp"
#include "components/yags.hpp"

namespace cobra::bpu::spec {

namespace {

/** The call table of whichever of @p T, @p Rest is exactly @p t, or
 *  nullptr. The library classes are final, so an exact typeid match
 *  is the only way to be one of them. */
template <typename T, typename... Rest>
const CompOps*
opsForType(const std::type_info& t)
{
    if (t == typeid(T))
        return opsOf<T>();
    if constexpr (sizeof...(Rest) > 0)
        return opsForType<Rest...>(t);
    else
        return nullptr;
}

} // namespace

const CompOps*
opsFor(const PredictorComponent& c)
{
    return opsForType<comps::Hbim, comps::Btb, comps::MicroBtb,
                      comps::Gtag, comps::Tage, comps::LoopPredictor,
                      comps::Tourney, comps::Ittage, comps::Perceptron,
                      comps::StatCorrector, comps::Yags>(typeid(c));
}

} // namespace cobra::bpu::spec
