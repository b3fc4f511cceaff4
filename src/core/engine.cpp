#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace dre::core {

void RunState::merge(const ChunkPartial& chunk,
                     stats::ChunkedMeanBootstrap* bootstrap) {
    dm.merge(chunk.dm);
    ips.merge(chunk.ips);
    dr.merge(chunk.dr);
    switch_dr.merge(chunk.switch_dr);
    weight_total += chunk.weight_sum;
    weighted_reward_total += chunk.weighted_reward_sum;
    for (const double w : chunk.weights) {
        o_sum += w;
        o_sum_sq += w * w;
        o_max = std::max(o_max, w);
        if (w == 0.0) ++o_zeros;
        weight_acc.add(w);
    }
    if (bootstrap != nullptr && !chunk.boot_partials.empty())
        bootstrap->merge(chunk.boot_partials);
}

PolicyEvaluation finalize(const RunState& state,
                          const stats::ChunkedMeanBootstrap* bootstrap) {
    PolicyEvaluation out;
    out.dm = {state.dm.mean, {}, "DM"};
    out.ips = {state.ips.mean, {}, "IPS"};
    out.snips = {state.weight_total <= 0.0
                     ? 0.0
                     : state.weighted_reward_total / state.weight_total,
                 {}, "SNIPS"};
    out.dr = {state.dr.mean, {}, "DR"};
    out.switch_dr = {state.switch_dr.mean, {}, "SWITCH-DR"};

    OverlapDiagnostics& diag = out.overlap;
    const auto dn = static_cast<double>(state.evaluated());
    diag.n = static_cast<std::size_t>(state.evaluated());
    diag.max_weight = state.o_max;
    diag.mean_weight = state.o_sum / dn;
    diag.effective_sample_size =
        state.o_sum_sq > 0.0 ? state.o_sum * state.o_sum / state.o_sum_sq
                             : 0.0;
    diag.effective_sample_fraction = diag.effective_sample_size / dn;
    const double var = state.weight_acc.variance();
    diag.weight_cv =
        diag.mean_weight > 0.0 ? std::sqrt(var) / diag.mean_weight : 0.0;
    diag.zero_weight_fraction = static_cast<double>(state.o_zeros) / dn;
    DRE_GAUGE_SET("estimators.effective_sample_size",
                  diag.effective_sample_size);
    DRE_GAUGE_SET("estimators.effective_sample_fraction",
                  diag.effective_sample_fraction);

    if (bootstrap != nullptr)
        out.dr_ci = bootstrap->finalize(state.evaluated(), out.dr.value);
    return out;
}

} // namespace dre::core
