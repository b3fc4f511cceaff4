#include "core/evaluator.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/engine.h"
#include "core/parallel.h"
#include "obs/obs.h"

namespace dre::core {

void widen_ci_by_coverage(PolicyEvaluation& evaluation,
                          double coverage) noexcept {
    if (!evaluation.dr_ci || !(coverage > 0.0 && coverage < 1.0)) return;
    stats::ConfidenceInterval& ci = *evaluation.dr_ci;
    ci.lower = ci.point - (ci.point - ci.lower) / coverage;
    ci.upper = ci.point + (ci.upper - ci.point) / coverage;
}

Evaluator::Evaluator(Trace trace, EvaluationConfig config, stats::Rng rng)
    : config_(config), rng_(rng) {
    validate_trace(trace);
    if (trace.empty()) throw std::invalid_argument("Evaluator: empty trace");

    if (config_.estimate_propensities) {
        TabularPropensityModel propensity_model(trace.num_decisions());
        propensity_model.fit(trace);
        trace = with_estimated_propensities(trace, propensity_model);
        validate_trace(trace); // evaluate_with trusts every tuple
    }

    if (config_.cross_fit) {
        auto [train, holdout] = trace.split(config_.cross_fit_train_fraction, rng_);
        if (train.empty() || holdout.empty())
            throw std::invalid_argument("Evaluator: cross-fit split produced empty half");
        model_ = fit_reward_model(config_.reward_model, trace.num_decisions(), train);
        evaluation_trace_ = std::move(holdout);
    } else {
        model_ = fit_reward_model(config_.reward_model, trace.num_decisions(), trace);
        evaluation_trace_ = std::move(trace);
    }
    // Evaluate the model once per (tuple, decision); every estimator run —
    // and every bootstrap replicate under the hood — reuses this matrix.
    qhat_ = PredictionMatrix::build(*model_, evaluation_trace_);
}

const RewardModel& Evaluator::reward_model() const {
    return *model_;
}

PolicyEvaluation Evaluator::evaluate_with(const Policy& new_policy,
                                          stats::Rng& rng, int ci_replicates,
                                          double ci_level) const {
    DRE_SPAN("evaluator.evaluate");
#if DRE_OBS_ENABLED
    const std::uint64_t eval_start_ns = obs::now_ns();
#endif
    // The checks the per-estimator functions make, once per evaluation (the
    // constructor already validated the tuples).
    if (evaluation_trace_.num_decisions() > new_policy.num_decisions())
        throw std::invalid_argument(
            "estimator: trace uses decisions outside policy space");
    if (qhat_.num_decisions() != new_policy.num_decisions())
        throw std::invalid_argument(
            "estimator: matrix/policy decision-space mismatch");
    const EstimatorOptions& options = config_.estimator_options;
    if (!(options.switch_threshold > 0.0))
        throw std::invalid_argument("switch_doubly_robust: threshold must be > 0");

    // The generator advances exactly once — inside the bootstrap — and only
    // when a CI is on; evaluate_streaming follows the same protocol.
    std::optional<stats::ChunkedMeanBootstrap> bootstrap;
    if (ci_replicates > 0) bootstrap.emplace(rng.split(), ci_replicates, ci_level);
    stats::ChunkedMeanBootstrap* boot = bootstrap ? &*bootstrap : nullptr;

    // One engine pass per chunk over the resident tuples and q̂ rows.
    const std::span<const LoggedTuple> tuples = evaluation_trace_.tuples();
    const std::size_t chunks =
        (tuples.size() + par::kReduceChunk - 1) / par::kReduceChunk;
    std::vector<ChunkPartial> partials(chunks);
    par::parallel_for(chunks, [&](std::size_t c) {
        const std::size_t begin = c * par::kReduceChunk;
        partials[c] = evaluate_chunk(
            tuples.subspan(begin, std::min(par::kReduceChunk,
                                           tuples.size() - begin)),
            qhat_.row(begin), new_policy, options, boot, c);
    });
    RunState state;
    for (const ChunkPartial& partial : partials)
        state.merge(partial, boot);
    PolicyEvaluation out = finalize(state, boot);
#if DRE_OBS_ENABLED
    // Timing-derived, so diagnostics-only — never fingerprinted.
    const double elapsed_s =
        static_cast<double>(obs::now_ns() - eval_start_ns) / 1e9;
    if (elapsed_s > 0.0) {
        DRE_GAUGE_SET("evaluator.tuples_per_sec",
                      static_cast<double>(evaluation_trace_.size()) / elapsed_s);
    }
    DRE_COUNTER_ADD("evaluator.tuples_evaluated", evaluation_trace_.size());
    DRE_COUNTER_INC("evaluator.policies_evaluated");
#endif
    return out;
}

PolicyEvaluation Evaluator::evaluate(const Policy& new_policy) const {
    return evaluate_with(new_policy, rng_, config_.ci_replicates,
                         config_.ci_level);
}

PolicyEvaluation Evaluator::evaluate_seeded(const Policy& new_policy,
                                            stats::Rng rng, int ci_replicates,
                                            double ci_level) const {
    return evaluate_with(new_policy, rng,
                         ci_replicates < 0 ? config_.ci_replicates
                                           : ci_replicates,
                         ci_level < 0.0 ? config_.ci_level : ci_level);
}

Evaluator::Comparison Evaluator::compare(
    const std::vector<const Policy*>& policies) const {
    if (policies.empty()) throw std::invalid_argument("Evaluator::compare: no policies");
    for (const Policy* policy : policies)
        if (!policy) throw std::invalid_argument("Evaluator::compare: null policy");

    // One advance of the shared generator, then a split stream per policy:
    // the evaluations are independent of each other and of the thread
    // count, so they can run concurrently yet stay bit-reproducible.
    DRE_SPAN("evaluator.compare");
    const stats::Rng base = rng_.split();
    Comparison comparison;
    comparison.evaluations.resize(policies.size());
    par::parallel_for(policies.size(), [&](std::size_t i) {
        stats::Rng policy_rng = base.split(i);
        comparison.evaluations[i] =
            evaluate_with(*policies[i], policy_rng, config_.ci_replicates,
                          config_.ci_level);
    });
    for (std::size_t i = 1; i < comparison.evaluations.size(); ++i) {
        if (comparison.evaluations[i].value() >
            comparison.evaluations[comparison.best_index].value())
            comparison.best_index = i;
    }
    return comparison;
}

obs::Report make_policy_report(std::string_view policy_spec,
                               const PolicyEvaluation& result) {
    obs::Report out;
    const std::string policy_section = "policy " + std::string(policy_spec);
    out.set(policy_section, "DM", result.dm.value);
    out.set(policy_section, "IPS", result.ips.value);
    out.set(policy_section, "SNIPS", result.snips.value);
    out.set(policy_section, "SWITCH-DR", result.switch_dr.value);
    if (result.dr_ci) {
        char dr_row[128];
        std::snprintf(dr_row, sizeof(dr_row),
                      "%10.4f   %.0f%% CI [%.4f, %.4f]", result.dr.value,
                      100.0 * result.dr_ci->level, result.dr_ci->lower,
                      result.dr_ci->upper);
        out.set(policy_section, "DR", dr_row);
    } else {
        out.set(policy_section, "DR", result.dr.value);
    }
    out.set("diagnostics", "effective sample size",
            result.overlap.effective_sample_size);
    out.set("diagnostics", "effective sample %",
            100.0 * result.overlap.effective_sample_fraction);
    out.set("diagnostics", "mean importance weight",
            result.overlap.mean_weight);
    out.set("diagnostics", "max importance weight",
            result.overlap.max_weight);
    out.set("diagnostics", "zero-weight tuples %",
            100.0 * result.overlap.zero_weight_fraction);
    return out;
}

} // namespace dre::core
