// One-call evaluation harness: run the full estimator suite on a trace and
// compare candidate policies ("Which policy is the best?" — Figure 1).
#ifndef DRE_CORE_EVALUATOR_H
#define DRE_CORE_EVALUATOR_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/propensity.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "obs/report.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace dre::core {

struct EvaluationConfig {
    RewardModelKind reward_model = RewardModelKind::kTabular;
    // When true, re-estimate logging propensities from the trace instead of
    // trusting the logged ones (paper §2.1's "in practice" caveat).
    bool estimate_propensities = false;
    EstimatorOptions estimator_options;
    // Fit the reward model on a split disjoint from the evaluation tuples
    // (avoids the optimistic bias of fitting and evaluating on the same data).
    bool cross_fit = false;
    double cross_fit_train_fraction = 0.5;
    // Bootstrap CI settings (0 replicates disables CIs).
    int ci_replicates = 0;
    double ci_level = 0.95;
};

// Values only: the EstimateResult::per_tuple vectors stay empty (the
// per-estimator functions in core/estimators.h fill them).
struct PolicyEvaluation {
    EstimateResult dm;
    EstimateResult ips;
    EstimateResult snips;
    EstimateResult dr;
    EstimateResult switch_dr;
    OverlapDiagnostics overlap;
    std::optional<stats::ConfidenceInterval> dr_ci;

    // The headline number: DR (paper's recommendation).
    double value() const noexcept { return dr.value; }
};

// Coverage-qualified DR CI, shared by streaming's kDegrade mode and the
// serve brownout: divides each half-width of `evaluation.dr_ci` by
// `coverage` (evaluated / total tuples). Deterministic, monotone in the
// skipped mass, and the identity unless a CI is present and 0 < coverage
// < 1.
void widen_ci_by_coverage(PolicyEvaluation& evaluation,
                          double coverage) noexcept;

class Evaluator {
public:
    Evaluator(Trace trace, EvaluationConfig config, stats::Rng rng);

    // Evaluate one candidate policy.
    PolicyEvaluation evaluate(const Policy& new_policy) const;

    // Evaluate with an explicit caller-owned RNG instead of the shared
    // mutable stream, so many threads can evaluate on one shared Evaluator
    // concurrently and the result depends only on the arguments. With
    // cross_fit and estimate_propensities off, the constructor never draws
    // from its RNG, so `evaluate_seeded(p, Rng(seed))` on a cached
    // Evaluator reproduces `Evaluator(trace, config, Rng(seed)).evaluate(p)`
    // byte for byte — the serve layer's determinism contract rests on this.
    // Negative ci_replicates/ci_level inherit the config; non-negative
    // values override per call, so one cached instance answers requests
    // with different --ci settings.
    PolicyEvaluation evaluate_seeded(const Policy& new_policy, stats::Rng rng,
                                     int ci_replicates = -1,
                                     double ci_level = -1.0) const;

    // Evaluate several candidates and return the index of the DR-best one.
    // Candidates are evaluated concurrently (dre::par); each gets its own
    // split RNG stream keyed by its index, so the result is bit-identical
    // for any DRE_THREADS setting.
    struct Comparison {
        std::vector<PolicyEvaluation> evaluations;
        std::size_t best_index = 0;
    };
    Comparison compare(const std::vector<const Policy*>& policies) const;

    const Trace& evaluation_trace() const noexcept { return evaluation_trace_; }
    const RewardModel& reward_model() const;

    // The shared q̂[tuple × decision] matrix: the fitted model evaluated
    // once at every (evaluation tuple, decision) pair in the constructor.
    // All model-based estimators in evaluate()/compare() read from it
    // instead of re-querying the model, with bit-identical results.
    const PredictionMatrix& prediction_matrix() const noexcept { return qhat_; }

private:
    PolicyEvaluation evaluate_with(const Policy& new_policy, stats::Rng& rng,
                                   int ci_replicates, double ci_level) const;

    EvaluationConfig config_;
    mutable stats::Rng rng_;
    Trace evaluation_trace_;     // tuples the estimators average over
    std::unique_ptr<RewardModel> model_;
    PredictionMatrix qhat_;      // q̂ over evaluation_trace_ × decisions
};

// The canonical result document for one policy evaluation: a "policy
// <spec>" section with the five estimates (DR rendered with its CI when
// present) and a "diagnostics" section with the overlap numbers. This is
// what dre_eval prints and what a serve Result frame carries, so server
// responses are byte-diffable against CLI stdout by construction.
obs::Report make_policy_report(std::string_view policy_spec,
                               const PolicyEvaluation& result);

} // namespace dre::core

#endif // DRE_CORE_EVALUATOR_H
