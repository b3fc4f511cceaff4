// Test oracle for the evaluation engine (core/engine.h).
//
// six_pass_oracle runs the estimator suite the plain way: DM, IPS, SNIPS,
// DR and SWITCH-DR as separate passes of the per-estimator functions in
// core/estimators.h, overlap_diagnostics as a sixth, then the chunk-keyed
// DR bootstrap over DR's per-tuple contributions. Evaluator and
// evaluate_streaming must both reproduce it bit for bit.
#ifndef DRE_TESTS_ESTIMATOR_ORACLE_H
#define DRE_TESTS_ESTIMATOR_ORACLE_H

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "core/estimators.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/qhat.h"
#include "core/streaming.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"

namespace dre::core::oracle {

inline PolicyEvaluation six_pass_oracle(const Trace& trace, const Policy& policy,
                                        const PredictionMatrix& qhat,
                                        const EstimatorOptions& options,
                                        stats::Rng rng, int ci_replicates,
                                        double ci_level = 0.95) {
    PolicyEvaluation out;
    out.dm = direct_method(trace, policy, qhat);
    out.ips = inverse_propensity(trace, policy);
    out.snips = self_normalized_ips(trace, policy);
    out.dr = doubly_robust(trace, policy, qhat);
    out.switch_dr = switch_doubly_robust(trace, policy, qhat, options);
    out.overlap = overlap_diagnostics(trace, policy);
    if (ci_replicates > 0)
        out.dr_ci = stats::chunked_bootstrap_mean_ci(
            out.dr.per_tuple, out.dr.value, rng, ci_replicates, ci_level);
    return out;
}

// Every number a PolicyEvaluation reports, as raw bit patterns: the five
// estimates, the overlap diagnostics and the CI (point, endpoints, level).
inline std::vector<std::uint64_t> evaluation_bits(const PolicyEvaluation& e) {
    std::vector<std::uint64_t> bits;
    for (const double x :
         {e.dm.value, e.ips.value, e.snips.value, e.dr.value, e.switch_dr.value,
          e.overlap.effective_sample_size, e.overlap.effective_sample_fraction,
          e.overlap.max_weight, e.overlap.mean_weight, e.overlap.weight_cv,
          e.overlap.zero_weight_fraction})
        bits.push_back(std::bit_cast<std::uint64_t>(x));
    bits.push_back(e.overlap.n);
    bits.push_back(e.dr_ci.has_value());
    if (e.dr_ci)
        for (const double x :
             {e.dr_ci->point, e.dr_ci->lower, e.dr_ci->upper, e.dr_ci->level})
            bits.push_back(std::bit_cast<std::uint64_t>(x));
    return bits;
}

inline void expect_matches_oracle(const PolicyEvaluation& got,
                                  const PolicyEvaluation& want,
                                  const std::string& label) {
    EXPECT_EQ(evaluation_bits(got), evaluation_bits(want)) << label;
    EXPECT_EQ(got.dm.estimator, want.dm.estimator) << label;
    EXPECT_EQ(got.ips.estimator, want.ips.estimator) << label;
    EXPECT_EQ(got.snips.estimator, want.snips.estimator) << label;
    EXPECT_EQ(got.dr.estimator, want.dr.estimator) << label;
    EXPECT_EQ(got.switch_dr.estimator, want.switch_dr.estimator) << label;
}

// Holds both front ends to the oracle for every policy, at DRE_THREADS 1
// and 8 and with the CI off and on: Evaluator::evaluate_seeded, and
// evaluate_streaming over the evaluator's own trace and model. Some policy
// must show a SWITCH fallback, so that branch is always compared.
inline void expect_front_ends_match_oracle(
    const Evaluator& evaluator, const std::vector<const Policy*>& policies,
    const EstimatorOptions& options, const std::string& label) {
    const std::size_t saved_threads = par::thread_count();
    const Trace& trace = evaluator.evaluation_trace();
    const TraceTupleSource source(trace);
    bool switch_fell_back = false;
    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            par::set_thread_count(threads);
            for (const int ci : {0, 50}) {
                const std::string where =
                    label + " n=" + std::to_string(trace.size()) + " policy " +
                    std::to_string(p) + " threads=" + std::to_string(threads) +
                    " ci=" + std::to_string(ci);
                const PolicyEvaluation want =
                    six_pass_oracle(trace, *policies[p],
                                    evaluator.prediction_matrix(), options,
                                    stats::Rng(9), ci);
                switch_fell_back |= want.switch_dr.value != want.dr.value;
                expect_matches_oracle(
                    evaluator.evaluate_seeded(*policies[p], stats::Rng(9), ci),
                    want, "Evaluator " + where);
                StreamingOptions streaming;
                streaming.estimator_options = options;
                streaming.ci_replicates = ci;
                expect_matches_oracle(
                    evaluate_streaming(source, evaluator.reward_model(),
                                       *policies[p], streaming, stats::Rng(9)),
                    want, "evaluate_streaming " + where);
            }
        }
    }
    par::set_thread_count(saved_threads);
    EXPECT_TRUE(switch_fell_back) << label;
}

} // namespace dre::core::oracle

#endif // DRE_TESTS_ESTIMATOR_ORACLE_H
