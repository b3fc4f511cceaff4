// TabularRewardModel against its mixed-key unordered_map oracle
// (tabular_oracle.h): predict, predict_row, predict_rows, the
// PredictionMatrix fill and cells() must all agree at 0 ulp, on contexts
// that mostly miss the table (a continuous feature), on categorical-only
// contexts that hit it with several decisions each, for decisions never
// logged, after a refit, and at 1 and 8 threads.
#include "tabular_oracle.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "stats/rng.h"

namespace dre::core {
namespace {

using oracle::MixedKeyTabularOracle;

Trace cdn_trace(std::size_t n, std::uint64_t seed) {
    const cdn::VideoQualityEnv env(cdn::CdnWorldConfig{});
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(seed);
    return collect_trace(env, logging, n, rng);
}

// Contexts drawn from a small categorical grid only, so a fitted table
// holds every context with several logged decisions. Decisions at or
// above `logged_decisions` are never logged.
Trace categorical_trace(std::size_t n, std::size_t logged_decisions,
                        std::uint64_t seed) {
    stats::Rng rng(seed);
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        LoggedTuple t;
        t.context.categorical = {
            static_cast<std::int32_t>(rng.uniform_index(4)),
            static_cast<std::int32_t>(rng.uniform_index(3))};
        t.decision = static_cast<Decision>(rng.uniform_index(logged_decisions));
        t.propensity = 1.0 / static_cast<double>(logged_decisions);
        t.reward = rng.normal(0.5 * t.context.categorical[0], 1.0) +
                   0.25 * static_cast<double>(t.decision);
        trace.add(std::move(t));
    }
    return trace;
}

::testing::AssertionResult same_bits(double a, double b) {
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << a << " vs " << b;
}

// Every entry point of `model` agrees with `reference` on every (tuple,
// decision) of `probe`.
void expect_matches(const TabularRewardModel& model,
                    const MixedKeyTabularOracle& reference,
                    const Trace& probe) {
    ASSERT_EQ(model.cells(), reference.cells());
    const std::size_t nd = model.num_decisions();
    std::vector<double> row(nd);
    for (std::size_t k = 0; k < probe.size(); ++k) {
        const ClientContext& context = probe[k].context;
        model.predict_row(context, row.data());
        for (std::size_t d = 0; d < nd; ++d) {
            const auto decision = static_cast<Decision>(d);
            const double want = reference.predict(context, decision);
            ASSERT_TRUE(same_bits(model.predict(context, decision), want))
                << "predict, tuple " << k << " decision " << d;
            ASSERT_TRUE(same_bits(row[d], want))
                << "predict_row, tuple " << k << " decision " << d;
        }
    }

    // predict_rows over a count that is not a multiple of its batch.
    std::vector<const ClientContext*> contexts;
    for (std::size_t k = 0; k < probe.size() && k < 1037; ++k)
        contexts.push_back(&probe[k].context);
    std::vector<double> rows(contexts.size() * nd);
    model.predict_rows(contexts.data(), contexts.size(), rows.data());
    for (std::size_t k = 0; k < contexts.size(); ++k)
        for (std::size_t d = 0; d < nd; ++d)
            ASSERT_TRUE(same_bits(
                rows[k * nd + d],
                reference.predict(*contexts[k], static_cast<Decision>(d))))
                << "predict_rows, tuple " << k << " decision " << d;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        par::set_thread_count(threads);
        const PredictionMatrix got = PredictionMatrix::build(model, probe);
        const PredictionMatrix want = PredictionMatrix::build(reference, probe);
        for (std::size_t k = 0; k < probe.size(); ++k)
            for (std::size_t d = 0; d < nd; ++d)
                ASSERT_TRUE(same_bits(got.at(k, d), want.at(k, d)))
                    << threads << " threads, tuple " << k << " decision " << d;
    }
    par::set_thread_count(0);
}

TEST(TabularOracle, CdnContextsMostlyMissTheTable) {
    const Trace trace = cdn_trace(6000, 11);
    const Trace prefix(std::vector<LoggedTuple>(trace.begin(),
                                                trace.begin() + 2000));
    TabularRewardModel model(12);
    MixedKeyTabularOracle reference(12);
    model.fit(prefix);
    reference.fit(prefix);
    // The continuous access-speed feature makes every context distinct.
    EXPECT_EQ(model.cells(), prefix.size());
    expect_matches(model, reference, trace);
}

TEST(TabularOracle, CategoricalContextsHitWithSeveralDecisions) {
    const Trace trace = categorical_trace(5000, 6, 21);
    TabularRewardModel model(6);
    MixedKeyTabularOracle reference(6);
    model.fit(trace);
    reference.fit(trace);
    EXPECT_EQ(model.cells(), 4u * 3u * 6u); // every cell of the grid
    expect_matches(model, reference, trace);
}

TEST(TabularOracle, UnloggedDecisionFallsBackToGlobalMean) {
    // Decisions 4..6 never appear in the fit.
    const Trace trace = categorical_trace(3000, 4, 31);
    TabularRewardModel model(7);
    MixedKeyTabularOracle reference(7);
    model.fit(trace);
    reference.fit(trace);
    double global = 0.0;
    std::size_t count = 0;
    for (const LoggedTuple& t : trace)
        global += (t.reward - global) / static_cast<double>(++count);
    EXPECT_TRUE(same_bits(model.predict(trace[0].context, 6), global));
    expect_matches(model, reference, trace);
}

TEST(TabularOracle, RefitDropsOldCells) {
    const Trace first = categorical_trace(2000, 6, 41);
    const Trace second = cdn_trace(1500, 43);
    TabularRewardModel model(12);
    model.fit(first);
    model.fit(second);
    MixedKeyTabularOracle reference(12);
    reference.fit(second);
    EXPECT_EQ(model.cells(), second.size());
    // The first trace's categorical-only contexts are unknown now.
    expect_matches(model, reference, first);
    expect_matches(model, reference, second);
}

TEST(TabularOracle, EmptyFitPredictsZero) {
    TabularRewardModel model(3);
    MixedKeyTabularOracle reference(3);
    model.fit(Trace{});
    reference.fit(Trace{});
    EXPECT_EQ(model.cells(), 0u);
    expect_matches(model, reference, categorical_trace(50, 3, 51));
}

} // namespace
} // namespace dre::core
