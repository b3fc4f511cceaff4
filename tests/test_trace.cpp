#include "trace/trace.h"

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "trace/types.h"

namespace dre {
namespace {

LoggedTuple make_tuple(Decision d, double reward, double propensity = 0.5,
                       std::int32_t state = LoggedTuple::kNoState) {
    LoggedTuple t;
    t.context.numeric = {static_cast<double>(d), reward};
    t.context.categorical = {d};
    t.decision = d;
    t.reward = reward;
    t.propensity = propensity;
    t.state = state;
    return t;
}

TEST(ClientContext, FlattenedConcatenatesFeatures) {
    ClientContext c({1.5, 2.5}, {3, 4});
    const std::vector<double> flat = c.flattened();
    ASSERT_EQ(flat.size(), 4u);
    EXPECT_DOUBLE_EQ(flat[0], 1.5);
    EXPECT_DOUBLE_EQ(flat[2], 3.0);
    EXPECT_EQ(c.numeric_dims(), 2u);
    EXPECT_EQ(c.categorical_dims(), 2u);
}

TEST(ClientContext, FingerprintIsStableAndDiscriminates) {
    ClientContext a({1.0}, {2});
    ClientContext b({1.0}, {2});
    ClientContext c({1.0}, {3});
    ClientContext d({1.0000001}, {2});
    EXPECT_EQ(context_fingerprint(a), context_fingerprint(b));
    EXPECT_NE(context_fingerprint(a), context_fingerprint(c));
    EXPECT_NE(context_fingerprint(a), context_fingerprint(d));
}

TEST(ClientContext, ToStringMentionsFeatures) {
    ClientContext c({1.5}, {7});
    const std::string s = to_string(c);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("7"), std::string::npos);
}

TEST(Trace, BasicAccessors) {
    Trace trace;
    EXPECT_TRUE(trace.empty());
    trace.add(make_tuple(0, 1.0));
    trace.add(make_tuple(2, -1.0));
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.num_decisions(), 3u);
    EXPECT_DOUBLE_EQ(trace[1].reward, -1.0);
    EXPECT_THROW(trace.at(5), std::out_of_range);
}

TEST(Trace, RewardsAndPropensitiesVectors) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 0.25));
    trace.add(make_tuple(1, 2.0, 0.75));
    EXPECT_EQ(trace.rewards(), (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(trace.propensities(), (std::vector<double>{0.25, 0.75}));
}

TEST(Trace, FilteredKeepsMatching) {
    Trace trace;
    for (int i = 0; i < 10; ++i)
        trace.add(make_tuple(static_cast<Decision>(i % 2), i));
    const Trace evens =
        trace.filtered([](const LoggedTuple& t) { return t.decision == 0; });
    EXPECT_EQ(evens.size(), 5u);
    for (const auto& t : evens) EXPECT_EQ(t.decision, 0);
}

TEST(Trace, WithStateSelectsLabel) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 0.5, 0));
    trace.add(make_tuple(0, 2.0, 0.5, 1));
    trace.add(make_tuple(0, 3.0, 0.5, 1));
    EXPECT_EQ(trace.with_state(1).size(), 2u);
    EXPECT_EQ(trace.with_state(0).size(), 1u);
    EXPECT_TRUE(trace.with_state(9).empty());
}

TEST(Trace, SplitPartitionsAllTuples) {
    Trace trace;
    for (int i = 0; i < 1000; ++i) trace.add(make_tuple(0, i));
    stats::Rng rng(1);
    const auto [train, holdout] = trace.split(0.7, rng);
    EXPECT_EQ(train.size() + holdout.size(), trace.size());
    EXPECT_NEAR(static_cast<double>(train.size()), 700.0, 60.0);
    EXPECT_THROW(trace.split(0.0, rng), std::invalid_argument);
    EXPECT_THROW(trace.split(1.0, rng), std::invalid_argument);
}

TEST(Trace, ResampledPreservesSizeAndDrawsFromOriginal) {
    Trace trace;
    for (int i = 0; i < 50; ++i) trace.add(make_tuple(0, i));
    stats::Rng rng(2);
    const Trace boot = trace.resampled(rng);
    EXPECT_EQ(boot.size(), trace.size());
    for (const auto& t : boot) {
        EXPECT_GE(t.reward, 0.0);
        EXPECT_LT(t.reward, 50.0);
    }
}

TEST(ValidateTrace, AcceptsGoodTrace) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 1.0));
    EXPECT_NO_THROW(validate_trace(trace));
}

TEST(ValidateTrace, RejectsBadPropensity) {
    Trace trace;
    trace.add(make_tuple(0, 1.0, 0.0));
    EXPECT_THROW(validate_trace(trace), std::invalid_argument);
    Trace trace2;
    trace2.add(make_tuple(0, 1.0, 1.5));
    EXPECT_THROW(validate_trace(trace2), std::invalid_argument);
}

TEST(ValidateTrace, RejectsNonFiniteRewardAndNegativeDecision) {
    Trace trace;
    trace.add(make_tuple(0, std::numeric_limits<double>::quiet_NaN()));
    EXPECT_THROW(validate_trace(trace), std::invalid_argument);
    Trace trace2;
    LoggedTuple bad = make_tuple(0, 1.0);
    bad.decision = -1;
    trace2.add(bad);
    EXPECT_THROW(validate_trace(trace2), std::invalid_argument);
}

// validate_trace is classify_tuple over the trace, so a non-finite context
// feature is rejected too, and the error names the tuple and reason code.
TEST(ValidateTrace, RejectsNonFiniteContext) {
    Trace trace;
    trace.add(make_tuple(0, 1.0));
    LoggedTuple bad = make_tuple(0, 1.0);
    bad.context.numeric = {0.5, std::numeric_limits<double>::infinity()};
    trace.add(bad);
    try {
        validate_trace(trace);
        FAIL() << "validate_trace accepted a non-finite context";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "trace tuple 1: non-finite-context");
    }
}

} // namespace
} // namespace dre
