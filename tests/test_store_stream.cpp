// Streaming-vs-in-memory determinism contract (DESIGN.md §9).
//
// evaluate_streaming and core::Evaluator run the same engine
// (core/engine.h); both must reproduce the six-pass oracle
// (estimator_oracle.h) bit-for-bit — every point estimate, the overlap
// diagnostics, and both bootstrap CI endpoints — for any thread count, I/O
// backend, and shard split. The golden fingerprint pins the actual values
// across commits: regenerate with
//   DRE_UPDATE_STORE_GOLDEN=1 ./test_store_stream
// after an *intentional* numerics change.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "estimator_oracle.h"
#include "stats/rng.h"
#include "store/sharded.h"
#include "store/writer.h"
#include "trace/trace.h"
#include "wise/scenario.h"

namespace dre::core {
namespace {

namespace fs = std::filesystem;

Trace cdn_trace(std::size_t n) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(12);
    return collect_trace(env, logging, n, rng);
}

Trace wise_trace(std::size_t n) {
    wise::RequestRoutingEnv env{wise::WiseWorldConfig{}};
    const UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(11);
    return collect_trace(env, logging, n, rng);
}

// All the numbers the contract covers, bitwise-comparable.
std::string fingerprint(const PolicyEvaluation& e) {
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "DM %.17g\nIPS %.17g\nSNIPS %.17g\nDR %.17g\nSWITCH-DR %.17g\n"
        "ESS %.17g\nMEANW %.17g\nMAXW %.17g\nZEROW %.17g\n",
        e.dm.value, e.ips.value, e.snips.value, e.dr.value, e.switch_dr.value,
        e.overlap.effective_sample_size, e.overlap.mean_weight,
        e.overlap.max_weight, e.overlap.zero_weight_fraction);
    std::string out = buffer;
    if (e.dr_ci) {
        std::snprintf(buffer, sizeof(buffer), "DR-CI %.17g %.17g\n",
                      e.dr_ci->lower, e.dr_ci->upper);
        out += buffer;
    }
    return out;
}

PolicyEvaluation stream_over(const TupleSource& source, const Evaluator& ev,
                             const Policy& policy, int ci_replicates,
                             std::uint64_t seed) {
    StreamingOptions options;
    options.ci_replicates = ci_replicates;
    return evaluate_streaming(source, ev.reward_model(), policy, options,
                              stats::Rng(seed));
}

class ThreadCountGuard {
public:
    ThreadCountGuard() : saved_(par::thread_count()) {}
    ~ThreadCountGuard() { par::set_thread_count(saved_); }

private:
    std::size_t saved_;
};

TEST(StreamingEvaluation, MatchesInMemoryAcrossThreadsShardsAndBackends) {
    ThreadCountGuard guard;
    const Trace trace = cdn_trace(2500);
    EvaluationConfig config;
    config.ci_replicates = 200;
    const Evaluator evaluator(trace, config, stats::Rng(7));
    const UniformRandomPolicy policy(trace.num_decisions());
    const std::string want = fingerprint(oracle::six_pass_oracle(
        trace, policy, evaluator.prediction_matrix(), {}, stats::Rng(7), 200));
    ASSERT_EQ(fingerprint(evaluator.evaluate(policy)), want);

    const fs::path dir = fs::temp_directory_path() / "dre_test_stream";
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_store_file(trace, (dir / "single.drt").string(),
                     store::StoreWriter::Options{512});
    store::split_store(
        store::ShardedStore({(dir / "single.drt").string()}),
        (dir / "multi-").string(), 3, store::StoreWriter::Options{256});

    // In-memory source first: isolates the streaming arithmetic from I/O.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        par::set_thread_count(threads);
        const TraceTupleSource source(trace);
        EXPECT_EQ(fingerprint(stream_over(source, evaluator, policy, 200, 7)),
                  want)
            << "TraceTupleSource, threads=" << threads;
    }

    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
        const std::vector<std::string> paths =
            shards == 1 ? std::vector<std::string>{(dir / "single.drt").string()}
                        : store::find_shards((dir / "multi-").string());
        for (const store::IoMode mode :
             {store::IoMode::kMmap, store::IoMode::kPread}) {
            store::StoreReader::Options options;
            options.io_mode = mode;
            options.pread_cache_groups = 2;
            const store::ShardedStore sharded(paths, options);
            const store::StoreTupleSource source(sharded);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                par::set_thread_count(threads);
                EXPECT_EQ(
                    fingerprint(stream_over(source, evaluator, policy, 200, 7)),
                    want)
                    << "shards=" << shards << " mode=" << static_cast<int>(mode)
                    << " threads=" << threads;
            }
        }
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
}

// Both front ends against the oracle below, at and one past a multiple of
// the reduction chunk. The constant policy has zero-probability decisions;
// both policies' weights exceed the SWITCH threshold on some tuples.
TEST(StreamingEvaluation, BothFrontEndsMatchSixPassOracle) {
    EvaluationConfig config;
    config.reward_model = RewardModelKind::kKnn; // residuals do not cancel
    config.estimator_options.switch_threshold = 1.5;
    for (const std::size_t n : {par::kReduceChunk - 1, par::kReduceChunk,
                                par::kReduceChunk + 1}) {
        const Evaluator evaluator(cdn_trace(n), config, stats::Rng(4));
        const std::size_t decisions = evaluator.evaluation_trace().num_decisions();
        const UniformRandomPolicy uniform(decisions);
        const DeterministicPolicy constant(
            decisions, [](const ClientContext&) { return Decision{1}; });
        oracle::expect_front_ends_match_oracle(
            evaluator, {&uniform, &constant}, config.estimator_options,
            "cdn trace");
    }
}

TEST(StreamingEvaluation, WaveSizeNeverAffectsResults) {
    const Trace trace = wise_trace(1800);
    EvaluationConfig config;
    config.ci_replicates = 150;
    const Evaluator evaluator(trace, config, stats::Rng(3));
    const UniformRandomPolicy policy(trace.num_decisions());
    const std::string want = fingerprint(evaluator.evaluate(policy));

    const TraceTupleSource source(trace);
    for (const std::size_t wave : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}, std::size_t{64}}) {
        StreamingOptions options;
        options.ci_replicates = 150;
        options.wave_chunks = wave;
        EXPECT_EQ(fingerprint(evaluate_streaming(source, evaluator.reward_model(),
                                                 policy, options,
                                                 stats::Rng(3))),
                  want)
            << "wave=" << wave;
    }
}

TEST(StreamingEvaluation, NoCiSkipsBootstrapAndMatches) {
    const Trace trace = cdn_trace(900);
    EvaluationConfig config; // ci_replicates = 0
    const Evaluator evaluator(trace, config, stats::Rng(5));
    const UniformRandomPolicy policy(trace.num_decisions());
    const PolicyEvaluation reference = evaluator.evaluate(policy);
    ASSERT_FALSE(reference.dr_ci.has_value());

    const TraceTupleSource source(trace);
    const PolicyEvaluation streamed =
        stream_over(source, evaluator, policy, 0, 5);
    EXPECT_FALSE(streamed.dr_ci.has_value());
    EXPECT_EQ(fingerprint(streamed), fingerprint(reference));
}

TEST(StreamingEvaluation, RejectsBadInputs) {
    const Trace trace = cdn_trace(50);
    EvaluationConfig config;
    const Evaluator evaluator(trace, config, stats::Rng(5));
    const Trace empty;
    const TraceTupleSource empty_source(empty);
    const UniformRandomPolicy policy(trace.num_decisions());
    StreamingOptions options;
    EXPECT_THROW(evaluate_streaming(empty_source, evaluator.reward_model(),
                                    policy, options, stats::Rng(1)),
                 std::invalid_argument);
    // Policy decision space smaller than the source's.
    const UniformRandomPolicy narrow(1);
    const TraceTupleSource source(trace);
    EXPECT_THROW(evaluate_streaming(source, evaluator.reward_model(), narrow,
                                    options, stats::Rng(1)),
                 std::invalid_argument);
}

TEST(StreamingEvaluation, TraceSourceRejectsWrappingRanges) {
    const Trace trace = cdn_trace(50);
    const TraceTupleSource source(trace);
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::vector<LoggedTuple> rows;
    EXPECT_THROW(source.read(kMax, 2, rows), std::out_of_range);
    EXPECT_THROW(source.read(1, kMax, rows), std::out_of_range);
    EXPECT_THROW(source.read(40, 11, rows), std::out_of_range);
    source.read(40, 10, rows);
    EXPECT_EQ(rows.size(), 10u);
}

// The checked-in fingerprint: catches silent numerics drift in either path
// (the paths are already proven equal above, so one fingerprint pins both).
TEST(StreamingEvaluation, GoldenFingerprint) {
    const Trace trace = cdn_trace(2000);
    EvaluationConfig config;
    config.ci_replicates = 300;
    const Evaluator evaluator(trace, config, stats::Rng(42));
    const UniformRandomPolicy policy(trace.num_decisions());
    const PolicyEvaluation reference = evaluator.evaluate(policy);
    const TraceTupleSource source(trace);
    const PolicyEvaluation streamed =
        stream_over(source, evaluator, policy, 300, 42);
    ASSERT_EQ(fingerprint(streamed), fingerprint(reference));

    const std::string golden_path =
        std::string(DRE_TEST_DATA_DIR) + "/store_fingerprint.txt";
    if (std::getenv("DRE_UPDATE_STORE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << golden_path;
        out << fingerprint(streamed);
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path
                    << " (run with DRE_UPDATE_STORE_GOLDEN=1 to create)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(fingerprint(streamed), golden.str())
        << "numerics changed; if intentional, regenerate with "
           "DRE_UPDATE_STORE_GOLDEN=1";
}

} // namespace
} // namespace dre::core
