// dre::simd dispatch + kernel equivalence tests.
//
// The library's contract (src/simd/simd.h) is byte-identical results at
// every dispatch level: integer kernels are exact by construction and the
// FP kernels all implement one canonical fixed-8-lane arithmetic. These
// tests assert bitwise equality — never a tolerance — between the scalar
// reference (the executable spec) and every level the host CPU supports,
// from the raw kernels up through k-NN queries and the full estimator
// suite at multiple thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "core/qhat.h"
#include "core/reward_model.h"
#include "simd/simd.h"
#include "stats/bootstrap.h"
#include "stats/knn.h"
#include "stats/rng.h"

using namespace dre;

namespace {

// Every level the host supports, scalar first (the reference).
std::vector<simd::Level> supported_levels() {
    std::vector<simd::Level> levels{simd::Level::kScalar};
    if (simd::detected_level() >= simd::Level::kSse42)
        levels.push_back(simd::Level::kSse42);
    if (simd::detected_level() >= simd::Level::kAvx2)
        levels.push_back(simd::Level::kAvx2);
    return levels;
}

// Bitwise double equality (distinguishes -0.0, compares NaN patterns).
::testing::AssertionResult bit_equal(double a, double b) {
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bitwise)";
}

// Restores the dispatch level and thread count on scope exit so tests
// cannot leak global state into each other.
struct DispatchGuard {
    simd::Level level = simd::active_level();
    std::size_t threads = par::thread_count();
    ~DispatchGuard() {
        simd::set_active_level(level);
        par::set_thread_count(threads);
    }
};

std::vector<double> random_vector(std::size_t n, stats::Rng& rng,
                                  double scale = 1.0) {
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.normal(0.0, scale);
    return xs;
}

} // namespace

TEST(SimdDispatch, ParseLevel) {
    EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
    EXPECT_EQ(simd::parse_level("sse42"), simd::Level::kSse42);
    EXPECT_EQ(simd::parse_level("sse4.2"), simd::Level::kSse42);
    EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
    EXPECT_EQ(simd::parse_level("avx512"), std::nullopt);
    EXPECT_EQ(simd::parse_level(""), std::nullopt);
    EXPECT_EQ(simd::parse_level(nullptr), std::nullopt);
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse42,
                              simd::Level::kAvx2})
        EXPECT_EQ(simd::parse_level(simd::level_name(level)), level);
}

TEST(SimdDispatch, ActiveLevelNeverExceedsDetected) {
    EXPECT_LE(simd::active_level(), simd::detected_level());
}

TEST(SimdDispatch, SetActiveLevelClampsToCap) {
    DispatchGuard guard;
    // A capped request activates the cap, not the request: this simulates
    // dispatch on a CPU weaker than the build host.
    EXPECT_EQ(simd::set_active_level(simd::Level::kAvx2, simd::Level::kScalar),
              simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    if (simd::detected_level() >= simd::Level::kSse42) {
        EXPECT_EQ(
            simd::set_active_level(simd::Level::kAvx2, simd::Level::kSse42),
            simd::Level::kSse42);
        EXPECT_EQ(simd::active_level(), simd::Level::kSse42);
    }
    // Requests above detected clamp to detected even with a generous cap.
    EXPECT_EQ(simd::set_active_level(simd::Level::kAvx2),
              simd::detected_level());
}

TEST(SimdDispatch, OpsForClampsToDetected) {
    // Asking for a level above what the CPU has must return a table that
    // cannot fault — i.e. the detected level's table.
    EXPECT_EQ(&simd::ops_for(simd::Level::kAvx2),
              &simd::ops_for(simd::detected_level()));
}

TEST(SimdCrc, KnownVector) {
    // The iSCSI CRC-32C check value.
    const char digits[] = "123456789";
    for (simd::Level level : supported_levels())
        EXPECT_EQ(simd::ops_for(level).crc32c(digits, 9, 0), 0xE3069283u)
            << simd::level_name(level);
}

TEST(SimdCrc, LevelsAgreeAcrossSizesOffsetsSeeds) {
    stats::Rng rng(11);
    std::vector<unsigned char> buf(70000);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.uniform_index(256));
    const std::size_t sizes[] = {0,   1,    2,    7,    8,    9,    15,  16,
                                 63,  64,   127,  383,  384,  385,  767,
                                 768, 4095, 4096, 4097, 8193, 12288, 65536};
    const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
    for (simd::Level level : supported_levels()) {
        const simd::Ops& ops = simd::ops_for(level);
        for (std::size_t size : sizes)
            for (std::size_t offset : {0u, 1u, 5u})
                for (std::uint32_t seed : {0u, 0xdeadbeefu})
                    EXPECT_EQ(ops.crc32c(buf.data() + offset, size, seed),
                              scalar.crc32c(buf.data() + offset, size, seed))
                        << simd::level_name(level) << " size=" << size
                        << " offset=" << offset << " seed=" << seed;
    }
}

TEST(SimdCrc, ChainingEqualsOneShot) {
    stats::Rng rng(12);
    std::vector<unsigned char> buf(10000);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.uniform_index(256));
    for (simd::Level level : supported_levels()) {
        const simd::Ops& ops = simd::ops_for(level);
        const std::uint32_t one_shot = ops.crc32c(buf.data(), buf.size(), 0);
        for (std::size_t cut : {1ul, 9ul, 384ul, 4096ul, 9999ul}) {
            const std::uint32_t head = ops.crc32c(buf.data(), cut, 0);
            const std::uint32_t full =
                ops.crc32c(buf.data() + cut, buf.size() - cut, head);
            EXPECT_EQ(full, one_shot)
                << simd::level_name(level) << " cut=" << cut;
        }
    }
}

TEST(SimdKernels, L2sqScanMatchesScalar) {
    stats::Rng rng(21);
    const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
    for (std::size_t dims : {1ul, 2ul, 3ul, 8ul, 17ul}) {
        for (std::size_t nblocks : {1ul, 3ul, 8ul}) {
            const std::size_t n = nblocks * 8;
            const std::vector<double> blocks = random_vector(dims * n, rng);
            const std::vector<double> query = random_vector(dims, rng);
            std::vector<double> ref_d2(n), d2(n);
            std::vector<std::uint32_t> ref_idx(n), idx(n);
            // With an effectively-infinite worst, every point is a
            // candidate, in slot order.
            ASSERT_EQ(scalar.l2sq_scan(blocks.data(), nblocks, dims,
                                       query.data(), 1e30, ref_d2.data(),
                                       ref_idx.data()),
                      n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(ref_idx[i], static_cast<std::uint32_t>(i));
            // `worst` thresholds around the scan's own distances exercise
            // the no-abort, partial-candidate, and all-blocks-abandoned
            // paths.
            double max_d2 = 0.0;
            for (double v : ref_d2) max_d2 = std::max(max_d2, v);
            for (simd::Level level : supported_levels()) {
                const simd::Ops& ops = simd::ops_for(level);
                for (double worst :
                     {-1.0, 0.0, max_d2 * 0.25, max_d2, 1e30}) {
                    const std::size_t ref_n = scalar.l2sq_scan(
                        blocks.data(), nblocks, dims, query.data(), worst,
                        ref_d2.data(), ref_idx.data());
                    const std::size_t got_n =
                        ops.l2sq_scan(blocks.data(), nblocks, dims,
                                      query.data(), worst, d2.data(),
                                      idx.data());
                    // The candidate list — count, slot order, and bitwise
                    // distances — is part of the cross-level contract.
                    ASSERT_EQ(got_n, ref_n)
                        << simd::level_name(level) << " dims=" << dims
                        << " nblocks=" << nblocks << " worst=" << worst;
                    for (std::size_t i = 0; i < ref_n; ++i) {
                        EXPECT_EQ(idx[i], ref_idx[i])
                            << simd::level_name(level) << " i=" << i;
                        EXPECT_TRUE(bit_equal(d2[i], ref_d2[i]))
                            << simd::level_name(level) << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, Dot8MatchesScalar) {
    stats::Rng rng(22);
    for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 16ul, 17ul, 100ul, 1001ul}) {
        const std::vector<double> a = random_vector(n, rng, 2.0);
        const std::vector<double> b = random_vector(n, rng, 2.0);
        const double ref =
            simd::ops_for(simd::Level::kScalar).dot8(a.data(), b.data(), n);
        for (simd::Level level : supported_levels())
            EXPECT_TRUE(bit_equal(
                simd::ops_for(level).dot8(a.data(), b.data(), n), ref))
                << simd::level_name(level) << " n=" << n;
    }
}

TEST(SimdKernels, WeightedSumSkipZeroMatchesScalarAndCountsSkips) {
    stats::Rng rng(23);
    for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 64ul, 333ul}) {
        std::vector<double> w = random_vector(n, rng);
        std::vector<double> x = random_vector(n, rng, 3.0);
        // Zero weights paired with poisonous values: the skip semantics say
        // these must contribute exactly +0.0, never NaN/inf.
        std::size_t expected_skips = 0;
        for (std::size_t i = 0; i < n; i += 3) {
            w[i] = 0.0;
            x[i] = (i % 2 == 0) ? std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::quiet_NaN();
            ++expected_skips;
        }
        std::uint64_t ref_skips = 0;
        const double ref = simd::ops_for(simd::Level::kScalar)
                               .weighted_sum_skip_zero(w.data(), x.data(), n,
                                                       &ref_skips);
        EXPECT_EQ(ref_skips, expected_skips);
        EXPECT_TRUE(std::isfinite(ref));
        for (simd::Level level : supported_levels()) {
            std::uint64_t skips = 0;
            const double got =
                simd::ops_for(level).weighted_sum_skip_zero(w.data(), x.data(),
                                                            n, &skips);
            EXPECT_TRUE(bit_equal(got, ref))
                << simd::level_name(level) << " n=" << n;
            EXPECT_EQ(skips, ref_skips) << simd::level_name(level);
            // A null skip counter must also be accepted.
            EXPECT_TRUE(bit_equal(simd::ops_for(level).weighted_sum_skip_zero(
                                      w.data(), x.data(), n, nullptr),
                                  ref));
        }
    }
}

TEST(SimdKernels, GatherMatchesScalar) {
    stats::Rng rng(24);
    const std::vector<double> values = random_vector(4096, rng);
    for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 100ul, 4096ul}) {
        std::vector<std::uint32_t> idx(n);
        for (std::uint32_t& i : idx)
            i = static_cast<std::uint32_t>(rng.uniform_index(values.size()));
        std::vector<double> ref(n), out(n);
        simd::ops_for(simd::Level::kScalar)
            .gather(values.data(), idx.data(), n, ref.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(bit_equal(ref[i], values[idx[i]]));
        for (simd::Level level : supported_levels()) {
            simd::ops_for(level).gather(values.data(), idx.data(), n,
                                        out.data());
            EXPECT_EQ(std::memcmp(out.data(), ref.data(), n * sizeof(double)),
                      0)
                << simd::level_name(level) << " n=" << n;
        }
    }
}

// --- resample_sum8 -----------------------------------------------------------
//
// The oracle is the textbook loop over stats::Rng: each stream's m
// uniform_index draws, summed in the canonical 8 lanes. Every level must
// return the same sums bit for bit and leave every stream's state exactly
// where that loop leaves its Rng.

namespace {

using StreamStates = std::vector<std::array<std::uint64_t, 4>>;

void expect_resample_matches_rng(const StreamStates& states,
                                 const std::vector<double>& values,
                                 std::size_t m, const std::string& what) {
    const std::size_t streams = states.size();
    std::vector<double> want(streams);
    StreamStates want_states(streams);
    for (std::size_t s = 0; s < streams; ++s) {
        stats::Rng rng = stats::Rng::from_state(states[s]);
        double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (std::size_t i = 0; i < m; ++i)
            acc[i & 7] += values[rng.uniform_index(m)];
        want[s] = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                  ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        want_states[s] = rng.state();
    }
    for (simd::Level level : supported_levels()) {
        auto words = std::make_unique<std::uint64_t[][4]>(streams);
        for (std::size_t s = 0; s < streams; ++s)
            std::copy(states[s].begin(), states[s].end(), words[s]);
        std::vector<double> got(streams, -1.0);
        simd::ops_for(level).resample_sum8(words.get(), streams, values.data(),
                                           m, got.data());
        for (std::size_t s = 0; s < streams; ++s) {
            ASSERT_TRUE(bit_equal(got[s], want[s]))
                << simd::level_name(level) << " " << what << " m=" << m
                << " streams=" << streams << " stream=" << s;
            for (int k = 0; k < 4; ++k)
                ASSERT_EQ(words[s][k], want_states[s][k])
                    << simd::level_name(level) << " " << what << " m=" << m
                    << " stream=" << s << " word=" << k;
        }
    }
}

StreamStates split_states(const stats::Rng& base, std::size_t streams) {
    StreamStates states(streams);
    for (std::size_t s = 0; s < streams; ++s) states[s] = base.split(s).state();
    return states;
}

// Inverse of an odd 64-bit multiplier (Newton's iteration mod 2^64).
std::uint64_t odd_inverse(std::uint64_t a) {
    std::uint64_t inv = a;
    for (int k = 0; k < 5; ++k) inv *= 2 - a * inv;
    return inv;
}

// A state whose next xoshiro256** output is `x`: the output is
// rotl(s1 * 5, 7) * 9, so s1 = rotr(x * 9^-1, 7) * 5^-1. The other words
// come from `rng`.
std::array<std::uint64_t, 4> state_with_next_output(std::uint64_t x,
                                                    stats::Rng& rng) {
    const std::uint64_t r = x * odd_inverse(9);
    const std::uint64_t s1 = ((r >> 7) | (r << 57)) * odd_inverse(5);
    return {rng.next_u64(), s1, rng.next_u64(), rng.next_u64()};
}

} // namespace

TEST(SimdResample, MatchesRngStreamsForEveryChunkSize) {
    stats::Rng rng(25);
    const std::vector<double> values = random_vector(4096, rng);
    const stats::Rng base(26);
    // Six streams: one full AVX2 group of four plus a two-stream remainder.
    for (std::size_t m = 1; m <= 4096; ++m)
        expect_resample_matches_rng(split_states(base.split(m), 6), values, m,
                                    "every-m");
}

TEST(SimdResample, EveryStreamCountAndEmptyChunk) {
    stats::Rng rng(27);
    const std::vector<double> values = random_vector(4096, rng);
    const stats::Rng base(28);
    for (std::size_t streams = 1; streams <= 9; ++streams)
        for (std::size_t m : {0ul, 1ul, 7ul, 8ul, 9ul, 1000ul, 4095ul, 4096ul})
            expect_resample_matches_rng(
                split_states(base.split(streams * 10000 + m), streams), values,
                m, "stream-count");
}

TEST(SimdResample, RejectionPathInEveryLanePosition) {
    stats::Rng rng(29);
    const std::vector<double> values = random_vector(4096, rng);
    // An output word of 0 has low product 0 < (2^64 - m) mod m for any m
    // that is not a power of two: Lemire rejects it and draws again. An
    // output of 1 has low product m: it needs the exact check but is
    // accepted. Random streams reach neither (p ~ 2^-32 per draw).
    for (const std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1}}) {
        {
            stats::Rng probe = stats::Rng::from_state(
                state_with_next_output(x, rng));
            stats::Rng twice = probe;
            EXPECT_EQ(twice.next_u64(), x);
            (void)twice.next_u64();
            (void)probe.uniform_index(1000);
            EXPECT_EQ(probe.state() == twice.state(), x == 0)
                << "x=" << x << " must " << (x == 0 ? "" : "not ")
                << "take the rejection loop";
        }
        // Position p of 9 streams: AVX2 lanes 0-3 of both groups, and the
        // remainder stream 8.
        for (std::size_t p = 0; p < 9; ++p)
            for (std::size_t m : {3ul, 1000ul, 4095ul, 4096ul}) {
                StreamStates states = split_states(stats::Rng(30 + p), 9);
                states[p] = state_with_next_output(x, rng);
                expect_resample_matches_rng(states, values, m,
                                            "crafted x=" + std::to_string(x) +
                                                " at " + std::to_string(p));
            }
        // Every stream of a group crafted at once.
        StreamStates all(4);
        for (auto& state : all) state = state_with_next_output(x, rng);
        expect_resample_matches_rng(all, values, 999, "all lanes crafted");
    }
}

TEST(SimdKnn, KdTreeMatchesBruteForceAtEveryLevel) {
    DispatchGuard guard;
    stats::Rng rng(31);
    const std::size_t n = 700, dims = 5;
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(random_vector(dims, rng));
        targets.push_back(rng.normal(0.0, 2.0));
    }
    std::vector<std::vector<double>> queries;
    for (int q = 0; q < 60; ++q) queries.push_back(random_vector(dims, rng));

    stats::KnnRegressor knn(7);
    knn.fit(rows, targets);
    knn.set_algorithm(stats::KnnRegressor::Algorithm::kBruteForce);
    const std::vector<double> brute = knn.predict_batch(queries);

    std::vector<double> reference; // scalar KD-tree predictions
    for (simd::Level level : supported_levels()) {
        simd::set_active_level(level);
        knn.set_algorithm(stats::KnnRegressor::Algorithm::kKdTree);
        const std::vector<double> tree = knn.predict_batch(queries);
        ASSERT_EQ(tree.size(), brute.size());
        for (std::size_t i = 0; i < tree.size(); ++i) {
            EXPECT_TRUE(bit_equal(tree[i], brute[i]))
                << simd::level_name(level) << " query=" << i;
        }
        if (reference.empty()) reference = tree;
        EXPECT_EQ(std::memcmp(tree.data(), reference.data(),
                              tree.size() * sizeof(double)),
                  0)
            << simd::level_name(level);
    }
}

// End-to-end: the whole estimator suite (model path, matrix path, and a
// bootstrap CI) must be byte-identical across every (dispatch level,
// thread count) combination — the (scalar, 1 thread) run is the golden.
TEST(SimdEndToEnd, EstimatorSuiteInvariantAcrossLevelsAndThreads) {
    DispatchGuard guard;
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    stats::Rng trace_rng(41);
    const core::UniformRandomPolicy logging(env.num_decisions());
    const Trace trace = core::collect_trace(env, logging, 600, trace_rng);
    core::KnnRewardModel model(env.num_decisions(), 5);
    model.fit(trace);
    const core::UniformRandomPolicy target(env.num_decisions());
    core::EstimatorOptions options;

    struct Results {
        std::vector<double> values;
        bool operator==(const Results& other) const {
            return values.size() == other.values.size() &&
                   std::memcmp(values.data(), other.values.data(),
                               values.size() * sizeof(double)) == 0;
        }
    };
    const auto run_suite = [&] {
        Results r;
        const core::PredictionMatrix qhat =
            core::PredictionMatrix::build(model, trace);
        r.values = {
            core::direct_method(trace, target, model).value,
            core::direct_method(trace, target, qhat).value,
            core::doubly_robust(trace, target, model).value,
            core::doubly_robust(trace, target, qhat).value,
            core::switch_doubly_robust(trace, target, model, options).value,
            core::switch_doubly_robust(trace, target, qhat, options).value,
            core::self_normalized_doubly_robust(trace, target, qhat).value,
        };
        std::vector<double> sample;
        for (const auto& t : trace) sample.push_back(t.reward);
        stats::Rng boot_rng(77);
        const stats::ConfidenceInterval ci =
            stats::bootstrap_mean_ci(sample, boot_rng, 300);
        r.values.push_back(ci.point);
        r.values.push_back(ci.lower);
        r.values.push_back(ci.upper);
        stats::Rng chunk_rng(78);
        const stats::ConfidenceInterval chunked =
            stats::chunked_bootstrap_mean_ci(sample, ci.point, chunk_rng, 200);
        r.values.push_back(chunked.lower);
        r.values.push_back(chunked.upper);
        return r;
    };

    simd::set_active_level(simd::Level::kScalar);
    par::set_thread_count(1);
    const Results golden = run_suite();

    for (simd::Level level : supported_levels()) {
        for (std::size_t threads : {1ul, 8ul}) {
            simd::set_active_level(level);
            par::set_thread_count(threads);
            const Results got = run_suite();
            EXPECT_TRUE(got == golden)
                << "level=" << simd::level_name(level)
                << " threads=" << threads;
        }
    }
}

// Dispatch fallback, end to end: force the weaker tables (as if the CPU
// lacked the instructions) and check a store-style CRC and a k-NN query
// still answer identically through the dispatched ops() table.
TEST(SimdEndToEnd, ForcedFallbackIsTransparent) {
    DispatchGuard guard;
    stats::Rng rng(51);
    std::vector<unsigned char> buf(5000);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.uniform_index(256));

    simd::set_active_level(simd::Level::kScalar);
    const std::uint32_t crc_scalar =
        simd::ops().crc32c(buf.data(), buf.size(), 0);
    for (simd::Level level : supported_levels()) {
        // Cap below the request: the request must degrade, not fault.
        simd::set_active_level(simd::detected_level(), level);
        EXPECT_EQ(simd::active_level(), level);
        EXPECT_EQ(simd::ops().crc32c(buf.data(), buf.size(), 0), crc_scalar)
            << simd::level_name(level);
    }
}
