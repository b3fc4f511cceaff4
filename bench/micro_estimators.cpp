// E13 — google-benchmark microbenchmarks: estimator cost per logged tuple.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/environment.h"
#include "core/estimators.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "stats/rng.h"

namespace {

using namespace dre;

class BenchEnv final : public core::Environment {
public:
    ClientContext sample_context(stats::Rng& rng) const override {
        return ClientContext({rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)},
                             {static_cast<std::int32_t>(rng.uniform_index(8))});
    }
    Reward sample_reward(const ClientContext& c, Decision d,
                         stats::Rng& rng) const override {
        return c.numeric[0] * (d + 1.0) + rng.normal(0.0, 0.1);
    }
    std::size_t num_decisions() const noexcept override { return 8; }
};

struct Fixture {
    Trace trace;
    std::unique_ptr<core::Policy> target;
    std::unique_ptr<core::RewardModel> model;

    explicit Fixture(std::size_t n) {
        BenchEnv env;
        stats::Rng rng(1);
        core::UniformRandomPolicy logging(env.num_decisions());
        trace = core::collect_trace(env, logging, n, rng);
        target = std::make_unique<core::DeterministicPolicy>(
            env.num_decisions(), [](const ClientContext& c) {
                return static_cast<Decision>(c.numeric[0] > 0.0 ? 7 : 0);
            });
        auto tabular = std::make_unique<core::TabularRewardModel>(8);
        tabular->fit(trace);
        model = std::move(tabular);
    }
};

void BM_DirectMethod(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::direct_method(fx.trace, *fx.target, *fx.model).value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Ips(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::inverse_propensity(fx.trace, *fx.target).value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DoublyRobust(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::doubly_robust(fx.trace, *fx.target, *fx.model).value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SwitchDr(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    const core::EstimatorOptions options;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::switch_doubly_robust(fx.trace, *fx.target, *fx.model, options)
                .value);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_FitTabularModel(benchmark::State& state) {
    const Fixture fx(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        core::TabularRewardModel model(8);
        model.fit(fx.trace);
        benchmark::DoNotOptimize(model.cells());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

// The q̂ row fill (predict_rows, as the streaming chunk pass calls it) over
// contexts the table mostly misses (range(1) == 0: a trace the model was
// not fitted on; its continuous features never repeat) or mostly hits
// (range(1) == 1: the fitted trace itself).
void BM_TabularPredictRow(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const Fixture fx(n);
    Trace unseen;
    if (state.range(1) == 0) {
        BenchEnv env;
        stats::Rng rng(2);
        unseen = core::collect_trace(
            env, core::UniformRandomPolicy(env.num_decisions()), n, rng);
    }
    const Trace& probe = state.range(1) == 0 ? unseen : fx.trace;
    std::vector<const ClientContext*> contexts(n);
    for (std::size_t k = 0; k < n; ++k) contexts[k] = &probe[k].context;
    std::vector<double> rows(n * fx.model->num_decisions());
    for (auto _ : state) {
        fx.model->predict_rows(contexts.data(), n, rows.data());
        benchmark::DoNotOptimize(rows.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_DirectMethod)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_Ips)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DoublyRobust)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SwitchDr)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FitTabularModel)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_TabularPredictRow)
    ->ArgNames({"n", "hit"})
    ->ArgsProduct({{10000, 100000}, {0, 1}});

} // namespace

BENCHMARK_MAIN();
