// eval_memory: the in-memory front end (`dre_eval <store> <policy>`).
//
// Input: a CDN trace as one .drt file. Set-up (repeated from scratch):
// open the store, read_all, parse the candidates (the greedy ones fit
// their own model) and build the Evaluator (model fit + q̂ matrix). Unit
// of work: one round of Evaluator::evaluate_seeded over four candidates,
// each with a 50-replicate DR bootstrap CI.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy_learning.h"
#include "core/reward_model.h"
#include "harness.h"
#include "store/sharded.h"
#include "store/writer.h"

namespace e2e {

namespace core = dre::core;
namespace store = dre::store;

namespace {

constexpr int kCiReplicates = 50;
constexpr int kSetups = 9;
const std::array<const char*, 4> kCandidates = {
    "uniform", "constant:3", "greedy:tabular", "greedy:tabular:0.1"};

std::size_t trace_size(const Options& opt) { return opt.tiny ? 10000 : 200000; }
std::string store_path(const Options& opt) { return opt.workdir + "/mem.drt"; }

struct Setup {
    dre::Trace trace;
    std::vector<std::shared_ptr<core::Policy>> policies;
    std::unique_ptr<core::Evaluator> evaluator;
    double open_ms = 0, read_all_ms = 0;
};

// One complete set-up, as `dre_eval` does it for a store input.
Setup set_up(const Options& opt) {
    Setup s;
    const double t0 = now_s();
    const store::ShardedStore shards({store_path(opt)});
    const double t1 = now_s();
    s.trace = shards.read_all();
    const double t2 = now_s();
    const std::size_t decisions = s.trace.num_decisions();
    for (const char* spec : kCandidates)
        s.policies.push_back(core::parse_policy_spec(spec, s.trace, decisions));
    core::EvaluationConfig config;
    config.reward_model = core::RewardModelKind::kTabular;
    config.ci_replicates = kCiReplicates;
    s.evaluator = std::make_unique<core::Evaluator>(s.trace, config,
                                                    dre::stats::Rng(opt.seed));
    s.open_ms = 1e3 * (t1 - t0);
    s.read_all_ms = 1e3 * (t2 - t1);
    return s;
}

} // namespace

void gen_eval_memory(const Options& opt) {
    store::write_store_file(generate_cdn_trace(trace_size(opt), opt.seed),
                            store_path(opt));
}

void run_eval_memory(const Options& opt, Result& out) {
    Setup s;
    std::vector<double> setups;
    std::vector<double> open_ms, read_all_ms, fit_ms, qhat_ms;
    for (int k = 0; k < kSetups; ++k) {
        s = Setup{};
        const double t0 = now_s();
        s = set_up(opt);
        setups.push_back(now_s() - t0);
        ++out.attempted;
        open_ms.push_back(s.open_ms);
        read_all_ms.push_back(s.read_all_ms);
        if (opt.trace) {
            // The Evaluator's two set-up steps, repeated through the
            // public API so each can be timed on its own.
            const double t0 = now_s();
            const auto model = core::fit_reward_model(
                core::RewardModelKind::kTabular, s.trace.num_decisions(), s.trace);
            const double t1 = now_s();
            const core::PredictionMatrix q = core::PredictionMatrix::build(*model, s.trace);
            fit_ms.push_back(1e3 * (t1 - t0));
            qhat_ms.push_back(1e3 * (now_s() - t1));
        }
    }
    const core::Evaluator& ev = *s.evaluator;
    const dre::Trace& trace = ev.evaluation_trace();
    std::vector<const core::Policy*> candidates;
    for (const auto& p : s.policies) candidates.push_back(p.get());
    const double work = static_cast<double>(trace.size() * candidates.size());
    const double threads = static_cast<double>(dre::par::thread_count());
    out.context["peak_rss_reset"] = reset_peak_rss() ? "yes" : "no";

    // Measured phase. A round evaluates every candidate in turn with
    // evaluate_seeded, as `dre_eval` does per candidate, so each estimator
    // pass spreads over the whole pool. (Evaluator::compare pins each
    // candidate to one pool thread; its round time is the slowest core's,
    // which on a shared host swings by ±25% from round to round.) The
    // traced run alternates rounds with rounds that run the same estimator
    // sequence piece by piece (evaluate_parts).
    const dre::stats::Rng base = dre::stats::Rng(opt.seed);
    const auto round = [&] {
        std::vector<std::vector<double>> fp;
        for (std::size_t c = 0; c < candidates.size(); ++c)
            fp.push_back(fingerprint(ev.evaluate_seeded(*candidates[c], base.split(c))));
        return fp;
    };
    // One untimed warm-up round; every later round must repeat it.
    const UnitTimer warmup;
    const std::vector<std::vector<double>> first = round();
    out.context["warmup_ms"] = format_ms({warmup.stop().wall});

    std::vector<UnitTime> rounds;
    std::vector<double> traced_wall, unattributed_ms;
    std::vector<PartTimes> parts;
    const double start = now_s();
    for (std::size_t i = 0; now_s() - start < opt.seconds || rounds.size() < 3; ++i) {
        if (opt.trace && i % 2 == 1) {
            PartTimes sum;
            const UnitTimer timer;
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                PartTimes times;
                const core::PolicyEvaluation e =
                    evaluate_parts(trace, *candidates[c], ev.prediction_matrix(), {},
                                   base.split(c), kCiReplicates, &times);
                sum.add(times);
                out.check(same_bits(fingerprint(e), first[c]),
                          "eval_memory: evaluate_parts != evaluate_seeded for " +
                              std::string(kCandidates[c]));
            }
            const UnitTime traced = timer.stop();
            traced_wall.push_back(traced.wall);
            parts.push_back(sum);
            unattributed_ms.push_back(1e3 * traced.wall - sum.total());
            continue;
        }
        const UnitTimer timer;
        const std::vector<std::vector<double>> fp = round();
        rounds.push_back(timer.stop());
        for (std::size_t c = 0; c < candidates.size(); ++c)
            out.check(same_bits(fp[c], first[c]),
                      "eval_memory: round " + std::to_string(rounds.size()) +
                          " drifted for " + kCandidates[c]);
    }
    const double peak = peak_rss_mib();
    out.context["units"] = std::to_string(rounds.size()) + " rounds";
    out.context["unit_ms"] = format_ms(walls(rounds));
    out.context["steal_pct"] = std::to_string(100.0 * steal_share(rounds));
    out.context["setup_ms"] = format_ms(setups);

    // Correctness, outside the measured phase: the warm-up round against a
    // DRE_THREADS=1 reference (q̂ rebuilt serially, every candidate through
    // the estimator sequence with the same rng streams).
    dre::par::set_thread_count(1);
    {
        const core::PredictionMatrix q1 =
            core::PredictionMatrix::build(ev.reward_model(), trace);
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const core::PolicyEvaluation ref = evaluate_parts(
                trace, *candidates[c], q1, {}, base.split(c), kCiReplicates, nullptr);
            out.check(same_bits(fingerprint(ref), first[c]),
                      "eval_memory: warm-up round != serial reference for " +
                          std::string(kCandidates[c]));
        }
    }
    dre::par::set_thread_count(0);

    if (!opt.trace) {
        const std::vector<double> wall = walls(rounds);
        std::vector<double> tps, tpc, rps;
        for (const UnitTime& u : rounds) {
            tps.push_back(work / u.wall);
            tpc.push_back(work / u.cpu);
            rps.push_back(1.0 / u.wall);
        }
        out.metric("setup_s", median(setups), "s");
        out.metric("tuples_per_s", median(tps), "tuples/s");
        out.metric("tuples_per_cpu_s", median(tpc), "tuples/cpu-s");
        out.metric("peak_rss_mib", peak, "MiB");
        out.metric("req_per_s", median(rps), "req/s");
        out.metric("p50_ms", 1e3 * median(wall), "ms");
        out.context["p99_ms"] = std::to_string(1e3 * quantile(wall, 0.99));
        return;
    }

    // Per-layer attribution (traced run), in wall times summed over the
    // candidates; the residual is the traced round's wall time they do not
    // cover.
    std::vector<double> probs;
    const double tp = now_s();
    for (const core::Policy* p : candidates)
        for (const dre::LoggedTuple& t : trace) p->action_probabilities_into(t.context, probs);
    const double policy_ms = 1e3 * (now_s() - tp);
    const auto part = [&](double PartTimes::*field) {
        std::vector<double> xs;
        for (const PartTimes& p : parts) xs.push_back(p.*field);
        return median(xs);
    };
    std::vector<double> util, round_cpu;
    for (const UnitTime& u : rounds) {
        util.push_back(u.cpu / (u.wall * threads));
        round_cpu.push_back(u.cpu);
    }
    const double round_cpu_ms = 1e3 * median(round_cpu);

    out.metric("store.open_ms", median(open_ms), "ms");
    out.metric("store.read_all_ms", median(read_all_ms), "ms");
    out.metric("core.fit_ms", median(fit_ms), "ms");
    out.metric("core.qhat_build_ms", median(qhat_ms), "ms");
    out.metric("core.dm_ms", part(&PartTimes::dm), "ms");
    out.metric("core.ips_ms", part(&PartTimes::ips), "ms");
    out.metric("core.snips_ms", part(&PartTimes::snips), "ms");
    out.metric("core.dr_ms", part(&PartTimes::dr), "ms");
    out.metric("core.switch_dr_ms", part(&PartTimes::switch_dr), "ms");
    out.metric("core.overlap_ms", part(&PartTimes::overlap), "ms");
    out.metric("stats.bootstrap_ms", part(&PartTimes::bootstrap), "ms");
    out.metric("core.unattributed_ms", median(unattributed_ms), "ms");
    out.metric("core.policy_probs_ms", policy_ms, "ms");
    // One pass's share of a round's thread-time; the round's estimators
    // evaluate the candidates' probabilities in several passes.
    out.metric("core.policy_probs_share", policy_ms / round_cpu_ms, "ratio");
    out.metric("par.cpu_util", median(util), "ratio");
    out.metric("bench.trace_overhead_pct",
               100.0 * (median(traced_wall) / median(walls(rounds)) - 1.0), "%");
}

} // namespace e2e
