// stream_store: the out-of-core front end (`dre_eval --streaming`).
//
// Input: a CDN trace as CSV. Set-up (repeated from scratch at the start of
// each segment of the run): ingest the CSV into 4 .drt shards, open the
// ShardedStore, fit a tabular model on a prefix. Unit of work: one
// evaluate_streaming pass of `constant:3` with a 50-replicate DR bootstrap
// CI.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/estimators.h"
#include "core/parallel.h"
#include "core/policy_learning.h"
#include "core/reward_model.h"
#include "core/streaming.h"
#include "harness.h"
#include "obs/metrics.h"
#include "store/sharded.h"
#include "store/writer.h"
#include "trace/csv.h"

namespace e2e {

namespace core = dre::core;
namespace store = dre::store;

namespace {

constexpr const char* kPolicy = "constant:3";
constexpr int kCiReplicates = 50;
// Segments per run, so set-ups per run: each ingests a 2M-row CSV (3-5 s).
// A set-up's time moves with the host's speed over tens of seconds, so the
// set-ups are spread over the run rather than made back to back.
constexpr std::size_t kSetups = 5;
constexpr std::size_t kShards = 4;

std::size_t trace_size(const Options& opt) { return opt.tiny ? 20000 : 2000000; }
std::size_t fit_prefix(const Options& opt) { return opt.tiny ? 2000 : 100000; }
std::string csv_path(const Options& opt) { return opt.workdir + "/in.csv"; }

std::string shard_path(const Options& opt, std::size_t s) {
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%05zu.drt", s);
    return opt.workdir + name;
}

double file_mib(const std::string& path) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) return 0.0;
    return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

// Everything one set-up leaves behind for the measured phase.
struct Setup {
    std::unique_ptr<store::ShardedStore> shards;
    std::unique_ptr<core::RewardModel> model;
    std::shared_ptr<core::Policy> policy;
    double read_csv_ms = 0, write_ms = 0, write_mib = 0, open_ms = 0,
           fit_ms = 0;
};

// One complete set-up: CSV → 4 shards (as `dre_eval convert --shards 4`),
// open, and fit on the prefix (as `dre_eval --streaming`).
Setup set_up(const Options& opt) {
    Setup s;
    const double t0 = now_s();
    std::vector<std::string> paths;
    {
        const dre::Trace csv = dre::read_csv_file(csv_path(opt));
        const double t1 = now_s();
        s.read_csv_ms = 1e3 * (t1 - t0);
        const store::StoreSchema schema{
            static_cast<std::uint32_t>(csv[0].context.numeric_dims()),
            static_cast<std::uint32_t>(csv[0].context.categorical_dims())};
        const std::size_t n = csv.size();
        for (std::size_t sh = 0; sh < kShards; ++sh) {
            store::StoreWriter writer(shard_path(opt, sh), schema);
            for (std::size_t r = n * sh / kShards; r < n * (sh + 1) / kShards; ++r)
                writer.append(csv[r]);
            writer.finalize();
            paths.push_back(writer.path());
        }
        s.write_ms = 1e3 * (now_s() - t1);
    }
    for (const std::string& p : paths) s.write_mib += file_mib(p);
    const double t2 = now_s();
    s.shards = std::make_unique<store::ShardedStore>(paths);
    const double t3 = now_s();
    s.open_ms = 1e3 * (t3 - t2);
    std::vector<dre::LoggedTuple> head;
    s.shards->read_rows(0, fit_prefix(opt), head);
    const dre::Trace fit_trace(std::move(head));
    const std::size_t decisions = s.shards->num_decisions();
    s.policy = core::parse_policy_spec(kPolicy, fit_trace, decisions);
    const double t4 = now_s();
    s.model = core::fit_reward_model(core::RewardModelKind::kTabular, decisions,
                                     fit_trace);
    const double t5 = now_s();
    s.fit_ms = 1e3 * (t5 - t4);
    return s;
}

// Times every read the (strict-mode) streaming pass makes through the
// store adapter: thread-summed busy time, from outside the store.
class TimedSource final : public core::TupleSource {
public:
    explicit TimedSource(const core::TupleSource& inner) : inner_(inner) {}
    std::uint64_t num_tuples() const override { return inner_.num_tuples(); }
    std::size_t num_decisions() const override { return inner_.num_decisions(); }
    void read(std::uint64_t begin, std::uint64_t count,
              std::vector<dre::LoggedTuple>& out) const override {
        const double t0 = now_s();
        inner_.read(begin, count, out);
        busy_ns_.fetch_add(static_cast<std::uint64_t>(1e9 * (now_s() - t0)),
                           std::memory_order_relaxed);
    }
    double take_busy_ms() const {
        return 1e-6 * static_cast<double>(busy_ns_.exchange(0));
    }

private:
    const core::TupleSource& inner_;
    mutable std::atomic<std::uint64_t> busy_ns_{0};
};

std::uint64_t counter(const char* name) {
    return dre::obs::registry().counter(name).value();
}

} // namespace

void gen_stream_store(const Options& opt) {
    dre::write_csv_file(generate_cdn_trace(trace_size(opt), opt.seed),
                        csv_path(opt));
}

void run_stream_store(const Options& opt, Result& out) {
    // The run is a series of segments. Each sets the store up from scratch,
    // makes one untimed warm-up pass (first-touch validation and page
    // faults), then measures passes for its share of opt.seconds. The
    // untraced run makes only plain CI passes; the traced run cycles plain /
    // timed-source / CI-off passes so all three see the same host
    // conditions.
    const std::size_t segments = opt.tiny ? 2 : kSetups;
    const double threads = static_cast<double>(dre::par::thread_count());
    core::StreamingOptions with_ci;
    with_ci.ci_replicates = kCiReplicates;
    core::StreamingOptions without_ci; // traced run only: the bootstrap's cost
    Setup s;
    std::vector<double> setups, read_csv_ms, write_ms, write_rate, open_ms, fit_ms,
        warmup_wall, timed_wall, no_ci_wall, read_busy_ms;
    std::vector<UnitTime> passes;
    std::vector<double> first; // every pass must repeat the first warm-up pass
    std::uint64_t hits = 0, misses = 0, groups = 0;
    double peak = 0;
    bool peak_reset = true;
    std::size_t i = 0;
    for (std::size_t k = 0; k < segments; ++k) {
        s = Setup{}; // close the previous store before its files are rewritten
        const double t0 = now_s();
        s = set_up(opt);
        setups.push_back(now_s() - t0);
        ++out.attempted;
        read_csv_ms.push_back(s.read_csv_ms);
        write_ms.push_back(s.write_ms);
        write_rate.push_back(s.write_mib / (1e-3 * s.write_ms));
        open_ms.push_back(s.open_ms);
        fit_ms.push_back(s.fit_ms);
        peak_reset = reset_peak_rss() && peak_reset;

        const store::StoreTupleSource plain(*s.shards);
        const TimedSource timed(plain);
        // The store's own counters, over the warm-up and measured passes.
        // Under the default mmap backend a row group is CRC-validated once,
        // on first touch, and the group cache is unused (it serves the pread
        // backend).
        const std::uint64_t hits0 = counter("store.cache_hits"),
                            misses0 = counter("store.cache_misses"),
                            groups0 = counter("store.row_groups_decoded");
        const UnitTimer warmup;
        const std::vector<double> warm = fingerprint(core::evaluate_streaming(
            plain, *s.model, *s.policy, with_ci, dre::stats::Rng(opt.seed)));
        warmup_wall.push_back(warmup.stop().wall);
        if (first.empty()) first = warm;
        else out.check(same_bits(warm, first), "stream_store: set-up " +
                                                   std::to_string(k) + " changed the result");
        const double start = now_s();
        const double segment_s = opt.seconds / static_cast<double>(segments);
        for (std::size_t done = 0; now_s() - start < segment_s || done < 3; ++done, ++i) {
            const int kind = opt.trace ? static_cast<int>(i % 3) : 0;
            const UnitTimer timer;
            const core::PolicyEvaluation e = core::evaluate_streaming(
                kind == 1 ? static_cast<const core::TupleSource&>(timed) : plain,
                *s.model, *s.policy, kind == 2 ? without_ci : with_ci,
                dre::stats::Rng(opt.seed));
            const UnitTime unit = timer.stop();
            const std::vector<double> fp = fingerprint(e);
            if (kind == 2) {
                // No CI: everything but the CI must still match.
                std::vector<double> head(first.begin(), first.begin() + fp.size());
                out.check(same_bits(fp, head), "stream_store: CI-off pass drifted");
                no_ci_wall.push_back(unit.wall);
                continue;
            }
            out.check(same_bits(fp, first), "stream_store: pass " +
                                                std::to_string(i) + " drifted");
            if (kind == 0) {
                passes.push_back(unit);
            } else {
                timed_wall.push_back(unit.wall);
                read_busy_ms.push_back(timed.take_busy_ms());
            }
        }
        hits += counter("store.cache_hits") - hits0;
        misses += counter("store.cache_misses") - misses0;
        groups += counter("store.row_groups_decoded") - groups0;
        peak = std::max(peak, peak_rss_mib());
    }
    const double n = static_cast<double>(s.shards->num_tuples());
    out.context["peak_rss_reset"] = peak_reset ? "yes" : "no";
    out.context["units"] = std::to_string(passes.size()) + " passes in " +
                           std::to_string(segments) + " segments";
    out.context["unit_ms"] = format_ms(walls(passes));
    out.context["warmup_ms"] = format_ms(warmup_wall);
    out.context["steal_pct"] = std::to_string(100.0 * steal_share(passes));
    out.context["setup_ms"] = format_ms(setups);

    // Correctness: the warm-up pass against the in-memory estimator sequence
    // on the same tuples, model and seed (outside the measured phase). The
    // traced run reports the in-memory layers' times from this reference.
    const double t0 = now_s();
    const dre::Trace all = s.shards->read_all();
    const double t1 = now_s();
    const core::PredictionMatrix qhat = core::PredictionMatrix::build(*s.model, all);
    const double t2 = now_s();
    PartTimes in_memory;
    const core::PolicyEvaluation ref =
        evaluate_parts(all, *s.policy, qhat, with_ci.estimator_options,
                       dre::stats::Rng(opt.seed), kCiReplicates, &in_memory);
    const double reference_ms = 1e3 * (now_s() - t2);
    out.check(same_bits(fingerprint(ref), first),
              "stream_store: streaming != in-memory evaluation");

    if (!opt.trace) {
        const std::vector<double> wall = walls(passes);
        std::vector<double> tps, tpc, rps;
        for (const UnitTime& u : passes) {
            tps.push_back(n / u.wall);
            tpc.push_back(n / u.cpu);
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

    // Per-layer attribution (traced run), in wall times.
    const double pass_ms = 1e3 * median(walls(passes));
    const double busy_ms = median(read_busy_ms);
    const double boot_ms = pass_ms - 1e3 * median(no_ci_wall);
    std::vector<double> util, pass_cpu;
    for (const UnitTime& u : passes) {
        util.push_back(u.cpu / (u.wall * threads));
        pass_cpu.push_back(u.cpu);
    }
    std::vector<double> probs;
    const double tp = now_s();
    for (const dre::LoggedTuple& t : all) s.policy->action_probabilities_into(t.context, probs);
    const double policy_ms = 1e3 * (now_s() - tp);

    out.metric("trace.read_csv_ms", median(read_csv_ms), "ms");
    out.metric("store.write_ms", median(write_ms), "ms");
    out.metric("store.write_mib_per_s", median(write_rate), "MiB/s");
    out.metric("store.open_ms", median(open_ms), "ms");
    out.metric("core.fit_ms", median(fit_ms), "ms");
    out.metric("store.read_all_ms", 1e3 * (t1 - t0), "ms");
    out.metric("core.qhat_build_ms", 1e3 * (t2 - t1), "ms");
    out.metric("core.dm_ms", in_memory.dm, "ms");
    out.metric("core.ips_ms", in_memory.ips, "ms");
    out.metric("core.snips_ms", in_memory.snips, "ms");
    out.metric("core.dr_ms", in_memory.dr, "ms");
    out.metric("core.switch_dr_ms", in_memory.switch_dr, "ms");
    out.metric("core.overlap_ms", in_memory.overlap, "ms");
    // The in-memory reference's wall time its timed parts do not cover.
    out.metric("core.unattributed_ms", reference_ms - in_memory.total(), "ms");
    out.metric("store.read_busy_ms", busy_ms, "ms");
    out.metric("store.read_share", busy_ms / (median(timed_wall) * 1e3 * threads),
               "ratio");
    // Every pass reads the whole store once: its bytes per busy second.
    out.metric("store.read_mib_per_s", s.write_mib / (1e-3 * busy_ms), "MiB/s");
    out.metric("store.cache_hit_ratio",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses),
               "ratio");
    out.metric("store.row_groups_decoded", static_cast<double>(groups), "count");
    out.metric("core.policy_probs_ms", policy_ms, "ms");
    // One serial pass's share of a streaming pass's thread-time.
    out.metric("core.policy_probs_share", policy_ms / (1e3 * median(pass_cpu)), "ratio");
    out.metric("core.stream_pass_ms", pass_ms, "ms");
    out.metric("stats.bootstrap_ms", boot_ms, "ms");
    out.metric("core.stream_residual_ms", pass_ms - busy_ms / threads - boot_ms,
               "ms");
    out.metric("par.cpu_util", median(util), "ratio");
    out.metric("bench.trace_overhead_pct",
               100.0 * (1e3 * median(timed_wall) / pass_ms - 1.0), "%");
    out.context["cache_lookups"] = std::to_string(hits + misses);
}

} // namespace e2e
