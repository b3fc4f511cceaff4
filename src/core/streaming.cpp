#include "core/streaming.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/parallel.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"
#include "trace/validate.h"

namespace dre::core {

void TraceTupleSource::read(std::uint64_t begin, std::uint64_t count,
                            std::vector<LoggedTuple>& out) const {
    out.clear();
    if (count > trace_->size() || begin > trace_->size() - count)
        throw std::out_of_range("TraceTupleSource: read past end of trace");
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        out.push_back((*trace_)[begin + i]);
}

const char* to_string(FailureMode mode) noexcept {
    switch (mode) {
        case FailureMode::kStrict: return "strict";
        case FailureMode::kQuarantine: return "quarantine";
        case FailureMode::kDegrade: return "degrade";
    }
    return "unknown";
}

FailureMode parse_failure_mode(std::string_view text) {
    if (text == "strict") return FailureMode::kStrict;
    if (text == "quarantine") return FailureMode::kQuarantine;
    if (text == "degrade") return FailureMode::kDegrade;
    throw std::invalid_argument("unknown failure mode '" + std::string(text) +
                                "' (expected strict|quarantine|degrade)");
}

double QuarantineReport::coverage() const noexcept {
    if (tuples_total == 0) return 1.0;
    return static_cast<double>(tuples_evaluated) /
           static_cast<double>(tuples_total);
}

namespace {

// Appends `rec`, coalescing it into the previous record when contiguous
// with the same reason and shard; past the cap it is only counted.
void append_record(QuarantineReport& report, QuarantineRecord rec) {
    if (!report.records.empty()) {
        QuarantineRecord& last = report.records.back();
        if (last.begin + last.count == rec.begin && last.reason == rec.reason &&
            last.shard == rec.shard) {
            last.count += rec.count;
            return;
        }
    }
    if (report.records.size() >= QuarantineReport::kMaxRecords) {
        ++report.records_dropped;
        return;
    }
    report.records.push_back(std::move(rec));
}

} // namespace

void QuarantineReport::add(std::uint64_t begin, std::uint64_t count,
                           const std::string& reason, std::int64_t shard) {
    if (count == 0) return;
    tuples_quarantined += count;
    reason_counts[reason] += count;
    shard_counts[shard] += count;
    append_record(*this, {begin, count, reason, shard});
}

void QuarantineReport::merge(const QuarantineReport& other) {
    tuples_quarantined += other.tuples_quarantined;
    chunks_quarantined += other.chunks_quarantined;
    for (const auto& [reason, n] : other.reason_counts)
        reason_counts[reason] += n;
    for (const auto& [shard, n] : other.shard_counts) shard_counts[shard] += n;
    records_dropped += other.records_dropped;
    for (const QuarantineRecord& rec : other.records) append_record(*this, rec);
}

std::string QuarantineReport::to_text() const {
    char line[256];
    std::string out = "quarantine report\n";
    const auto add_count = [&](const char* label, std::uint64_t value) {
        std::snprintf(line, sizeof line, "  %-20s%llu\n", label,
                      static_cast<unsigned long long>(value));
        out += line;
    };
    add_count("tuples total:", tuples_total);
    add_count("tuples evaluated:", tuples_evaluated);
    add_count("tuples quarantined:", tuples_quarantined);
    add_count("chunks quarantined:", chunks_quarantined);
    std::snprintf(line, sizeof line, "  %-20s%.17g\n", "coverage:", coverage());
    out += line;
    if (!reason_counts.empty()) {
        out += "  reasons:\n";
        for (const auto& [reason, n] : reason_counts) {
            std::snprintf(line, sizeof line, "    %s: %llu\n", reason.c_str(),
                          static_cast<unsigned long long>(n));
            out += line;
        }
    }
    if (!shard_counts.empty()) {
        out += "  shards:\n";
        for (const auto& [shard, n] : shard_counts) {
            std::snprintf(line, sizeof line, "    shard %lld: %llu\n",
                          static_cast<long long>(shard),
                          static_cast<unsigned long long>(n));
            out += line;
        }
    }
    if (!records.empty()) {
        std::snprintf(line, sizeof line,
                      "  records (%llu shown, %llu dropped):\n",
                      static_cast<unsigned long long>(records.size()),
                      static_cast<unsigned long long>(records_dropped));
        out += line;
        for (const QuarantineRecord& rec : records) {
            std::snprintf(line, sizeof line, "    [%llu, %llu) %s shard=%lld\n",
                          static_cast<unsigned long long>(rec.begin),
                          static_cast<unsigned long long>(rec.begin + rec.count),
                          rec.reason.c_str(), static_cast<long long>(rec.shard));
            out += line;
        }
    }
    return out;
}

namespace {

// The streaming checkpoint (core/checkpoint.h framing): the payload is the
// complete reduction state at a wave boundary.
constexpr CheckpointFormat kCheckpointFormat{"DRECKPT1", "checkpoint",
                                             "options, data size, or seed"};

// Everything evaluate_streaming folds across chunks, checkpointable as a
// unit. The bootstrap replicate sums travel alongside (they live in the
// ChunkedMeanBootstrap).
struct StreamState {
    std::uint64_t next_chunk = 0; // first chunk NOT yet merged
    RunState run;
    QuarantineReport quarantine;
};

void put_mean_state(CheckpointWriter& s, const par::MeanState& m) {
    s.u64(m.n);
    s.f64(m.mean);
}

par::MeanState get_mean_state(CheckpointReader& p) {
    par::MeanState m;
    m.n = static_cast<std::size_t>(p.u64());
    m.mean = p.f64();
    return m;
}

void put_report(CheckpointWriter& s, const QuarantineReport& q) {
    s.u64(q.tuples_total);
    s.u64(q.tuples_evaluated);
    s.u64(q.tuples_quarantined);
    s.u64(q.chunks_quarantined);
    s.u64(q.records_dropped);
    s.u64(q.reason_counts.size());
    for (const auto& [reason, n] : q.reason_counts) {
        s.str(reason);
        s.u64(n);
    }
    s.u64(q.shard_counts.size());
    for (const auto& [shard, n] : q.shard_counts) {
        s.i64(shard);
        s.u64(n);
    }
    s.u64(q.records.size());
    for (const QuarantineRecord& rec : q.records) {
        s.u64(rec.begin);
        s.u64(rec.count);
        s.str(rec.reason);
        s.i64(rec.shard);
    }
}

QuarantineReport get_report(CheckpointReader& p) {
    QuarantineReport q;
    q.tuples_total = p.u64();
    q.tuples_evaluated = p.u64();
    q.tuples_quarantined = p.u64();
    q.chunks_quarantined = p.u64();
    q.records_dropped = p.u64();
    for (std::uint64_t i = 0, n = p.u64(); i < n; ++i) {
        std::string reason = p.str();
        q.reason_counts[std::move(reason)] = p.u64();
    }
    for (std::uint64_t i = 0, n = p.u64(); i < n; ++i) {
        const std::int64_t shard = p.i64();
        q.shard_counts[shard] = p.u64();
    }
    const std::uint64_t num_records = p.u64();
    if (num_records > QuarantineReport::kMaxRecords)
        p.fail("record count exceeds cap");
    q.records.reserve(static_cast<std::size_t>(num_records));
    for (std::uint64_t i = 0; i < num_records; ++i) {
        QuarantineRecord rec;
        rec.begin = p.u64();
        rec.count = p.u64();
        rec.reason = p.str();
        rec.shard = p.i64();
        q.records.push_back(std::move(rec));
    }
    return q;
}

// The options/geometry fingerprint a checkpoint is only valid for. The
// bootstrap base-generator words fold in the caller's seed, so resuming
// with a different --seed is refused instead of silently diverging.
std::uint64_t config_hash(std::uint64_t n, const StreamingOptions& options,
                          const std::optional<stats::ChunkedMeanBootstrap>&
                              bootstrap) {
    CheckpointWriter s;
    s.u64(n);
    s.u64(par::kReduceChunk);
    s.i64(options.ci_replicates);
    s.f64(options.ci_level);
    s.f64(options.estimator_options.weight_clip);
    s.f64(options.estimator_options.switch_threshold);
    s.i64(static_cast<std::int64_t>(options.on_error));
    s.u64(bootstrap ? 1 : 0);
    if (bootstrap)
        for (const std::uint64_t word : bootstrap->base_rng().state())
            s.u64(word);
    return s.digest();
}

void write_checkpoint(const std::string& path, std::uint64_t hash,
                      const StreamState& state,
                      const std::optional<stats::ChunkedMeanBootstrap>&
                          bootstrap) {
    CheckpointWriter s = begin_checkpoint(kCheckpointFormat, hash);
    s.u64(state.next_chunk);
    const RunState& run = state.run;
    for (const par::MeanState* m : {&run.dm, &run.ips, &run.dr, &run.switch_dr})
        put_mean_state(s, *m);
    for (const double x : {run.weight_total, run.weighted_reward_total,
                           run.o_sum, run.o_sum_sq, run.o_max})
        s.f64(x);
    s.u64(run.o_zeros);
    const stats::Accumulator::State acc = run.weight_acc.state();
    s.u64(acc.n);
    s.f64(acc.mean);
    s.f64(acc.m2);
    s.f64(acc.sum);
    s.f64(acc.min);
    s.f64(acc.max);
    s.u64(bootstrap ? 1 : 0);
    if (bootstrap) {
        s.i64(bootstrap->replicates());
        for (const std::uint64_t word : bootstrap->base_rng().state())
            s.u64(word);
        for (const double sum : bootstrap->replicate_sums()) s.f64(sum);
    }
    put_report(s, state.quarantine);
    commit_checkpoint(kCheckpointFormat, s, path);
    DRE_COUNTER_INC("stream.checkpoints_written");
}

// Loads and verifies a checkpoint. Returns false (state untouched) when the
// file does not exist; throws on any malformed or mismatched content — a
// damaged checkpoint must never silently fall back to a fresh run.
bool load_checkpoint(const std::string& path, std::uint64_t hash,
                     StreamState& state,
                     std::optional<stats::ChunkedMeanBootstrap>& bootstrap) {
    std::optional<CheckpointReader> reader =
        load_checkpoint_file(kCheckpointFormat, path, hash);
    if (!reader) return false;
    CheckpointReader& p = *reader;
    state.next_chunk = p.u64();
    RunState& run = state.run;
    for (par::MeanState* m : {&run.dm, &run.ips, &run.dr, &run.switch_dr})
        *m = get_mean_state(p);
    for (double* x : {&run.weight_total, &run.weighted_reward_total,
                      &run.o_sum, &run.o_sum_sq, &run.o_max})
        *x = p.f64();
    run.o_zeros = p.u64();
    stats::Accumulator::State acc;
    acc.n = static_cast<std::size_t>(p.u64());
    acc.mean = p.f64();
    acc.m2 = p.f64();
    acc.sum = p.f64();
    acc.min = p.f64();
    acc.max = p.f64();
    run.weight_acc = stats::Accumulator::from_state(acc);
    const bool has_bootstrap = p.u64() != 0;
    if (has_bootstrap != bootstrap.has_value())
        p.fail("bootstrap presence mismatch"); // config hash covers this
    if (bootstrap) {
        if (p.i64() != bootstrap->replicates())
            p.fail("replicate count mismatch");
        std::array<std::uint64_t, 4> words;
        for (std::uint64_t& word : words) word = p.u64();
        if (words != bootstrap->base_rng().state())
            p.fail("bootstrap generator state mismatch");
        std::vector<double> sums(
            static_cast<std::size_t>(bootstrap->replicates()));
        for (double& sum : sums) sum = p.f64();
        bootstrap->restore_sums(sums);
    }
    state.quarantine = get_report(p);
    DRE_COUNTER_INC("stream.resumes");
    return true;
}

// Everything evaluate_streaming keeps per in-flight chunk. Folded into the
// running totals strictly in chunk order, then discarded.
struct ChunkResult {
    ChunkPartial partial;        // the engine's fold of the kept tuples
    QuarantineReport quarantine; // this chunk's skipped tuples
};

const char* stream_fault_reason(fault::FaultKind kind) noexcept {
    switch (kind) {
        case fault::FaultKind::kTransient: return "stream-fault-transient";
        case fault::FaultKind::kPermanent: return "stream-fault-permanent";
        case fault::FaultKind::kCorruption: return "stream-fault-corruption";
        case fault::FaultKind::kSlow: break; // advisory: never thrown
    }
    return "stream-fault";
}

} // namespace

StreamingResult evaluate_streaming_guarded(const TupleSource& source,
                                           const RewardModel& model,
                                           const Policy& policy,
                                           const StreamingOptions& options,
                                           stats::Rng rng) {
    DRE_SPAN("evaluator.stream");
    const std::uint64_t n = source.num_tuples();
    if (n == 0) throw std::invalid_argument("evaluate_streaming: empty source");
    if (model.num_decisions() != policy.num_decisions())
        throw std::invalid_argument(
            "evaluate_streaming: model/policy decision-space mismatch");
    if (source.num_decisions() > policy.num_decisions())
        throw std::invalid_argument(
            "evaluate_streaming: source uses decisions outside policy space");
    if (options.chunk_max_attempts < 1)
        throw std::invalid_argument(
            "evaluate_streaming: chunk_max_attempts must be >= 1");
    if (options.resume && options.checkpoint_path.empty())
        throw std::invalid_argument(
            "evaluate_streaming: resume requires a checkpoint path");
    if (!(options.estimator_options.switch_threshold > 0.0))
        throw std::invalid_argument(
            "evaluate_streaming: SWITCH threshold must be > 0");
    const bool tolerant = options.on_error != FailureMode::kStrict;

    // RNG protocol matches Evaluator::evaluate_with: the generator advances
    // exactly once — inside the bootstrap — and only when a CI is on.
    std::optional<stats::ChunkedMeanBootstrap> bootstrap;
    if (options.ci_replicates > 0)
        bootstrap.emplace(rng.split(), options.ci_replicates, options.ci_level);
    stats::ChunkedMeanBootstrap* boot = bootstrap ? &*bootstrap : nullptr;

    // Chunk geometry is the *global tuple index* over kReduceChunk — the
    // same boundaries par::chunked_mean/chunked_sum use on the in-memory
    // arrays, and deliberately decoupled from row-group and shard layout.
    const std::uint64_t chunks =
        (n + par::kReduceChunk - 1) / par::kReduceChunk;
    const std::size_t wave =
        options.wave_chunks != 0
            ? options.wave_chunks
            : std::max<std::size_t>(4 * par::thread_count(), 1);

    StreamState state;
    state.quarantine.tuples_total = n;

    const std::uint64_t hash = config_hash(n, options, bootstrap);
    if (options.resume)
        load_checkpoint(options.checkpoint_path, hash, state, bootstrap);

    // The per-tuple decision-range check uses the policy's decision space:
    // anything inside it is evaluable even if the source header undercounts.
    const std::size_t decision_space = policy.num_decisions();

    std::vector<ChunkResult> wave_results(
        static_cast<std::size_t>(std::min<std::uint64_t>(wave, chunks)));
    for (std::uint64_t wave_begin = state.next_chunk; wave_begin < chunks;
         wave_begin += wave) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(wave, chunks - wave_begin));
        par::parallel_for(count, [&](std::size_t i) {
            DRE_SPAN("evaluator.stream_chunk");
            const std::uint64_t c = wave_begin + i;
            const std::uint64_t begin = c * par::kReduceChunk;
            const std::uint64_t len =
                std::min<std::uint64_t>(par::kReduceChunk, n - begin);
            ChunkResult r;

            // stream.chunk fault gate, keyed by the global chunk id so a
            // schedule fires on the same chunks for any DRE_THREADS.
            // Transients retry (deterministically, up to the budget);
            // anything else aborts a strict run or quarantines the whole
            // chunk in the tolerant modes.
            bool chunk_dead = false;
            for (int attempt = 0;; ++attempt) {
                try {
                    DRE_FAULT_INJECT("stream.chunk", c, attempt);
                    break;
                } catch (const fault::FaultError& e) {
                    if (e.kind() == fault::FaultKind::kTransient &&
                        attempt + 1 < options.chunk_max_attempts) {
                        DRE_COUNTER_INC("stream.chunk_retries");
                        continue;
                    }
                    if (!tolerant) throw;
                    r.quarantine.add(begin, len, stream_fault_reason(e.kind()),
                                     -1);
                    ++r.quarantine.chunks_quarantined;
                    chunk_dead = true;
                    break;
                }
            }

            std::vector<LoggedTuple> tuples;
            if (!chunk_dead) {
                DRE_SPAN("evaluator.stream_read");
                std::vector<TupleReadFailure> failures;
                if (tolerant)
                    source.read_tolerant(begin, len, tuples, failures);
                else
                    source.read(begin, len, tuples);
                std::uint64_t unread = 0;
                for (const TupleReadFailure& f : failures) {
                    r.quarantine.add(f.begin, f.count, f.reason, f.shard);
                    unread += f.count;
                }
                if (tuples.size() + unread != len)
                    throw std::runtime_error(
                        "evaluate_streaming: source returned " +
                        std::to_string(tuples.size()) + " tuples and " +
                        std::to_string(unread) + " unreadable for a chunk of " +
                        std::to_string(len));
                // Pair each tuple with its global index (skipping the
                // unreadable ranges), classify it once, and compact the
                // sound ones in place: a strict run throws at the first
                // defect, the tolerant modes quarantine it.
                std::size_t kept = 0;
                std::size_t next_failure = 0;
                std::uint64_t g = begin;
                for (std::size_t k = 0; k < tuples.size(); ++k, ++g) {
                    while (next_failure < failures.size() &&
                           g >= failures[next_failure].begin) {
                        g = failures[next_failure].begin +
                            failures[next_failure].count;
                        ++next_failure;
                    }
                    const TupleDefect defect =
                        classify_tuple(tuples[k], decision_space);
                    if (defect == TupleDefect::kNone) {
                        if (kept != k) tuples[kept] = std::move(tuples[k]);
                        ++kept;
                    } else if (!tolerant) {
                        throw_tuple_defect(g, defect);
                    } else {
                        r.quarantine.add(g, 1, reason_code(defect), -1);
                    }
                }
                tuples.resize(kept);
            }

            if (!tuples.empty()) {
                // The chunk's q̂ rows, filled in place into this thread's
                // reused buffers. Each row is a pure function of (model,
                // context), so the rows equal the matching rows of the
                // full PredictionMatrix.
                thread_local std::vector<const ClientContext*> contexts;
                thread_local std::vector<double> qhat_rows;
                {
                    DRE_SPAN("evaluator.stream_qhat");
                    contexts.resize(tuples.size());
                    for (std::size_t k = 0; k < tuples.size(); ++k)
                        contexts[k] = &tuples[k].context;
                    qhat_rows.resize(tuples.size() * decision_space);
                    model.predict_rows(contexts.data(), contexts.size(),
                                       qhat_rows.data());
                }
                DRE_SPAN("evaluator.stream_kernel");
                r.partial = evaluate_chunk(tuples, qhat_rows.data(), policy,
                                           options.estimator_options, boot, c);
            }
            wave_results[i] = std::move(r);
#if DRE_OBS_ENABLED
            DRE_COUNTER_INC("evaluator.chunks_streamed");
            DRE_COUNTER_ADD("evaluator.tuples_streamed", len);
#endif
        });
        // In-order merge: the only sequencing point, and the reason results
        // cannot depend on thread count or chunk completion order.
        for (std::size_t i = 0; i < count; ++i) {
            ChunkResult& r = wave_results[i];
            state.run.merge(r.partial, boot);
            state.quarantine.tuples_evaluated += r.partial.dm.n;
            state.quarantine.merge(r.quarantine);
            r = ChunkResult{}; // release chunk memory before the next wave
        }
        state.next_chunk = wave_begin + count;
        if (!options.checkpoint_path.empty())
            write_checkpoint(options.checkpoint_path, hash, state, bootstrap);
        // Cooperative stop: only at a wave boundary, only after the merge
        // and checkpoint above, and only when work remains — an interrupt
        // that lands during the final wave just lets the run finish.
        if (options.interrupt != nullptr && state.next_chunk < chunks &&
            options.interrupt->load(std::memory_order_relaxed))
            throw StreamingInterrupted(state.next_chunk, chunks);
    }

#if DRE_OBS_ENABLED
    if (state.quarantine.tuples_quarantined > 0) {
        DRE_COUNTER_ADD("stream.tuples_quarantined",
                        state.quarantine.tuples_quarantined);
        DRE_COUNTER_ADD("stream.chunks_quarantined",
                        state.quarantine.chunks_quarantined);
    }
#endif

    if (state.quarantine.tuples_evaluated == 0)
        throw std::runtime_error(
            "evaluate_streaming: every tuple was quarantined (coverage 0) — "
            "no estimate is possible");

    // Denominators are the *evaluated* tuple count: the estimates are exact
    // over the surviving sub-trace (== n in strict/clean runs).
    StreamingResult result;
    result.quarantine = std::move(state.quarantine);
    result.evaluation = finalize(state.run, boot);
    if (options.on_error == FailureMode::kDegrade)
        widen_ci_by_coverage(result.evaluation, result.quarantine.coverage());
    return result;
}

PolicyEvaluation evaluate_streaming(const TupleSource& source,
                                    const RewardModel& model,
                                    const Policy& policy,
                                    const StreamingOptions& options,
                                    stats::Rng rng) {
    StreamingOptions strict = options;
    strict.on_error = FailureMode::kStrict;
    return evaluate_streaming_guarded(source, model, policy, strict, rng)
        .evaluation;
}

} // namespace dre::core
