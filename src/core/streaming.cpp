#include "core/streaming.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include <unistd.h>

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

// ---------------------------------------------------------------------------
// Checkpoint file format (host byte order; same-machine resume):
//   magic "DRECKPT1" | u64 config_hash | payload | u64 fnv1a(all preceding)
// The payload is the complete reduction state at a wave boundary. Doubles
// are stored as bit patterns, so a resumed run restarts from *exactly* the
// interrupted run's floating-point state.
// ---------------------------------------------------------------------------

constexpr char kCheckpointMagic[8] = {'D', 'R', 'E', 'C', 'K', 'P', 'T', '1'};

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t hash = 1469598103934665603ull) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

[[noreturn]] void ckpt_fail(const std::string& what) {
    throw std::runtime_error("checkpoint: " + what);
}

struct Serializer {
    std::string buf;

    void u64(std::uint64_t v) { buf.append(reinterpret_cast<const char*>(&v), 8); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string& s) {
        u64(s.size());
        buf.append(s);
    }
};

struct Parser {
    const std::string& buf;
    std::size_t pos = 0;

    void raw(void* out, std::size_t len) {
        if (pos + len > buf.size()) ckpt_fail("truncated file");
        std::memcpy(out, buf.data() + pos, len);
        pos += len;
    }
    std::uint64_t u64() {
        std::uint64_t v;
        raw(&v, 8);
        return v;
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str() {
        const std::uint64_t len = u64();
        if (len > buf.size() - pos) ckpt_fail("truncated string");
        std::string s(buf.data() + pos, static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len);
        return s;
    }
};

// Everything evaluate_streaming folds across chunks, checkpointable as a
// unit. The bootstrap replicate sums travel alongside (they live in the
// ChunkedMeanBootstrap).
struct StreamState {
    std::uint64_t next_chunk = 0; // first chunk NOT yet merged
    RunState run;
    QuarantineReport quarantine;
};

void put_mean_state(Serializer& s, const par::MeanState& m) {
    s.u64(m.n);
    s.f64(m.mean);
}

par::MeanState get_mean_state(Parser& p) {
    par::MeanState m;
    m.n = static_cast<std::size_t>(p.u64());
    m.mean = p.f64();
    return m;
}

void put_report(Serializer& s, const QuarantineReport& q) {
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

QuarantineReport get_report(Parser& p) {
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
        ckpt_fail("record count exceeds cap");
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
    Serializer s;
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
    return fnv1a(s.buf.data(), s.buf.size());
}

void write_checkpoint(const std::string& path, std::uint64_t hash,
                      const StreamState& state,
                      const std::optional<stats::ChunkedMeanBootstrap>&
                          bootstrap) {
    Serializer s;
    s.buf.append(kCheckpointMagic, sizeof kCheckpointMagic);
    s.u64(hash);
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
    s.u64(fnv1a(s.buf.data(), s.buf.size()));

    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr)
        ckpt_fail("cannot create " + tmp + ": " + std::strerror(errno));
    const bool written =
        std::fwrite(s.buf.data(), 1, s.buf.size(), file) == s.buf.size() &&
        std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    if (std::fclose(file) != 0 || !written) {
        std::remove(tmp.c_str());
        ckpt_fail("write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        ckpt_fail("rename failed for " + path + ": " + std::strerror(errno));
    DRE_COUNTER_INC("stream.checkpoints_written");
}

// Loads and verifies a checkpoint. Returns false (state untouched) when the
// file does not exist; throws on any malformed or mismatched content — a
// damaged checkpoint must never silently fall back to a fresh run.
bool load_checkpoint(const std::string& path, std::uint64_t hash,
                     StreamState& state,
                     std::optional<stats::ChunkedMeanBootstrap>& bootstrap) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return false;
    std::string buf;
    char block[1 << 16];
    std::size_t got;
    while ((got = std::fread(block, 1, sizeof block, file)) > 0)
        buf.append(block, got);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error) ckpt_fail("read failed for " + path);

    if (buf.size() < sizeof kCheckpointMagic + 16) ckpt_fail("truncated file");
    if (std::memcmp(buf.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0)
        ckpt_fail(path + " is not a checkpoint file");
    std::uint64_t stored_sum;
    std::memcpy(&stored_sum, buf.data() + buf.size() - 8, 8);
    if (fnv1a(buf.data(), buf.size() - 8) != stored_sum)
        ckpt_fail(path + " is corrupt (checksum mismatch)");

    Parser p{buf, sizeof kCheckpointMagic};
    if (p.u64() != hash)
        ckpt_fail(path +
                  " was written by a run with different options, data size, "
                  "or seed — refusing to resume");
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
        ckpt_fail("bootstrap presence mismatch"); // config hash covers this
    if (bootstrap) {
        if (p.i64() != bootstrap->replicates())
            ckpt_fail("replicate count mismatch");
        std::array<std::uint64_t, 4> words;
        for (std::uint64_t& word : words) word = p.u64();
        if (words != bootstrap->base_rng().state())
            ckpt_fail("bootstrap generator state mismatch");
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

            std::vector<LoggedTuple> kept;
            if (!chunk_dead) {
                DRE_SPAN("evaluator.stream_read");
                std::vector<LoggedTuple> buffer;
                if (!tolerant) {
                    source.read(begin, len, buffer);
                    if (buffer.size() != len)
                        throw std::runtime_error(
                            "evaluate_streaming: source returned a short "
                            "chunk");
                    kept = std::move(buffer);
                } else {
                    std::vector<TupleReadFailure> failures;
                    source.read_tolerant(begin, len, buffer, failures);
                    for (const TupleReadFailure& f : failures)
                        r.quarantine.add(f.begin, f.count, f.reason, f.shard);
                    // Walk the chunk's global index range, skipping the
                    // failed sub-ranges, to pair each surviving tuple with
                    // its global index for validation.
                    kept.reserve(buffer.size());
                    std::size_t next_tuple = 0;
                    std::size_t next_failure = 0;
                    for (std::uint64_t g = begin; g < begin + len; ++g) {
                        if (next_failure < failures.size() &&
                            g >= failures[next_failure].begin) {
                            g = failures[next_failure].begin +
                                failures[next_failure].count - 1;
                            ++next_failure;
                            continue;
                        }
                        if (next_tuple >= buffer.size())
                            throw std::runtime_error(
                                "evaluate_streaming: tolerant read returned "
                                "fewer tuples than its failure ranges imply");
                        LoggedTuple& t = buffer[next_tuple++];
                        const TupleDefect defect =
                            classify_tuple(t, decision_space);
                        if (defect == TupleDefect::kNone)
                            kept.push_back(std::move(t));
                        else
                            r.quarantine.add(g, 1, reason_code(defect), -1);
                    }
                }
            }

            if (!kept.empty()) {
                const Trace chunk(std::move(kept));
                // A strict run fails on the first unsound tuple; the
                // tolerant modes quarantined them above.
                if (!tolerant) {
                    validate_trace(chunk);
                    if (chunk.num_decisions() > decision_space)
                        throw std::invalid_argument(
                            "estimator: trace uses decisions outside "
                            "policy space");
                }
                // The chunk's q̂ rows, filled in place into this thread's
                // reused buffers. Each row is a pure function of (model,
                // context), so the rows equal the matching rows of the
                // full PredictionMatrix.
                thread_local std::vector<const ClientContext*> contexts;
                thread_local std::vector<double> qhat_rows;
                {
                    DRE_SPAN("evaluator.stream_qhat");
                    contexts.resize(chunk.size());
                    for (std::size_t k = 0; k < chunk.size(); ++k)
                        contexts[k] = &chunk[k].context;
                    qhat_rows.resize(chunk.size() * decision_space);
                    model.predict_rows(contexts.data(), contexts.size(),
                                       qhat_rows.data());
                }
                DRE_SPAN("evaluator.stream_kernel");
                r.partial = evaluate_chunk(chunk.tuples(), qhat_rows.data(),
                                           policy, options.estimator_options,
                                           boot, c);
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
    if (bootstrap && options.on_error == FailureMode::kDegrade) {
        // Coverage-qualified CI: divide each half-width by the coverage
        // fraction. Deterministic, monotone in the quarantined mass, and
        // the identity transform for a clean run.
        const double coverage = result.quarantine.coverage();
        if (coverage < 1.0 && coverage > 0.0) {
            stats::ConfidenceInterval& ci = *result.evaluation.dr_ci;
            ci.lower = ci.point - (ci.point - ci.lower) / coverage;
            ci.upper = ci.point + (ci.upper - ci.point) / coverage;
        }
    }
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
