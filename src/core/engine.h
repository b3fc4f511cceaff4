// The evaluation engine behind both front ends: Evaluator runs it over its
// resident trace and q̂ matrix, evaluate_streaming (core/streaming.h) over
// chunks pulled from a TupleSource. A chunk is ≤ par::kReduceChunk tuples
// at a fixed global offset; evaluate_chunk folds it in one pass,
// RunState::merge folds the partials in chunk order, and finalize builds
// the PolicyEvaluation. Every fold is the arithmetic of the per-estimator
// functions (core/estimators.h, core/diagnostics.h), so the result is
// bit-identical to running them one after another, for any DRE_THREADS.
#ifndef DRE_CORE_ENGINE_H
#define DRE_CORE_ENGINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"

namespace dre::core {

// What one chunk contributes.
struct ChunkPartial {
    par::MeanState dm, ips, dr, switch_dr;
    double weight_sum = 0.0;           // Σ w_k (SNIPS denominator)
    double weighted_reward_sum = 0.0;  // Σ w_k r_k (SNIPS numerator)
    std::vector<double> weights;       // w_k in order, for the overlap fold
    std::vector<double> boot_partials; // per-replicate DR resample sums
};

// The chunk kernel (defined in estimators.cpp, beside the per-estimator
// functions whose per-tuple terms it shares). `qhat_rows` holds
// policy.num_decisions() q̂ values per tuple, row-major, row k ↔ tuples[k].
// With a bootstrap, the chunk's DR values are resampled under `chunk_id`'s
// streams. Inputs are trusted (the callers validate them) and the pass is
// serial: callers run one chunk per pool task.
ChunkPartial evaluate_chunk(std::span<const LoggedTuple> tuples,
                            const double* qhat_rows, const Policy& policy,
                            const EstimatorOptions& options,
                            const stats::ChunkedMeanBootstrap* bootstrap,
                            std::uint64_t chunk_id);

// Running totals over the chunks merged so far.
struct RunState {
    par::MeanState dm, ips, dr, switch_dr;
    double weight_total = 0.0, weighted_reward_total = 0.0;
    double o_sum = 0.0, o_sum_sq = 0.0, o_max = 0.0;
    std::uint64_t o_zeros = 0;
    stats::Accumulator weight_acc;

    std::uint64_t evaluated() const noexcept { return dm.n; }
    // Folds the next chunk. Chunks MUST arrive in chunk-id order.
    void merge(const ChunkPartial& chunk,
               stats::ChunkedMeanBootstrap* bootstrap);
};

// Requires state.evaluated() > 0.
PolicyEvaluation finalize(const RunState& state,
                          const stats::ChunkedMeanBootstrap* bootstrap);

} // namespace dre::core

#endif // DRE_CORE_ENGINE_H
