// Test oracle for core::TabularRewardModel.
//
// MixedKeyTabularOracle is the model's earlier, plain layout: one
// std::unordered_map cell per (context, decision), keyed by the context
// fingerprint with the decision mixed in, each cell a running mean folded
// in trace order, falling back to the per-decision mean and then the
// global mean. TabularRewardModel (one probe per context into a packed
// open-addressing table) must reproduce its predictions bit for bit.
//
// The only divergence the oracle admits is a 64-bit key collision: two
// (context, decision) pairs of different contexts whose mixed keys are
// equal share one cell here and not in the model. Tests never hit one.
#ifndef DRE_TESTS_TABULAR_ORACLE_H
#define DRE_TESTS_TABULAR_ORACLE_H

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/reward_model.h"
#include "trace/trace.h"
#include "trace/types.h"

namespace dre::core::oracle {

class MixedKeyTabularOracle final : public RewardModel {
public:
    explicit MixedKeyTabularOracle(std::size_t num_decisions)
        : num_decisions_(num_decisions), decision_means_(num_decisions) {}

    void fit(const Trace& trace) {
        validate_trace(trace);
        cell_means_.clear();
        decision_means_.assign(num_decisions_, {});
        global_mean_ = {};
        for (const auto& t : trace) {
            if (t.decision < 0 ||
                static_cast<std::size_t>(t.decision) >= num_decisions_)
                throw std::out_of_range("oracle: decision out of range");
            cell_means_[cell_key(context_fingerprint(t.context), t.decision)]
                .add(t.reward);
            decision_means_[static_cast<std::size_t>(t.decision)].add(t.reward);
            global_mean_.add(t.reward);
        }
    }

    double predict(const ClientContext& context, Decision d) const override {
        const auto it =
            cell_means_.find(cell_key(context_fingerprint(context), d));
        if (it != cell_means_.end()) return it->second.mean;
        const auto& per_decision = decision_means_[static_cast<std::size_t>(d)];
        if (per_decision.count > 0) return per_decision.mean;
        return global_mean_.mean;
    }

    std::size_t num_decisions() const noexcept override {
        return num_decisions_;
    }

    std::size_t cells() const noexcept { return cell_means_.size(); }

private:
    struct MeanCount {
        double mean = 0.0;
        std::size_t count = 0;
        void add(double x) {
            ++count;
            mean += (x - mean) / static_cast<double>(count);
        }
    };

    static std::uint64_t cell_key(std::uint64_t h, Decision d) noexcept {
        h ^= 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(d) +
             (h << 6) + (h >> 2);
        return h;
    }

    std::size_t num_decisions_;
    std::unordered_map<std::uint64_t, MeanCount> cell_means_;
    std::vector<MeanCount> decision_means_;
    MeanCount global_mean_;
};

} // namespace dre::core::oracle

#endif // DRE_TESTS_TABULAR_ORACLE_H
