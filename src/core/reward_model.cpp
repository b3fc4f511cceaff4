#include "core/reward_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace dre::core {
namespace {

// Running mean after folding in x as the count-th value. The sequence of
// folds fixes a mean's bits.
double running_mean(double mean, std::size_t count, double x) noexcept {
    return mean + (x - mean) / static_cast<double>(count);
}

struct MeanCount {
    double mean = 0.0;
    std::size_t count = 0;
    void add(double x) { mean = running_mean(mean, ++count, x); }
};

// Fibonacci hashing: the top bits of fingerprint × 2^64/φ pick the home
// slot, so table sizes can stay powers of two.
constexpr std::uint64_t kSlotHashMul = 0x9e3779b97f4a7c15ull;

std::size_t home_slot(std::uint64_t fingerprint, unsigned shift) noexcept {
    return static_cast<std::size_t>((fingerprint * kSlotHashMul) >> shift);
}

void check_decision(Decision d, std::size_t n, const char* who) {
    if (d < 0 || static_cast<std::size_t>(d) >= n)
        throw std::out_of_range(std::string(who) + ": decision out of range");
}

} // namespace

ConstantRewardModel::ConstantRewardModel(std::size_t num_decisions, double value)
    : num_decisions_(num_decisions), value_(value) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("ConstantRewardModel: empty decision space");
}

OracleRewardModel::OracleRewardModel(std::size_t num_decisions, Fn fn)
    : num_decisions_(num_decisions), fn_(std::move(fn)) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("OracleRewardModel: empty decision space");
    if (!fn_) throw std::invalid_argument("OracleRewardModel: null function");
}

double OracleRewardModel::predict(const ClientContext& context, Decision d) const {
    check_decision(d, num_decisions_, "OracleRewardModel");
    return fn_(context, d);
}

TabularRewardModel::TabularRewardModel(std::size_t num_decisions)
    : num_decisions_(num_decisions) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("TabularRewardModel: empty decision space");
}

void TabularRewardModel::fit(const Trace& trace) {
    validate_trace(trace);
    if (trace.size() > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("TabularRewardModel::fit: trace too large");
    for (const auto& t : trace)
        check_decision(t.decision, num_decisions_, "TabularRewardModel::fit");

    // 1. The distinct (fingerprint, decision) pairs, sorted: each context's
    //    cells form one contiguous, decision-ordered run.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
    keys.reserve(trace.size());
    for (const auto& t : trace)
        keys.emplace_back(context_fingerprint(t.context),
                          static_cast<std::uint32_t>(t.decision));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    // 2. One slot per run, in a table at most 3/4 full — sized once, so the
    //    fit leaves no outgrown tables behind.
    std::size_t num_contexts = 0;
    for (std::size_t i = 0; i < keys.size(); ++i)
        num_contexts += i == 0 || keys[i].first != keys[i - 1].first;
    unsigned shift = 60; // 16 slots
    while (4 * num_contexts > 3 * (std::size_t{1} << (64 - shift))) --shift;
    std::vector<Slot> slots(std::size_t{1} << (64 - shift));
    std::vector<Cell> cells(keys.size());
    Slot* run = nullptr;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == 0 || keys[i].first != keys[i - 1].first) {
            run = &slots[probe(slots, shift, keys[i].first)];
            *run = {keys[i].first, static_cast<std::uint32_t>(i), 0};
        }
        ++run->count;
        cells[i].decision = keys[i].second;
    }
    keys = {};

    // 3. Fold every reward into its cell in trace order: each cell mean sees
    //    the MeanCount::add sequence of its tuples, so its bits are fixed.
    std::vector<std::uint32_t> counts(cells.size());
    std::vector<MeanCount> decision_means(num_decisions_);
    MeanCount global_mean;
    for (const auto& t : trace) {
        const Slot& slot =
            slots[probe(slots, shift, context_fingerprint(t.context))];
        std::uint32_t c = slot.begin;
        while (cells[c].decision != static_cast<std::uint32_t>(t.decision)) ++c;
        cells[c].mean = running_mean(cells[c].mean, ++counts[c], t.reward);
        decision_means[static_cast<std::size_t>(t.decision)].add(t.reward);
        global_mean.add(t.reward);
    }

    fallback_.resize(num_decisions_);
    for (std::size_t d = 0; d < num_decisions_; ++d)
        fallback_[d] = decision_means[d].count > 0 ? decision_means[d].mean
                                                   : global_mean.mean;
    slots_ = std::move(slots);
    shift_ = shift;
    cells_ = std::move(cells);
    fitted_ = true;
}

std::size_t TabularRewardModel::probe(const std::vector<Slot>& table,
                                      unsigned shift,
                                      std::uint64_t fingerprint) noexcept {
    const std::size_t mask = table.size() - 1;
    std::size_t i = home_slot(fingerprint, shift);
    while (table[i].count != 0 && table[i].fingerprint != fingerprint)
        i = (i + 1) & mask;
    return i;
}

const TabularRewardModel::Slot* TabularRewardModel::find(
    std::uint64_t fingerprint) const noexcept {
    const Slot& slot = slots_[probe(slots_, shift_, fingerprint)];
    return slot.count != 0 ? &slot : nullptr;
}

void TabularRewardModel::fill_row(const Slot* slot, double* out) const noexcept {
    std::copy(fallback_.begin(), fallback_.end(), out);
    if (slot == nullptr) return;
    const Cell* cell = cells_.data() + slot->begin;
    for (const Cell* end = cell + slot->count; cell != end; ++cell)
        out[cell->decision] = cell->mean;
}

double TabularRewardModel::predict(const ClientContext& context, Decision d) const {
    if (!fitted_) throw std::logic_error("TabularRewardModel::predict before fit");
    check_decision(d, num_decisions_, "TabularRewardModel::predict");
    if (const Slot* slot = find(context_fingerprint(context))) {
        const Cell* cell = cells_.data() + slot->begin;
        for (const Cell* end = cell + slot->count; cell != end; ++cell)
            if (cell->decision == static_cast<std::uint32_t>(d))
                return cell->mean;
    }
    return fallback_[static_cast<std::size_t>(d)];
}

void TabularRewardModel::predict_row(const ClientContext& context,
                                     double* out) const {
    if (!fitted_)
        throw std::logic_error("TabularRewardModel::predict_row before fit");
    fill_row(find(context_fingerprint(context)), out);
}

void TabularRewardModel::predict_rows(const ClientContext* const* contexts,
                                      std::size_t count, double* out) const {
    if (!fitted_)
        throw std::logic_error("TabularRewardModel::predict_rows before fit");
    constexpr std::size_t kBatch = 16;
    std::uint64_t fingerprints[kBatch];
    for (std::size_t base = 0; base < count; base += kBatch) {
        const std::size_t batch = std::min(kBatch, count - base);
        for (std::size_t i = 0; i < batch; ++i) {
            fingerprints[i] = context_fingerprint(*contexts[base + i]);
            __builtin_prefetch(&slots_[home_slot(fingerprints[i], shift_)]);
        }
        for (std::size_t i = 0; i < batch; ++i)
            fill_row(find(fingerprints[i]), out + (base + i) * num_decisions_);
    }
}

LinearRewardModel::LinearRewardModel(std::size_t num_decisions, double l2)
    : num_decisions_(num_decisions), l2_(l2) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("LinearRewardModel: empty decision space");
    if (l2_ < 0.0) throw std::invalid_argument("LinearRewardModel: negative l2");
}

void LinearRewardModel::fit(const Trace& trace) {
    validate_trace(trace);
    per_decision_.assign(num_decisions_, {});
    has_model_.assign(num_decisions_, false);

    std::vector<std::vector<std::vector<double>>> features(num_decisions_);
    std::vector<std::vector<double>> targets(num_decisions_);
    double total = 0.0;
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "LinearRewardModel::fit");
        const auto d = static_cast<std::size_t>(t.decision);
        features[d].push_back(t.context.flattened());
        targets[d].push_back(t.reward);
        total += t.reward;
    }
    global_mean_ = trace.empty() ? 0.0 : total / static_cast<double>(trace.size());
    for (std::size_t d = 0; d < num_decisions_; ++d) {
        if (features[d].empty()) continue;
        per_decision_[d].fit(features[d], targets[d], l2_);
        has_model_[d] = true;
    }
    fitted_ = true;
}

double LinearRewardModel::predict(const ClientContext& context, Decision d) const {
    if (!fitted_) throw std::logic_error("LinearRewardModel::predict before fit");
    check_decision(d, num_decisions_, "LinearRewardModel::predict");
    const auto index = static_cast<std::size_t>(d);
    if (!has_model_[index]) return global_mean_;
    return per_decision_[index].predict(context.flattened());
}

void LinearRewardModel::predict_row(const ClientContext& context,
                                    double* out) const {
    if (!fitted_)
        throw std::logic_error("LinearRewardModel::predict_row before fit");
    const std::vector<double> flat = context.flattened();
    for (std::size_t d = 0; d < num_decisions_; ++d)
        out[d] = has_model_[d] ? per_decision_[d].predict(flat) : global_mean_;
}

KnnRewardModel::KnnRewardModel(std::size_t num_decisions, std::size_t k,
                               bool one_hot_categoricals)
    : num_decisions_(num_decisions), k_(k), one_hot_(one_hot_categoricals) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("KnnRewardModel: empty decision space");
    if (k_ == 0) throw std::invalid_argument("KnnRewardModel: k must be > 0");
}

std::vector<double> KnnRewardModel::encode(const ClientContext& context) const {
    if (!one_hot_) return context.flattened();
    std::vector<double> out = context.numeric;
    for (std::size_t i = 0; i < context.categorical.size(); ++i) {
        const std::int32_t cardinality =
            i < cardinalities_.size() ? cardinalities_[i] : 0;
        const std::size_t base = out.size();
        out.resize(base + static_cast<std::size_t>(std::max(cardinality, 1)), 0.0);
        const std::int32_t value = context.categorical[i];
        if (value >= 0 && value < cardinality)
            out[base + static_cast<std::size_t>(value)] = 1.0;
    }
    return out;
}

void KnnRewardModel::fit(const Trace& trace) {
    validate_trace(trace);
    per_decision_.assign(num_decisions_, stats::KnnRegressor{k_});
    has_model_.assign(num_decisions_, false);

    // Infer categorical cardinalities for one-hot encoding.
    cardinalities_.clear();
    if (one_hot_) {
        for (const auto& t : trace) {
            if (t.context.categorical.size() > cardinalities_.size())
                cardinalities_.resize(t.context.categorical.size(), 0);
            for (std::size_t i = 0; i < t.context.categorical.size(); ++i)
                cardinalities_[i] =
                    std::max(cardinalities_[i], t.context.categorical[i] + 1);
        }
    }

    std::vector<std::vector<std::vector<double>>> features(num_decisions_);
    std::vector<std::vector<double>> targets(num_decisions_);
    double total = 0.0;
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "KnnRewardModel::fit");
        const auto d = static_cast<std::size_t>(t.decision);
        features[d].push_back(encode(t.context));
        targets[d].push_back(t.reward);
        total += t.reward;
    }
    global_mean_ = trace.empty() ? 0.0 : total / static_cast<double>(trace.size());
    for (std::size_t d = 0; d < num_decisions_; ++d) {
        if (features[d].empty()) continue;
        per_decision_[d].fit(features[d], targets[d]);
        has_model_[d] = true;
    }
    fitted_ = true;
}

double KnnRewardModel::predict(const ClientContext& context, Decision d) const {
    if (!fitted_) throw std::logic_error("KnnRewardModel::predict before fit");
    check_decision(d, num_decisions_, "KnnRewardModel::predict");
    const auto index = static_cast<std::size_t>(d);
    if (!has_model_[index]) return global_mean_;
    return per_decision_[index].predict(encode(context));
}

void KnnRewardModel::predict_row(const ClientContext& context,
                                 double* out) const {
    if (!fitted_)
        throw std::logic_error("KnnRewardModel::predict_row before fit");
    const std::vector<double> encoded = encode(context);
    for (std::size_t d = 0; d < num_decisions_; ++d)
        out[d] = has_model_[d] ? per_decision_[d].predict(encoded) : global_mean_;
}

void KnnRewardModel::predict_rows(const ClientContext* const* contexts,
                                  std::size_t count, double* out) const {
    if (!fitted_)
        throw std::logic_error("KnnRewardModel::predict_rows before fit");
    // Batch size bounds the encoded-query scratch (~batch × dims doubles)
    // so one KD-tree's blocks plus the batch fit in L2 together.
    constexpr std::size_t kRowBatch = 256;
    std::vector<std::vector<double>> encoded;
    encoded.reserve(std::min(count, kRowBatch));
    for (std::size_t base = 0; base < count; base += kRowBatch) {
        const std::size_t batch = std::min(kRowBatch, count - base);
        encoded.clear();
        for (std::size_t i = 0; i < batch; ++i)
            encoded.push_back(encode(*contexts[base + i]));
        // Decision-major: one tree serves the whole batch before the next
        // tree is touched. Each out[row * num_decisions_ + d] gets exactly
        // the value predict_row would have written — entries are
        // independent, so the loop order is invisible in the result.
        for (std::size_t d = 0; d < num_decisions_; ++d) {
            double* col = out + base * num_decisions_ + d;
            if (!has_model_[d]) {
                for (std::size_t i = 0; i < batch; ++i)
                    col[i * num_decisions_] = global_mean_;
                continue;
            }
            const stats::KnnRegressor& reg = per_decision_[d];
            for (std::size_t i = 0; i < batch; ++i)
                col[i * num_decisions_] = reg.predict(encoded[i]);
        }
    }
}

std::unique_ptr<RewardModel> fit_reward_model(RewardModelKind kind,
                                              std::size_t num_decisions,
                                              const Trace& trace) {
    switch (kind) {
        case RewardModelKind::kTabular: {
            auto model = std::make_unique<TabularRewardModel>(num_decisions);
            model->fit(trace);
            return model;
        }
        case RewardModelKind::kLinear: {
            auto model = std::make_unique<LinearRewardModel>(num_decisions);
            model->fit(trace);
            return model;
        }
        case RewardModelKind::kKnn: {
            auto model = std::make_unique<KnnRewardModel>(num_decisions);
            model->fit(trace);
            return model;
        }
    }
    throw std::invalid_argument("fit_reward_model: unknown kind");
}

} // namespace dre::core
