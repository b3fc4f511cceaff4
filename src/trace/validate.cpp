#include "trace/validate.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace dre {

const char* reason_code(TupleDefect defect) noexcept {
    switch (defect) {
        case TupleDefect::kNone: return "ok";
        case TupleDefect::kNonFiniteReward: return "non-finite-reward";
        case TupleDefect::kNonFiniteContext: return "non-finite-context";
        case TupleDefect::kInvalidPropensity: return "invalid-propensity";
        case TupleDefect::kDecisionOutOfRange: return "decision-out-of-range";
    }
    return "unknown";
}

TupleDefect classify_tuple(const LoggedTuple& tuple,
                           std::size_t num_decisions) noexcept {
    if (!std::isfinite(tuple.reward)) return TupleDefect::kNonFiniteReward;
    for (const double x : tuple.context.numeric)
        if (!std::isfinite(x)) return TupleDefect::kNonFiniteContext;
    if (!(tuple.propensity > 0.0) || tuple.propensity > 1.0 ||
        !std::isfinite(tuple.propensity))
        return TupleDefect::kInvalidPropensity;
    if (tuple.decision < 0 ||
        (num_decisions > 0 &&
         static_cast<std::size_t>(tuple.decision) >= num_decisions))
        return TupleDefect::kDecisionOutOfRange;
    return TupleDefect::kNone;
}

void throw_tuple_defect(std::uint64_t index, TupleDefect defect) {
    throw TupleDefectError("trace tuple " + std::to_string(index) + ": " +
                           reason_code(defect));
}

void validate_trace(const Trace& trace) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TupleDefect defect = classify_tuple(trace[i], 0);
        if (defect != TupleDefect::kNone) throw_tuple_defect(i, defect);
    }
}

std::map<std::string, std::uint64_t> count_defects(const Trace& trace,
                                                   std::size_t num_decisions) {
    std::map<std::string, std::uint64_t> counts;
    for (const LoggedTuple& t : trace) {
        const TupleDefect defect = classify_tuple(t, num_decisions);
        if (defect != TupleDefect::kNone) ++counts[reason_code(defect)];
    }
    return counts;
}

std::map<std::string, std::uint64_t> remove_defective_tuples(
    Trace& trace, std::size_t num_decisions) {
    std::map<std::string, std::uint64_t> counts;
    std::vector<LoggedTuple> kept;
    kept.reserve(trace.size());
    for (LoggedTuple& t : trace) {
        const TupleDefect defect = classify_tuple(t, num_decisions);
        if (defect == TupleDefect::kNone)
            kept.push_back(std::move(t));
        else
            ++counts[reason_code(defect)];
    }
    if (!counts.empty()) trace = Trace(std::move(kept));
    return counts;
}

} // namespace dre
