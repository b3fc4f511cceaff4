// Structural tuple validation with stable reason codes.
//
// The one tuple validator. Every layer that meets raw tuples classifies
// them here: validate_trace (the estimators' and Evaluator's check), the
// audit linter (core/audit), the load paths (CSV and .drt in dre_eval and
// dre_serve), and the streaming evaluator (core/streaming), whose strict
// mode throws what its tolerant modes quarantine under exactly these
// reason-code strings. A tuple that passes is safe for every estimator:
// finite reward and context, propensity in (0, 1], and a decision inside
// [0, num_decisions).
#ifndef DRE_TRACE_VALIDATE_H
#define DRE_TRACE_VALIDATE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "trace/trace.h"
#include "trace/types.h"

namespace dre {

enum class TupleDefect {
    kNone = 0,
    kNonFiniteReward,     // NaN/Inf reward
    kNonFiniteContext,    // NaN/Inf numeric context feature
    kInvalidPropensity,   // propensity outside (0, 1] or non-finite
    kDecisionOutOfRange,  // decision < 0 or >= num_decisions
};

// Stable machine-readable reason code (shared with QuarantineReport and
// the audit findings). kNone maps to "ok".
const char* reason_code(TupleDefect defect) noexcept;

// First defect found, or kNone. `num_decisions` of 0 skips the decision
// range check (callers that don't know the decision space yet still reject
// negative ids).
TupleDefect classify_tuple(const LoggedTuple& tuple,
                           std::size_t num_decisions) noexcept;

// A defective tuple met by strict intake. It is an std::invalid_argument
// (the estimators' precondition), and its own type lets a front end tell
// bad input apart from bad arguments.
class TupleDefectError : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

// Throws TupleDefectError("trace tuple <index>: <reason code>") — the
// strict-intake error of validate_trace and strict streaming, where
// `index` is the tuple's global position.
[[noreturn]] void throw_tuple_defect(std::uint64_t index, TupleDefect defect);

// Per-defect tuple counts over a whole trace (reason code -> count;
// defect-free tuples are not counted). Empty result == clean trace.
std::map<std::string, std::uint64_t> count_defects(const Trace& trace,
                                                   std::size_t num_decisions);

// Drops every defective tuple in place and returns the per-reason counts
// of what was removed. Order of surviving tuples is preserved.
std::map<std::string, std::uint64_t> remove_defective_tuples(
    Trace& trace, std::size_t num_decisions);

} // namespace dre

#endif // DRE_TRACE_VALIDATE_H
