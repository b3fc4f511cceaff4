// Tuple intake interface shared by the store (dre::store) and streaming
// evaluation (core/streaming.h): a random-access TupleSource and the one
// record a tolerant read appends for each range it could not produce.
#ifndef DRE_CORE_TUPLE_SOURCE_H
#define DRE_CORE_TUPLE_SOURCE_H

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace dre::core {

// One contiguous run of tuples a tolerant read could not produce.
// `reason` is a stable reason-code literal (store::StoreError::reason_code
// or trace/validate.h reason_code); `shard` is -1 when unattributable.
struct TupleReadFailure {
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
    const char* reason = "unknown";
    std::int64_t shard = -1;
};

// Random-access tuple supplier. Implementations must be safe for
// concurrent read() calls from pool threads (the store-backed source and
// the in-memory adapter below both are).
class TupleSource {
public:
    virtual ~TupleSource() = default;
    virtual std::uint64_t num_tuples() const = 0;
    virtual std::size_t num_decisions() const = 0;
    // Append tuples [begin, begin + count) to `out` (cleared first).
    virtual void read(std::uint64_t begin, std::uint64_t count,
                      std::vector<LoggedTuple>& out) const = 0;
    // Fault-tolerant read: append the tuples that could be produced (in
    // global order) and record the ranges that could not in `failures`
    // (appended). The default is all-or-nothing — it delegates to read()
    // and lets exceptions propagate; sources with sub-range recovery
    // (StoreTupleSource) override it.
    virtual void read_tolerant(std::uint64_t begin, std::uint64_t count,
                               std::vector<LoggedTuple>& out,
                               std::vector<TupleReadFailure>& failures) const {
        (void)failures;
        read(begin, count, out);
    }
};

// Adapter over an in-memory Trace (reference semantics — the trace must
// outlive the source). Copies each tuple it reads; Evaluator reads its
// resident trace directly instead.
class TraceTupleSource final : public TupleSource {
public:
    explicit TraceTupleSource(const Trace& trace) : trace_(&trace) {}
    std::uint64_t num_tuples() const override { return trace_->size(); }
    std::size_t num_decisions() const override {
        return trace_->num_decisions();
    }
    void read(std::uint64_t begin, std::uint64_t count,
              std::vector<LoggedTuple>& out) const override;

private:
    const Trace* trace_;
};

} // namespace dre::core

#endif // DRE_CORE_TUPLE_SOURCE_H
