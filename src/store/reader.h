// StoreReader — validating, zero-copy .drt consumer.
//
// Opening a file validates the magic, version, endian check, tail, and the
// checksummed footer index up front; row-group payload CRCs are validated
// lazily on first access (and remembered), so opening a multi-gigabyte
// shard is O(footer) while corruption is still always caught before any
// tuple from the damaged group is surfaced. Every validation failure is a
// descriptive StoreError (a std::runtime_error carrying a
// transient/permanent/corruption classification and the row group) naming
// the file — corrupt input is never undefined behavior.
//
// Two I/O backends sit behind the same interface:
//  * kMmap (default where available): the file is mapped once and row
//    groups are zero-copy spans into the mapping — scans touch the page
//    cache directly and concurrent readers share it.
//  * kPread: positional reads into an LRU cache of `pread_cache_groups`
//    decoded row groups — the portable fallback, and the backend that
//    gives a hard, configurable memory bound for out-of-core runs.
//
// Retry policy: transient failures (EINTR is absorbed inside the syscall
// loop; EAGAIN/EIO-class errnos and injected `store.read`/`store.crc`
// transient faults surface as StoreError kTransient) are retried up to
// `retry.max_attempts` with a *virtual* exponential backoff — the delay is
// computed deterministically and recorded in the
// `store.retry_backoff_ms` histogram, never slept, so hardened runs stay
// bit-reproducible and fast. Permanent and corruption errors are thrown
// immediately.
//
// Fault points (see fault/fault.h): `store.open` keyed by
// `fault_shard_index`, `store.read` and `store.crc` keyed by
// `fault_group_offset + local group id` — ShardedStore fills both so the
// logical index is global across a shard set and the schedule is identical
// for every DRE_THREADS.
#ifndef DRE_STORE_READER_H
#define DRE_STORE_READER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tuple_source.h"
#include "store/error.h"
#include "store/format.h"
#include "store/group_cache.h"
#include "trace/trace.h"

namespace dre::store {

enum class IoMode {
    kAuto,  // mmap where the platform supports it, else pread
    kMmap,
    kPread,
};

// Bounded-attempt retry with deterministic virtual backoff for transient
// row-group failures. backoff(attempt) = base * multiplier^attempt, in
// virtual milliseconds (recorded, not slept).
struct StoreRetryPolicy {
    int max_attempts = 3; // total tries per row-group fetch (>= 1)
    double backoff_base_ms = 1.0;
    double backoff_multiplier = 2.0;
};

// Namespace-scope (not nested) so it is complete where constructor default
// arguments need it; spelled StoreReader::Options at call sites.
struct StoreReaderOptions {
    IoMode io_mode = IoMode::kAuto;
    // LRU capacity (in decoded row groups) for the pread backend; ignored
    // by mmap. Small by design: this is the out-of-core memory bound. The
    // pread backend's peak memory is
    //   (pread_cache_groups + live RowGroup handles) x row-group bytes
    // — a handle pins its group's buffer via shared_ptr, so eviction while
    // a handle is alive never invalidates it; the buffer is freed when the
    // last handle drops. `pread_cache_groups = 0` is valid and caches
    // nothing: every fetch decodes afresh and only handle-pinned buffers
    // stay resident.
    std::size_t pread_cache_groups = 4;
    // When set, the pread backend serves row groups from this cache instead
    // of a private one, so its memory bound is shared by every reader using
    // it (ShardedStore installs one per shard set; dre::serve shares that
    // across sessions). When null, the reader creates a private GroupCache
    // of `pread_cache_groups` capacity — the historical behavior.
    std::shared_ptr<GroupCache> shared_group_cache;
    StoreRetryPolicy retry;
    // Logical fault-point indices (see the header comment). Defaults suit
    // a standalone single file; ShardedStore overrides per shard.
    std::uint64_t fault_shard_index = 0;
    std::uint64_t fault_group_offset = 0;
};

class StoreReader {
public:
    using IoMode = store::IoMode;
    using Options = StoreReaderOptions;

    explicit StoreReader(const std::string& path, Options options = {});
    ~StoreReader();
    StoreReader(const StoreReader&) = delete;
    StoreReader& operator=(const StoreReader&) = delete;

    const std::string& path() const noexcept;
    IoMode io_mode() const noexcept; // resolved backend (never kAuto)
    StoreSchema schema() const noexcept;
    std::uint32_t row_group_rows() const noexcept;
    std::size_t num_decisions() const noexcept;
    std::uint64_t num_tuples() const noexcept;
    std::size_t num_row_groups() const noexcept;
    RowGroupInfo row_group_info(std::size_t group) const;
    // Global row of the first tuple in `group` (prefix sums).
    std::uint64_t row_group_offset(std::size_t group) const;

    // Pinned, CRC-validated access to one row group. The handle keeps the
    // underlying bytes alive (mapping or cache buffer) for its lifetime —
    // including across LRU eviction of the group it refers to.
    class RowGroup {
    public:
        const RowGroupView& view() const noexcept { return view_; }

    private:
        friend class StoreReader;
        std::shared_ptr<const std::vector<unsigned char>> pinned_; // pread
        RowGroupView view_;
    };

    // Thread-safe; throws StoreError naming the group on checksum mismatch
    // (kCorruption), a short read (kPermanent), or a transient failure that
    // survived the retry policy (kTransient).
    RowGroup row_group(std::size_t group) const;

    // Appends `count` tuples starting at global row `begin` to `out`
    // (cleared first). Thread-safe. With no `failures` sink, the first
    // StoreError propagates. With one, the walk continues past each damaged
    // row group — the retry policy still runs first — and records the
    // group's intersection with the range in `failures` (appended, in row
    // order, shard -1). Range errors throw either way (caller bug).
    void read_rows(std::uint64_t begin, std::uint64_t count,
                   std::vector<LoggedTuple>& out,
                   std::vector<core::TupleReadFailure>* failures =
                       nullptr) const;

    Trace read_all() const;

private:
    struct Impl;
    void append_rows(const RowGroupView& view, std::size_t lo, std::size_t hi,
                     std::vector<LoggedTuple>& out) const;
    std::unique_ptr<Impl> impl_;
};

} // namespace dre::store

#endif // DRE_STORE_READER_H
