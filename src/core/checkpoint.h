// Checkpoint framing shared by streaming evaluation (core/streaming.cpp,
// magic "DRECKPT1") and the policy tuner (tune/tuner.cpp, "DRETUNE1").
//
// File layout (host byte order; same-machine resume):
//   magic (8 bytes) | u64 config_hash | payload | u64 fnv1a(all preceding)
// Doubles are stored as bit patterns, so a resumed run restarts from
// *exactly* the interrupted run's floating-point state. A commit is atomic
// (tmp + fwrite + fflush + fsync + rename); a load verifies magic, length,
// checksum and config hash, and throws on any mismatch — a damaged
// checkpoint must never silently fall back to a fresh run.
#ifndef DRE_CORE_CHECKPOINT_H
#define DRE_CORE_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace dre::core {

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t hash = 1469598103934665603ull);

// One checkpoint kind. Errors read "<name>: <what>", a foreign file
// "<path> is not a <name> file", and a config-hash mismatch "<path> was
// written by a run with different <config> — refusing to resume".
struct CheckpointFormat {
    const char* magic; // exactly 8 bytes, no terminator
    const char* name;
    const char* config;

    [[noreturn]] void fail(const std::string& what) const;
};

// Host-order encoder: a checkpoint image, or (from a default-constructed
// writer) the bytes a run's config hash is taken over.
struct CheckpointWriter {
    std::string buf;

    void u64(std::uint64_t v) { buf.append(reinterpret_cast<const char*>(&v), 8); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void str(const std::string& s) {
        u64(s.size());
        buf.append(s);
    }
    std::uint64_t digest() const { return fnv1a(buf.data(), buf.size()); }
};

// Decoder over a verified image; reads past its end fail as truncation.
class CheckpointReader {
public:
    CheckpointReader(const CheckpointFormat& format, std::string buf,
                     std::size_t pos)
        : format_(&format), buf_(std::move(buf)), pos_(pos) {}

    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();
    [[noreturn]] void fail(const std::string& what) const {
        format_->fail(what);
    }

private:
    const CheckpointFormat* format_;
    std::string buf_;
    std::size_t pos_;
};

// Starts an image: magic | config_hash. Append the payload, then commit.
CheckpointWriter begin_checkpoint(const CheckpointFormat& format,
                                  std::uint64_t config_hash);
// Appends the checksum and atomically replaces `path` with the image.
void commit_checkpoint(const CheckpointFormat& format, CheckpointWriter& image,
                       const std::string& path);
// Reads and verifies `path`, positioned at the payload. Returns nullopt
// when the file does not exist; throws (std::runtime_error) when it is
// unreadable, truncated, of another format, corrupt, or was written under
// a different config hash.
std::optional<CheckpointReader> load_checkpoint_file(
    const CheckpointFormat& format, const std::string& path,
    std::uint64_t config_hash);

} // namespace dre::core

#endif // DRE_CORE_CHECKPOINT_H
