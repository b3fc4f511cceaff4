#include "core/checkpoint.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

namespace dre::core {

namespace {

constexpr std::size_t kMagicBytes = 8;

} // namespace

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t hash) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

void CheckpointFormat::fail(const std::string& what) const {
    throw std::runtime_error(std::string(name) + ": " + what);
}

void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t CheckpointReader::u64() {
    if (pos_ + 8 > buf_.size()) fail("truncated file");
    std::uint64_t v;
    std::memcpy(&v, buf_.data() + pos_, 8);
    pos_ += 8;
    return v;
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

std::string CheckpointReader::str() {
    const std::uint64_t len = u64();
    if (len > buf_.size() - pos_) fail("truncated string");
    std::string s(buf_.data() + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
}

CheckpointWriter begin_checkpoint(const CheckpointFormat& format,
                                  std::uint64_t config_hash) {
    CheckpointWriter w;
    w.buf.append(format.magic, kMagicBytes);
    w.u64(config_hash);
    return w;
}

void commit_checkpoint(const CheckpointFormat& format, CheckpointWriter& image,
                       const std::string& path) {
    image.u64(image.digest());
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr)
        format.fail("cannot create " + tmp + ": " + std::strerror(errno));
    const std::string& buf = image.buf;
    const bool written =
        std::fwrite(buf.data(), 1, buf.size(), file) == buf.size() &&
        std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    if (std::fclose(file) != 0 || !written) {
        std::remove(tmp.c_str());
        format.fail("write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        format.fail("rename failed for " + path + ": " + std::strerror(errno));
}

std::optional<CheckpointReader> load_checkpoint_file(
    const CheckpointFormat& format, const std::string& path,
    std::uint64_t config_hash) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return std::nullopt;
    std::string buf;
    char block[1 << 16];
    std::size_t got;
    while ((got = std::fread(block, 1, sizeof block, file)) > 0)
        buf.append(block, got);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error) format.fail("read failed for " + path);

    if (buf.size() < kMagicBytes + 16) format.fail("truncated file");
    if (std::memcmp(buf.data(), format.magic, kMagicBytes) != 0)
        format.fail(path + " is not a " + format.name + " file");
    std::uint64_t stored_sum;
    std::memcpy(&stored_sum, buf.data() + buf.size() - 8, 8);
    if (fnv1a(buf.data(), buf.size() - 8) != stored_sum)
        format.fail(path + " is corrupt (checksum mismatch)");

    CheckpointReader reader(format, std::move(buf), kMagicBytes);
    if (reader.u64() != config_hash)
        format.fail(path + " was written by a run with different " +
                    format.config + " — refusing to resume");
    return reader;
}

} // namespace dre::core
