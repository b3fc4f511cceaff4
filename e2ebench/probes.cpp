// Host probes recorded with every run as context, never compared: they
// put host drift next to every number and give each layer a measured
// ceiling (memory bandwidth for the estimator passes, the CRC-32C rate for
// store reads).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "harness.h"
#include "simd/simd.h"
#include "store/crc32c.h"

namespace e2e {

namespace {

// Results land here so the probe loops cannot be optimised away.
volatile double g_sink = 0.0;

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

// Single-threaded STREAM triad a = b + s*c over arrays well past the last
// level cache; best of several repetitions, in MiB/s (3 arrays moved).
double stream_triad_mib_per_s() {
    constexpr std::size_t kN = std::size_t{1} << 22; // 32 MiB per array
    std::vector<double> a(kN, 0.0), b(kN, 1.0), c(kN, 2.0);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = now_s();
        const double s = 3.0 + rep;
        for (std::size_t i = 0; i < kN; ++i) a[i] = b[i] + s * c[i];
        const double dt = now_s() - t0;
        const double mib = 3.0 * sizeof(double) * kN / (1024.0 * 1024.0);
        if (dt > 0 && mib / dt > best) best = mib / dt;
    }
    g_sink = a[kN / 2];
    return best;
}

// dre::store's dispatched CRC-32C over a cache-resident buffer, MiB/s.
double crc32c_mib_per_s() {
    std::vector<unsigned char> buf(std::size_t{1} << 20);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 131u);
    double best = 0.0;
    std::uint32_t crc = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = now_s();
        for (int k = 0; k < 64; ++k) crc = dre::store::crc32c(buf.data(), buf.size(), crc);
        const double dt = now_s() - t0;
        if (dt > 0 && 64.0 / dt > best) best = 64.0 / dt;
    }
    g_sink = crc;
    return best;
}

} // namespace

void record_probes(Result& out) {
    out.context["stream_triad_mib_per_s"] = fmt(stream_triad_mib_per_s());
    out.context["crc32c_mib_per_s"] = fmt(crc32c_mib_per_s());
    out.context["simd_level"] =
        dre::simd::level_name(dre::simd::active_level());
    const char* env_threads = std::getenv("DRE_THREADS");
    out.context["DRE_THREADS"] = env_threads != nullptr ? env_threads : "";
    out.context["pool_threads"] = std::to_string(dre::par::thread_count());
    out.context["nproc"] = std::to_string(dre::par::available_cpus());
}

} // namespace e2e
