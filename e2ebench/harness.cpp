#include "harness.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "cdn/scenario.h"
#include "core/diagnostics.h"
#include "core/environment.h"
#include "core/estimators.h"
#include "stats/bootstrap.h"

namespace e2e {

void Result::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
}

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib(const std::string& pid) {
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

double host_steal_s() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double field = 0, steal = 0;
    stat >> cpu;
    for (int i = 1; i <= 8 && (stat >> field); ++i)
        if (i == 8) steal = field;
    return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool reset_peak_rss(const std::string& pid) {
    if (pid == "self") malloc_trim(0); // only our own allocator is reachable
    std::ofstream clear("/proc/" + pid + "/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double steal_share(const std::vector<UnitTime>& units) {
    double cpu = 0, steal = 0;
    for (const UnitTime& u : units) {
        cpu += u.cpu;
        steal += u.steal;
    }
    return cpu + steal > 0 ? steal / (cpu + steal) : 0.0;
}

std::vector<double> walls(const std::vector<UnitTime>& units) {
    std::vector<double> out;
    for (const UnitTime& u : units) out.push_back(u.wall);
    return out;
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double p) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = p * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::string format_ms(const std::vector<double>& seconds) {
    std::string out;
    char buf[32];
    for (const double s : seconds) {
        std::snprintf(buf, sizeof(buf), "%s%.1f", out.empty() ? "" : ",", 1e3 * s);
        out += buf;
    }
    return out;
}

dre::Trace generate_cdn_trace(std::size_t n, std::uint64_t seed) {
    dre::cdn::VideoQualityEnv env{dre::cdn::CdnWorldConfig{}};
    dre::core::UniformRandomPolicy logging(env.num_decisions());
    dre::stats::Rng rng(seed);
    return dre::core::collect_trace(env, logging, n, rng);
}

std::vector<double> fingerprint(const dre::core::PolicyEvaluation& e) {
    std::vector<double> f = {e.dm.value,
                             e.ips.value,
                             e.snips.value,
                             e.dr.value,
                             e.switch_dr.value,
                             e.overlap.effective_sample_size,
                             e.overlap.effective_sample_fraction,
                             e.overlap.max_weight,
                             e.overlap.mean_weight,
                             e.overlap.weight_cv,
                             e.overlap.zero_weight_fraction,
                             static_cast<double>(e.overlap.n)};
    if (e.dr_ci) {
        f.insert(f.end(), {e.dr_ci->point, e.dr_ci->lower, e.dr_ci->upper,
                           e.dr_ci->level});
    }
    return f;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void PartTimes::add(const PartTimes& o) {
    dm += o.dm;
    ips += o.ips;
    snips += o.snips;
    dr += o.dr;
    switch_dr += o.switch_dr;
    overlap += o.overlap;
    bootstrap += o.bootstrap;
}

double PartTimes::total() const {
    return dm + ips + snips + dr + switch_dr + overlap + bootstrap;
}

dre::core::PolicyEvaluation evaluate_parts(
    const dre::Trace& trace, const dre::core::Policy& policy,
    const dre::core::PredictionMatrix& qhat,
    const dre::core::EstimatorOptions& options, dre::stats::Rng rng,
    int ci_replicates, PartTimes* times) {
    namespace core = dre::core;
    PartTimes local;
    double t = now_s();
    const auto lap = [&t](double& slot) {
        const double now = now_s();
        slot = 1e3 * (now - t);
        t = now;
    };
    core::PolicyEvaluation out;
    out.dm = core::direct_method(trace, policy, qhat);
    lap(local.dm);
    out.ips = core::inverse_propensity(trace, policy);
    lap(local.ips);
    out.snips = core::self_normalized_ips(trace, policy);
    lap(local.snips);
    out.dr = core::doubly_robust(trace, policy, qhat);
    lap(local.dr);
    out.switch_dr = core::switch_doubly_robust(trace, policy, qhat, options);
    lap(local.switch_dr);
    out.overlap = core::overlap_diagnostics(trace, policy);
    lap(local.overlap);
    if (ci_replicates > 0) {
        out.dr_ci = dre::stats::chunked_bootstrap_mean_ci(
            out.dr.per_tuple, out.dr.value, rng, ci_replicates, 0.95);
        lap(local.bootstrap);
    }
    if (times != nullptr) *times = local;
    return out;
}

} // namespace e2e
