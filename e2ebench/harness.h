// Shared pieces of the dre_e2e benchmark harness: run options, the result
// record every workload fills, clocks, order statistics, input generation
// and the correctness helpers. See README.md for the workload definitions.
#ifndef DRE_E2EBENCH_HARNESS_H
#define DRE_E2EBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/policy.h"
#include "core/qhat.h"
#include "stats/rng.h"
#include "trace/trace.h"

namespace e2e {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;      // self-test scale: same code paths, small inputs
    std::string workdir;    // generated inputs and scratch files
    std::string bindir;     // where dre_serve lives
};

// Everything one run reports. `metrics` is what the final JSON line
// carries (end-to-end metrics untraced, per-layer metrics traced);
// `context` is recorded next to it and never compared.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> context;
    std::vector<std::string> errors;

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    // One correctness gate evaluation: counts an attempted operation, and
    // a failed one (with its reason) when `ok` is false.
    void check(bool ok, const std::string& what);
};

// --- clocks ----------------------------------------------------------------
double now_s();          // steady clock, seconds
double process_cpu_s();  // CPU time of this process, all threads
// VmHWM of a process ("self" or a pid), in MiB.
double peak_rss_mib(const std::string& pid = "self");
// CPU time the hypervisor gave other guests while this one's vCPUs wanted
// to run (/proc/stat steal, summed over CPUs), in seconds.
double host_steal_s();
// Resets a process's RSS high-water mark (this process's after trimming
// its allocator), so a later peak_rss_mib() covers only what follows. False
// if the kernel refuses (the peak then includes set-up; the context says so).
bool reset_peak_rss(const std::string& pid = "self");

// Wall, CPU and host-steal time of one unit of work. The host is a VM
// whose neighbours take vCPU time in bursts ("steal"); a unit that ran
// during one is stretched by time the program never had. net() estimates
// the unit's wall time without it: of the vCPU time the unit was runnable
// (its CPU time plus the steal), the stolen share f = steal / (cpu +
// steal) is taken off the wall time. Steal is read system-wide, which is
// this process's own while the benchmark is the only thing running.
// serve_warm times its 1 s windows this way (several hundred 10 ms ticks
// of CPU time each); every other time is plain wall time.
struct UnitTime {
    double wall = 0, cpu = 0, steal = 0;
    double net() const { return cpu + steal > 0 ? wall * cpu / (cpu + steal) : wall; }
};

class UnitTimer {
public:
    UnitTimer() : wall0_(now_s()), cpu0_(process_cpu_s()), steal0_(host_steal_s()) {}
    // `other_cpu`: CPU time other processes spent on this unit (a server).
    UnitTime stop(double other_cpu = 0) const {
        return {now_s() - wall0_, process_cpu_s() - cpu0_ + other_cpu,
                host_steal_s() - steal0_};
    }

private:
    double wall0_, cpu0_, steal0_;
};

// Steal as a share of runnable vCPU time over a set of units: recorded as
// context next to every run.
double steal_share(const std::vector<UnitTime>& units);
std::vector<double> walls(const std::vector<UnitTime>& units);

// --- order statistics ------------------------------------------------------
double median(std::vector<double> xs);
// Linear-interpolation quantile (numpy's default), p in [0, 1].
double quantile(std::vector<double> xs, double p);

// "12.3,45.6,...": unit wall times (seconds in) as context.
std::string format_ms(const std::vector<double>& seconds);

// --- inputs ----------------------------------------------------------------
// The CDN scenario logged by a uniform-random policy: the input every
// workload evaluates. Same (n, seed) → same trace.
dre::Trace generate_cdn_trace(std::size_t n, std::uint64_t seed);

// --- correctness -----------------------------------------------------------
// Every number a PolicyEvaluation reports, for bitwise comparison.
std::vector<double> fingerprint(const dre::core::PolicyEvaluation& e);
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

// Per-part wall times of one evaluate_parts call, in ms.
struct PartTimes {
    double dm = 0, ips = 0, snips = 0, dr = 0, switch_dr = 0, overlap = 0,
           bootstrap = 0;
    void add(const PartTimes& o);
    double total() const;
};

// Evaluator::evaluate's estimator sequence, called piece by piece through
// the public estimator API on a caller-supplied q̂ matrix: the reference
// the correctness gates compare against, and the split the traced runs
// time. `times` (optional) receives each part's wall time.
dre::core::PolicyEvaluation evaluate_parts(
    const dre::Trace& trace, const dre::core::Policy& policy,
    const dre::core::PredictionMatrix& qhat,
    const dre::core::EstimatorOptions& options, dre::stats::Rng rng,
    int ci_replicates, PartTimes* times);

// --- workloads -------------------------------------------------------------
// setup_s is the median of several complete set-ups in one run: a single
// sub-second set-up varies by ±25% on its own.
// gen_*: write the workload's inputs for opt.seed into opt.workdir.
// run_*: set up, measure for opt.seconds, check, and fill `out`.
void gen_stream_store(const Options& opt);
void run_stream_store(const Options& opt, Result& out);
void gen_eval_memory(const Options& opt);
void run_eval_memory(const Options& opt, Result& out);
void gen_serve_warm(const Options& opt);
void run_serve_warm(const Options& opt, Result& out);

// Host probes recorded as context: STREAM triad bandwidth, CRC-32C rate,
// SIMD level, thread counts.
void record_probes(Result& out);

} // namespace e2e

#endif // DRE_E2EBENCH_HARNESS_H
