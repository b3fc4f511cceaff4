// serve_warm: the service front end (`dre_serve`), over loopback.
//
// Input: a CDN trace as CSV. The run is a series of segments, each on a
// server set up from scratch: spawn dre_serve and send the first, cold
// request (it loads the trace and fits the evaluator); setup_s is the
// median of spawn → cold reply. Load: a closed loop of client connections
// sending uniform/tabular/ci 0 requests with distinct seeds, so nothing
// coalesces and every request computes on a warm cache.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel.h"
#include "core/policy_learning.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "trace/csv.h"

extern char** environ;

namespace e2e {

namespace serve = dre::serve;

namespace {

// How long a SIGTERM'd server gets to drain and exit before it is killed
// and counted as serve.shutdown_missed (context and traced run).
constexpr double kShutdownDeadlineS = 10.0;
// Segments per run, and set-ups at the start of each. One set-up lasts
// about 50 ms, and on a shared host the speed of its CSV parse flips
// between two levels 1.6x apart every few hundred ms. The median of single
// set-ups then lands in either level, so a segment's set-up time is the
// mean of a batch that spans several flips, and setup_s the median over
// the segments, which are spread over the run.
constexpr std::size_t kSegments = 10;
constexpr std::size_t kSetupsPerSegment = 8;

std::size_t trace_size(const Options& opt) { return opt.tiny ? 2000 : 20000; }
std::string csv_path(const Options& opt) { return opt.workdir + "/serve.csv"; }

// Half the CPUs for the server's pool, half for client connections, so
// threads plus connections never exceed nproc.
std::size_t half_cpus() {
    return std::max<std::size_t>(1, std::min<std::size_t>(2, dre::par::available_cpus() / 2));
}

serve::EvaluateMsg request(const Options& opt, std::uint64_t seed) {
    serve::EvaluateMsg m;
    m.trace = csv_path(opt);
    m.policy = "uniform";
    m.model = "tabular";
    m.ci_replicates = 0;
    m.seed = seed;
    return m;
}

// One dre_serve child process. The destructor kills and reaps a server
// that is still running, so no path leaves one behind.
class ServerProcess {
public:
    ServerProcess(const Options& opt, std::size_t index) {
        port_file_ = opt.workdir + "/port-" + std::to_string(index) + ".txt";
        const std::string log = opt.workdir + "/serve-" + std::to_string(index) + ".log";
        const std::string bin = opt.bindir + "/dre_serve";
        std::vector<std::string> args = {bin, "--port-file", port_file_};
        std::vector<std::string> env;
        for (char** e = environ; *e != nullptr; ++e)
            if (std::strncmp(*e, "DRE_THREADS=", 12) != 0) env.emplace_back(*e);
        env.push_back("DRE_THREADS=" + std::to_string(half_cpus()));
        std::remove(port_file_.c_str()); // never read a stale port
        std::vector<char*> argv, envp;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        for (std::string& e : env) envp.push_back(e.data());
        envp.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                                   argv.data(), envp.data());
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) throw std::runtime_error("cannot spawn " + bin);
    }
    ~ServerProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    // The port, once the server has written its port file.
    std::uint16_t wait_port() const {
        const double deadline = now_s() + 60.0;
        while (now_s() < deadline) {
            std::ifstream in(port_file_);
            unsigned port = 0;
            if (in >> port && port != 0) return static_cast<std::uint16_t>(port);
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_)
                throw std::runtime_error("dre_serve exited during start-up");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        throw std::runtime_error("dre_serve did not report its port");
    }

    // SIGTERM, then wait for a graceful exit. False if the deadline passed
    // (the server is then killed).
    bool stop() {
        ::kill(pid_, SIGTERM);
        const double deadline = now_s() + kShutdownDeadlineS;
        bool graceful = false;
        for (;;) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                graceful = WIFEXITED(status) && WEXITSTATUS(status) == 0;
                pid_ = -1;
                return graceful;
            }
            if (now_s() > deadline) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
    }

    // utime + stime of every thread, in seconds.
    double cpu_s() const {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string all((std::istreambuf_iterator<char>(in)), {});
        const std::size_t close = all.rfind(')');
        if (close == std::string::npos) throw std::runtime_error("dre_serve is gone");
        std::istringstream fields(all.substr(close + 2));
        std::string f;
        double ticks = 0;
        for (int i = 3; fields >> f && i <= 15; ++i)
            if (i == 14 || i == 15) ticks += std::stod(f);
        return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    std::string pid() const { return std::to_string(pid_); }

private:
    std::string port_file_;
    pid_t pid_ = -1;
};

// One completed request, as the client saw it.
struct Sample {
    double done_s = 0;   // completion time, from the start of its segment's windows
    double latency_ms = 0;
    double queue_ms = 0, cache_ms = 0, compute_ms = 0, serialize_ms = 0;
    std::uint64_t seed = 0;
    std::string text;    // kept for the sampled correctness check only
};

// One segment's load phase on a warm server: every completed request and,
// per fixed window, its wall/CPU/steal time and the server's CPU time.
struct Segment {
    std::vector<Sample> samples;
    std::vector<UnitTime> windows;
    std::vector<double> server_cpu;
    double peak_rss_mib = 0;     // dre_serve's, from after the warm-up
    bool peak_rss_reset = false;
};

double window_seconds(const Options& opt) { return opt.tiny ? 0.25 : 1.0; }

// Closed loop: each connection sends its next request when the last one
// completes. Seeds are distinct across connections, requests and segments.
Segment run_load(const Options& opt, ServerProcess& server, std::uint16_t port,
                 std::size_t segment, std::size_t windows) {
    const std::size_t connections = half_cpus();
    const double warmup_s = opt.tiny ? 0.05 : 0.25;
    const double window_s = window_seconds(opt);
    std::vector<std::vector<Sample>> samples(connections);
    std::atomic<bool> stop{false};
    std::atomic<int> ready{0};
    std::atomic<double> phase_start{0.0};
    std::vector<std::exception_ptr> errors(connections);
    std::vector<std::thread> clients;
    // Stops and joins the clients on every path out of this function.
    struct JoinClients {
        std::vector<std::thread>& threads;
        std::atomic<bool>& stop;
        std::atomic<double>& phase_start;
        ~JoinClients() {
            stop.store(true);
            phase_start.store(-1.0); // releases clients still waiting to start
            for (std::thread& t : threads)
                if (t.joinable()) t.join();
        }
    } join_clients{clients, stop, phase_start};
    for (std::size_t c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            try {
                serve::Client client(port);
                std::uint64_t seed = 1000000 * (segment * connections + c + 1);
                const double warm_end = now_s() + warmup_s;
                while (now_s() < warm_end) client.evaluate(request(opt, ++seed));
                ++ready;
                while (phase_start.load() == 0.0) std::this_thread::yield();
                while (!stop.load()) {
                    const double t0 = now_s();
                    serve::ResultMsg r = client.evaluate(request(opt, ++seed));
                    const double t1 = now_s();
                    Sample s{t1 - phase_start.load(), 1e3 * (t1 - t0), r.queue_ms,
                             r.cache_ms, r.compute_ms, r.serialize_ms, seed, {}};
                    if (samples[c].size() % 16 == 0 || r.degraded) s.text = std::move(r.text);
                    samples[c].push_back(std::move(s));
                }
            } catch (...) {
                errors[c] = std::current_exception();
                ++ready;
            }
        });
    }
    while (ready.load() < static_cast<int>(connections))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The main thread closes a window at each boundary: its wall time, the
    // server's and the clients' CPU time, and the host's steal.
    Segment seg;
    seg.peak_rss_reset = reset_peak_rss(server.pid());
    double server_cpu0 = server.cpu_s();
    const double start = now_s();
    phase_start.store(start);
    for (std::size_t w = 1; w <= windows; ++w) {
        const UnitTimer timer;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(start + w * window_s))));
        const double cpu = server.cpu_s();
        seg.server_cpu.push_back(cpu - server_cpu0);
        seg.windows.push_back(timer.stop(cpu - server_cpu0));
        server_cpu0 = cpu;
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
    seg.peak_rss_mib = peak_rss_mib(server.pid());
    for (std::vector<Sample>& per : samples)
        for (Sample& s : per) seg.samples.push_back(std::move(s));
    return seg;
}

// The local render a Result text must equal: the same header line and
// make_policy_report, on an Evaluator built the way the service builds it.
class LocalReference {
public:
    explicit LocalReference(const Options& opt)
        : trace_(dre::read_csv_file(csv_path(opt))),
          evaluator_(trace_, config(), dre::stats::Rng(1)),
          policy_(dre::core::parse_policy_spec("uniform", trace_, trace_.num_decisions())) {}

    std::string render(std::uint64_t seed) const {
        const dre::core::PolicyEvaluation e =
            evaluator_.evaluate_seeded(*policy_, dre::stats::Rng(seed), 0, 0.95);
        char header[96];
        std::snprintf(header, sizeof(header), "trace: %zu tuples, %zu decisions\n",
                      trace_.size(), trace_.num_decisions());
        return header + dre::core::make_policy_report("uniform", e).to_text();
    }

private:
    static dre::core::EvaluationConfig config() {
        dre::core::EvaluationConfig c;
        c.reward_model = dre::core::RewardModelKind::kTabular;
        return c;
    }
    dre::Trace trace_;
    dre::core::Evaluator evaluator_;
    std::shared_ptr<dre::core::Policy> policy_;
};

} // namespace

void gen_serve_warm(const Options& opt) {
    dre::write_csv_file(generate_cdn_trace(trace_size(opt), opt.seed), csv_path(opt));
}

void run_serve_warm(const Options& opt, Result& out) {
    const LocalReference reference(opt);
    const double tuples = static_cast<double>(trace_size(opt));
    const std::size_t segments = opt.tiny ? 3 : kSegments;
    const std::size_t setups_per_segment = opt.tiny ? 2 : kSetupsPerSegment;
    const double window_s = window_seconds(opt);
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(opt.seconds / static_cast<double>(segments) / window_s));
    std::uint64_t shutdown_missed = 0;

    // Each segment: set a server up from scratch (spawn → cold first
    // reply) kSetupsPerSegment times, killing all but the last at once; put
    // the last under load, read its Stats, and stop it gracefully. Only
    // these stops test the server's shutdown, as one per segment. A stop
    // is not an operation of the workload: `EvalServer::stop_and_join` can
    // lose a wakeup (about 1 stop in 100 hangs), so counting misses as
    // failed operations would make the failure count a coin toss from run
    // to run. Misses are reported as shutdown_missed instead.
    std::vector<Segment> segs;
    std::vector<double> setups, cold_ms, cold_cache_ms;
    std::uint64_t hits = 0, misses = 0, coalesced = 0, rejected = 0;
    for (std::size_t k = 0; k < segments; ++k) {
        std::unique_ptr<ServerProcess> server;
        std::uint16_t port = 0;
        double setup_s = 0;
        for (std::size_t b = 0; b < setups_per_segment; ++b) {
            server.reset(); // kills a set-up-only server before the next spawn
            const double t0 = now_s();
            server = std::make_unique<ServerProcess>(opt, k * setups_per_segment + b);
            port = server->wait_port();
            serve::Client client(port);
            const double t1 = now_s();
            const serve::ResultMsg cold = client.evaluate(request(opt, 1));
            const double t2 = now_s();
            setup_s += t2 - t0;
            out.check(cold.text == reference.render(1), "serve_warm: cold reply differs");
            cold_ms.push_back(1e3 * (t2 - t1));
            cold_cache_ms.push_back(cold.cache_ms);
        }
        setups.push_back(setup_s / static_cast<double>(setups_per_segment));
        segs.push_back(run_load(opt, *server, port, k, windows));
        {
            serve::Client client(port);
            const serve::StatsReplyMsg stats = client.stats();
            hits += stats.evaluator_hits;
            misses += stats.evaluator_misses;
            coalesced += stats.coalesced;
            rejected += stats.rejected;
        }
        if (!server->stop()) ++shutdown_missed;
    }

    // Fold each segment's samples into its windows; requests completing
    // after a segment's last full window are kept for latency but not for
    // rates. A request's latency net of steal takes its window's net/wall
    // ratio. The p99 is the median over segments of each segment's
    // client-observed p99: a segment holds over 1,000 requests (ten or more
    // beyond its p99), and one neighbour's burst moves one segment, not the
    // run.
    std::vector<UnitTime> all_windows;
    std::vector<double> rps, raw_rps, tpc, util, latency, raw_latency, segment_p99,
        queue, cache, compute, serialize, wire;
    std::vector<const Sample*> checked;
    std::size_t fewest = SIZE_MAX;
    double peak = 0;
    bool peak_reset = true;
    for (const Segment& seg : segs) {
        std::vector<double> completions(windows, 0.0), seg_latency;
        for (const Sample& s : seg.samples) {
            const std::size_t w = static_cast<std::size_t>(s.done_s / window_s);
            if (w < windows) completions[w] += 1.0;
            const UnitTime& wt = seg.windows[std::min(w, windows - 1)];
            latency.push_back(s.latency_ms * wt.net() / wt.wall);
            seg_latency.push_back(latency.back());
            raw_latency.push_back(s.latency_ms);
            queue.push_back(s.queue_ms);
            cache.push_back(s.cache_ms);
            compute.push_back(s.compute_ms);
            serialize.push_back(s.serialize_ms);
            wire.push_back(s.latency_ms - s.queue_ms - s.cache_ms - s.compute_ms -
                           s.serialize_ms);
            if (!s.text.empty()) checked.push_back(&s);
        }
        segment_p99.push_back(quantile(seg_latency, 0.99));
        fewest = std::min(fewest, seg_latency.size());
        for (std::size_t w = 0; w < windows; ++w) {
            const UnitTime& wt = seg.windows[w];
            rps.push_back(completions[w] / wt.net());
            raw_rps.push_back(completions[w] / wt.wall);
            if (seg.server_cpu[w] > 0) tpc.push_back(completions[w] * tuples / seg.server_cpu[w]);
            util.push_back(seg.server_cpu[w] / (wt.wall * static_cast<double>(half_cpus())));
        }
        all_windows.insert(all_windows.end(), seg.windows.begin(), seg.windows.end());
        peak = std::max(peak, seg.peak_rss_mib);
        peak_reset = peak_reset && seg.peak_rss_reset;
    }
    out.attempted += latency.size() - checked.size();
    for (const Sample* s : checked)
        out.check(s->text == reference.render(s->seed),
                  "serve_warm: Result for seed " + std::to_string(s->seed) +
                      " differs from the local render");
    out.context["units"] = std::to_string(latency.size()) + " requests in " +
                           std::to_string(segments) + " segments of " +
                           std::to_string(windows) + " windows";
    out.context["connections"] = std::to_string(half_cpus());
    out.context["peak_rss_reset"] = peak_reset ? "yes" : "no";
    out.context["p99_samples_beyond"] =
        std::to_string(static_cast<std::size_t>(0.01 * static_cast<double>(fewest))) +
        " per segment";
    out.context["pooled_p99_ms"] = std::to_string(quantile(latency, 0.99));
    out.context["steal_pct"] = std::to_string(100.0 * steal_share(all_windows));
    out.context["shutdown_missed"] = std::to_string(shutdown_missed);
    out.context["setup_ms"] = format_ms(setups);
    out.context["raw_p50_ms"] = std::to_string(median(raw_latency));
    out.context["raw_req_per_s"] = std::to_string(median(raw_rps));

    if (!opt.trace) {
        out.metric("setup_s", median(setups), "s");
        out.metric("req_per_s", median(rps), "req/s");
        out.metric("tuples_per_s", tuples * median(rps), "tuples/s");
        out.metric("tuples_per_cpu_s", median(tpc), "tuples/cpu-s");
        out.metric("peak_rss_mib", peak, "MiB");
        out.metric("p50_ms", median(latency), "ms");
        out.context["p99_ms"] = std::to_string(median(segment_p99));
        return;
    }

    const serve::EvaluateMsg sample_req = request(opt, 1);
    serve::ResultMsg sample_res;
    sample_res.text = reference.render(1);
    const double bytes =
        static_cast<double>(serve::encode_frame(serve::MsgKind::kEvaluate,
                                                serve::encode_evaluate(sample_req)).size() +
                            serve::encode_frame(serve::MsgKind::kResult,
                                                serve::encode_result(sample_res)).size());
    const double lookups = static_cast<double>(hits + misses);
    out.metric("serve.queue_ms.p50", median(queue), "ms");
    out.metric("serve.queue_ms.p99", quantile(queue, 0.99), "ms");
    out.metric("serve.compute_ms.p50", median(compute), "ms");
    out.metric("serve.compute_ms.p99", quantile(compute, 0.99), "ms");
    out.metric("serve.cache_ms.p50", median(cache), "ms");
    out.metric("serve.serialize_ms.p50", median(serialize), "ms");
    out.metric("serve.wire_ms.p50", median(wire), "ms");
    out.metric("serve.client_ms.p99", median(segment_p99), "ms");
    out.metric("serve.cold_ms", median(cold_ms), "ms");
    out.metric("serve.cold_cache_ms", median(cold_cache_ms), "ms");
    out.metric("serve.cache_hit_ratio",
               lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups, "ratio");
    out.metric("serve.coalesced", static_cast<double>(coalesced), "count");
    out.metric("serve.rejected", static_cast<double>(rejected), "count");
    out.metric("serve.bytes_per_req", bytes, "B");
    out.metric("serve.shutdown_missed", static_cast<double>(shutdown_missed), "count");
    out.metric("par.cpu_util", median(util), "ratio");
    // The traced run's extra work is client-side bookkeeping only; the
    // phase tails ride every Result frame either way.
    out.metric("bench.trace_overhead_pct", 0.0, "%");
}

} // namespace e2e
