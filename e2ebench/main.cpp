// dre_e2e — the benchmark harness behind run.py.
//
//   dre_e2e gen --workload W --seed N --workdir D [--tiny]
//       writes the workload's generated inputs into D.
//   dre_e2e run --workload W --seed N --seconds S --trace 0|1 --workdir D
//               --bindir B [--tiny]
//       sets the workload up several times from scratch, measures for S seconds,
//       checks the outputs, and prints a `context {...}` line followed by
//       the result line {"correct", "attempted", "failed", "metrics"}.
//
// Workloads: stream_store, eval_memory, serve_warm (README.md).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: dre_e2e gen|run --workload W --seed N --workdir D "
                 "[--seconds S] [--trace 0|1] [--bindir B] [--tiny]\n");
    std::exit(2);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void print_result(const e2e::Result& r) {
    std::string context = "context {";
    bool first = true;
    for (const auto& [k, v] : r.context) {
        context += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
        first = false;
    }
    std::printf("%s}\n", context.c_str());
    for (const std::string& e : r.errors)
        std::fprintf(stderr, "dre_e2e: check failed: %s\n", e.c_str());

    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    first = true;
    for (const auto& [name, vu] : r.metrics) {
        line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
                json_number(vu.first) + ", \"unit\": " + json_string(vu.second) +
                "}";
        first = false;
    }
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string mode = argv[1];
    e2e::Options opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--workload") opt.workload = next();
        else if (arg == "--seed") opt.seed = std::stoull(next());
        else if (arg == "--seconds") opt.seconds = std::stod(next());
        else if (arg == "--trace") opt.trace = next() == "1";
        else if (arg == "--workdir") opt.workdir = next();
        else if (arg == "--bindir") opt.bindir = next();
        else if (arg == "--tiny") opt.tiny = true;
        else usage();
    }
    if (opt.workdir.empty() || opt.seconds <= 0) usage();

    using GenFn = void (*)(const e2e::Options&);
    using RunFn = void (*)(const e2e::Options&, e2e::Result&);
    GenFn gen = nullptr;
    RunFn run = nullptr;
    if (opt.workload == "stream_store") {
        gen = e2e::gen_stream_store;
        run = e2e::run_stream_store;
    } else if (opt.workload == "eval_memory") {
        gen = e2e::gen_eval_memory;
        run = e2e::run_eval_memory;
    } else if (opt.workload == "serve_warm") {
        gen = e2e::gen_serve_warm;
        run = e2e::run_serve_warm;
    } else {
        std::fprintf(stderr, "dre_e2e: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    try {
        if (mode == "gen") {
            gen(opt);
            return 0;
        }
        if (mode != "run") usage();
        e2e::Result result;
        e2e::record_probes(result);
        run(opt, result);
        print_result(result);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dre_e2e: %s\n", e.what());
        return 1;
    }
}
