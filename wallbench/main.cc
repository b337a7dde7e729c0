// Command line of the wall-clock benchmark:
//
//   wallbench --workload kv_memcached|netfn_sharded|load_catalog --seed N
//             --seconds S --trace 0|1 [--git-rev REV] [--smoke]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: with --trace 0 the run's
// end-to-end measurement, with --trace 1 a separate traced run and its
// per-layer metrics. Which of them BENCHMARK.json lists, and the check that
// each is there, are left to run.py. --smoke shrinks every input so that a
// run and its output checks finish in about a second.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "src/obs/obs.h"
#include "wallbench/wallbench.h"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WALLBENCH_COMPILER
#define WALLBENCH_COMPILER "unknown"
#endif

namespace wallbench {
namespace {

using WorkloadFn = void (*)(const RunConfig&, Report&, Tracer*, double);

struct Workload {
  const char* name;
  WorkloadFn run;
};

const Workload kWorkloads[] = {
    {"kv_memcached", RunKvMemcached},
    {"netfn_sharded", RunNetfnSharded},
    {"load_catalog", RunLoadCatalog},
};

// Span capacity of a traced run: 64 MB of spans, written out at the end.
constexpr size_t kSpanCapacity = 2'000'000;
// Where traced runs write their spans, relative to the repository root.
constexpr const char* kOutDir = ".bench_build";

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintResult(const Report& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void RunOne(const Workload& w, const RunConfig& cfg, const std::string& stamp, Report& r) {
  if (!cfg.trace) {
    w.run(cfg, r, nullptr, 1.0);
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    r.Set("ok_ratio",
          r.attempted == 0 ? 0.0
                           : static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted),
          "ratio");
  } else {
    // Traced run: the workload's own cell first (it owns the tracing-overhead
    // ratio and its layers' numbers), then short cells of the other two
    // workloads for the layers this one does not exercise.
    Tracer tracer(cfg.smoke ? 100'000 : kSpanCapacity);
    w.run(cfg, r, &tracer, 0.7);
    for (const Workload& other : kWorkloads) {
      if (&other != &w) {
        other.run(cfg, r, &tracer, 0.15);
      }
    }
    mkdir(kOutDir, 0755);
    std::string path = std::string(kOutDir) + "/spans-" + w.name + ".tsv";
    r.Check(tracer.WriteTsv(path, stamp), "could not write " + path);
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  }
  // Every workload is built so that no operation fails on a correct program:
  // a dropped, cancelled or detached request or a refused load is a defect.
  r.Check(r.attempted > 0, "no operation was attempted");
  r.Check(r.failed == 0, "operations failed");
}

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--git-rev REV] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload, git_rev = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (val == nullptr) {
      return Usage();
    }
    i++;
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      cfg.trace = std::strcmp(val, "1") == 0;
    } else if (arg == "--git-rev") {
      git_rev = val;
    } else {
      return Usage();
    }
  }

  // Observability stays off in every run, traced ones included: turning it
  // on forces the JIT's inline helper paths into their callouts, so a run
  // with obs on would measure a different program. Likewise no fault point
  // may be armed from the environment.
  unsetenv("KFLEX_FAULT");
  // glibc adapts its mmap threshold to the largest block freed so far, so
  // whether a later large buffer is mapped afresh or reuses freed heap (and
  // so peak RSS and page-fault time) would depend on the run's history,
  // including its earlier set-ups. Pin the threshold at its initial default.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  if (kflex::ObsTraceEnabled() || kflex::ObsMetricsEnabled()) {
    std::fprintf(stderr, "wallbench: obs must be off\n");
    return 1;
  }

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  char stamp[1024];
  std::snprintf(
      stamp, sizeof(stamp),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"engine\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_rev\": \"%s\", \"smoke\": %d}",
      w->name, static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0,
      kflex::ExecEngineName(kEngine), JsonEscape(CpuModel()).c_str(),
      std::thread::hardware_concurrency(), WALLBENCH_BUILD_TYPE, WALLBENCH_COMPILER,
      JsonEscape(git_rev).c_str(), cfg.smoke ? 1 : 0);
  std::printf("stamp: %s\n", stamp);
  Report r;
  RunOne(*w, cfg, stamp, r);
  PrintResult(r);
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
