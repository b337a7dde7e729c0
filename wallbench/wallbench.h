// Wall-clock benchmark of the KFlex stack (see NOTES.md).
//
// Every number this benchmark reports is timed with std::chrono::steady_clock
// on the host it runs on; nothing is priced with the src/sim CostModel. Each
// layer is driven from outside through its public functions, and the spans
// of the traced run are recorded here, around those calls.
#ifndef WALLBENCH_WALLBENCH_H_
#define WALLBENCH_WALLBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/jit/codegen.h"
#include "src/runtime/runtime.h"

namespace wallbench {

// The one place the execution engine is chosen: every workload and every
// ledger cell runs the optimizing JIT with the bytecode optimizer on.
inline constexpr kflex::ExecEngine kEngine = kflex::ExecEngine::kJit2;

inline kflex::EngineChoice BenchEngine() {
  kflex::EngineChoice e;
  e.optimize = true;
  e.engine = kEngine;
  return e;
}

inline kflex::LoadOptions BenchLoadOptions(uint64_t static_bytes = 0) {
  kflex::LoadOptions lo;
  lo.heap_static_bytes = static_bytes;
  lo.optimize = true;
  lo.engine = kEngine;
  return lo;
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ---- statistics -------------------------------------------------------------

// Median of `v` (average of the two middle values for an even count).
double Median(std::vector<double> v);
// Nearest-rank quantile q in [0, 1] of integer samples; reorders `v`.
double Quantile(std::vector<uint32_t>& v, double q);

// ---- spans --------------------------------------------------------------------

// One timed interval around a call into a layer. Spans of one request share
// `req`; `parent` indexes the causing span (-1 for a request's root).
struct Span {
  uint64_t req = 0;
  int32_t parent = -1;
  uint32_t name = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// In-memory span store, owned by one thread. Spans are kept until the
// workload ends and then written out. Each traced segment first takes a
// quota of the capacity; once it is used up the tracer reports full() and
// the segment stops, leaving room for the cells after it.
class Tracer {
 public:
  explicit Tracer(size_t capacity) : capacity_(capacity), limit_(capacity) {
    spans_.reserve(capacity);
  }

  size_t capacity() const { return capacity_; }
  // Allows `n` more spans from now on (never beyond the capacity).
  void SetQuota(size_t n) { limit_ = std::min(capacity_, spans_.size() + n); }

  uint32_t Intern(const std::string& name);
  // A fresh request id: all spans of one request carry it.
  uint64_t NextReq() { return next_req_++; }
  // Returns the span's index (a parent for later spans), -1 when full.
  int32_t Add(uint32_t name, uint64_t req, int32_t parent, uint64_t start_ns,
              uint64_t end_ns);
  // Closes a span opened with end_ns == start_ns once its children are in.
  void SetEnd(int32_t idx, uint64_t end_ns) {
    if (idx >= 0) {
      spans_[static_cast<size_t>(idx)].end_ns = end_ns;
    }
  }
  bool full() const { return spans_.size() >= limit_; }
  size_t size() const { return spans_.size(); }

  // Durations (ns) of every span with this name.
  std::vector<uint32_t> Durations(const std::string& name) const;
  // Tab-separated: req, index, parent, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path, const std::string& header) const;

 private:
  size_t capacity_;
  size_t limit_;
  uint64_t next_req_ = 1;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

// ---- results ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;

  // Records a failed output check (the run then reports correct=false).
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Sets the metric unless an earlier cell already did.
  void SetIfAbsent(const std::string& name, double value, const std::string& unit) {
    metrics.emplace(name, Metric{value, unit});
  }
};

// Per-run knobs. `smoke` shrinks every input so that a run and its output
// checks finish in about a second.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

// Common end-to-end metrics: latency chunks are medianed across the run.
// Publish fails the run if any of them has no sample.
struct E2e {
  std::vector<double> chunk_ops_per_s;
  std::vector<double> chunk_p50_us;
  std::vector<double> chunk_p99_us;
  std::vector<double> setup_s;
  void Publish(Report& r) const;
};

// Each workload runs either its end-to-end measurement (trace off) or its
// traced cell (trace on), which publishes per-layer metrics; `share` scales
// the traced cell's time when it runs as a ledger cell of another workload.
void RunKvMemcached(const RunConfig& cfg, Report& r, Tracer* tracer, double share);
void RunNetfnSharded(const RunConfig& cfg, Report& r, Tracer* tracer, double share);
void RunLoadCatalog(const RunConfig& cfg, Report& r, Tracer* tracer, double share);

// Ratio of traced to untraced time per operation, from one workload cell.
inline constexpr const char* kTraceRatio = "trace.time_ratio";

}  // namespace wallbench

#endif  // WALLBENCH_WALLBENCH_H_
