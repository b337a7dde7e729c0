// Observability subsystem: lock-free per-CPU trace rings, a per-extension
// metrics registry, and the stable event catalog every layer of the stack
// emits into (verifier decisions, Kie instrumentation, JIT compiles and
// fallbacks, runtime hot paths, fault injection, sim progress).
//
// Design constraints (docs/observability.md):
//  * Disabled cost on hot paths is a single relaxed atomic load + one
//    predictable branch (KFLEX_TRACE / KFLEX_OBS_COUNT expand to exactly
//    that). BENCH_obs.json proves the JIT/interpreter numbers are unmoved.
//  * Trace events are fixed-size 32-byte binary records written into
//    per-CPU rings with a wrapping atomic head; overflow overwrites the
//    oldest slot and is drop-counted, never blocks a writer.
//  * Event codes are a stable (subsystem, id) catalog, append-only, mirrored
//    by the obs-selfcheck test so drift fails CI (same pattern as the fault
//    point catalog and chaos-selfcheck).
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/histogram.h"

namespace kflex {

// ---------------------------------------------------------------------------
// Enable flags. One process-global word; hot paths issue a single relaxed
// load and test a bit. Both default to off.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kObsTraceBit = 1u << 0;
inline constexpr uint32_t kObsMetricsBit = 1u << 1;

extern std::atomic<uint32_t> g_obs_flags;

inline bool ObsTraceEnabled() {
  return (g_obs_flags.load(std::memory_order_relaxed) & kObsTraceBit) != 0;
}
inline bool ObsMetricsEnabled() {
  return (g_obs_flags.load(std::memory_order_relaxed) & kObsMetricsBit) != 0;
}

// ---------------------------------------------------------------------------
// Event catalog. Codes are (subsystem << 8) | id and are append-only: a
// shipped code never changes meaning. obs-selfcheck mirrors this table.
// ---------------------------------------------------------------------------

enum class ObsSubsystem : uint8_t {
  kRuntime = 0,
  kVerifier = 1,
  kKie = 2,
  kJit = 3,
  kHeap = 4,
  kAlloc = 5,
  kLock = 6,
  kHelper = 7,
  kCancel = 8,
  kFault = 9,
  kSim = 10,
  kShard = 11,
  kCount = 12,
};

const char* ObsSubsystemName(ObsSubsystem s);

enum class ObsEvent : uint16_t {
  // runtime: extension lifecycle.
  kRuntimeLoad = (0 << 8) | 1,      // a0 = obs ext id, a1 = insn count
  kRuntimeUnload = (0 << 8) | 2,    // a0 = obs ext id, a1 = cancellations
  // verifier: per-load decision summary.
  kVerifierAccept = (1 << 8) | 1,   // a0 = pointer guard sites, a1 = pruned object entries
  kVerifierReject = (1 << 8) | 2,   // a0 = insn count, a1 = 0
  // kie: instrumentation summary.
  kKieInstrument = (2 << 8) | 1,    // a0 = guards emitted, a1 = guards elided+dominated
  // jit.
  kJitCompile = (3 << 8) | 1,       // a0 = code bytes, a1 = compile ns
  kJitFallback = (3 << 8) | 2,      // a0 = insn count, a1 = 0 (reason in EngineInfo)
  kJitInlineHit = (3 << 8) | 3,     // a0 = inline helper sites, a1 = cached loops
  kJitSpill = (3 << 8) | 4,         // a0 = callout sites, a1 = regs spilled
  // heap (engine-shared slow paths: identical across interp and JIT).
  kHeapPageIn = (4 << 8) | 1,       // a0 = first page index, a1 = page count
  kHeapGuardTrip = (4 << 8) | 2,    // a0 = MemFaultKind, a1 = faulting va
  // allocator.
  kAllocRefill = (5 << 8) | 1,      // a0 = size class bytes, a1 = objects pulled
  kAllocCarve = (5 << 8) | 2,       // a0 = size class bytes, a1 = objects per page
  kAllocFail = (5 << 8) | 3,        // a0 = requested bytes, a1 = 0
  // spin locks.
  kLockContended = (6 << 8) | 1,    // a0 = acquirer owner tag, a1 = spin rounds
  kLockOrderEdge = (6 << 8) | 2,    // a0 = outer lock heap off, a1 = inner lock heap off
  kLockCycle = (6 << 8) | 3,        // a0 = cycle edge count, a1 = distinct programs
  // helpers (emitted in VmCallHelper, shared by both engines).
  kHelperCall = (7 << 8) | 1,       // a0 = helper id, a1 = return value
  // cancellation / watchdog.
  kCancelRequested = (8 << 8) | 1,  // a0 = obs ext id, a1 = 0
  kCancelUnwound = (8 << 8) | 2,    // a0 = fault pc, a1 = released resources
  kWatchdogFired = (8 << 8) | 3,    // a0 = obs ext id, a1 = overrun ns
  // fault injection.
  kFaultFired = (9 << 8) | 1,       // a0 = fault point index, a1 = hit number
  // sim.
  kSimProgress = (10 << 8) | 1,     // a0 = completed requests, a1 = in flight
  kSimTenantSlo = (10 << 8) | 2,    // a0 = tenant index, a1 = p99 latency ns
  // sharded dispatcher (src/shard, docs/sharding.md).
  kShardStart = (11 << 8) | 1,      // a0 = shard index, a1 = num shards
  kShardBatch = (11 << 8) | 2,      // a0 = shard index, a1 = batch occupancy
  kShardForward = (11 << 8) | 3,    // a0 = steered shard, a1 = home shard
  kShardDrop = (11 << 8) | 4,       // a0 = shard index, a1 = queue capacity
  kShardSteal = (11 << 8) | 5,      // a0 = thief shard, a1 = victim shard
  kShardQuiesce = (11 << 8) | 6,    // a0 = shard index, a1 = drained invocations
};

struct ObsEventDef {
  ObsEvent event;
  const char* name;  // "subsystem.event", stable
  const char* arg0;
  const char* arg1;
};

// Full catalog, ordered by code.
const std::vector<ObsEventDef>& ObsEventCatalog();
// nullptr when the code is unknown.
const ObsEventDef* FindObsEvent(uint16_t code);

inline constexpr ObsSubsystem ObsEventSubsystem(ObsEvent e) {
  return static_cast<ObsSubsystem>(static_cast<uint16_t>(e) >> 8);
}

// ---------------------------------------------------------------------------
// Per-extension counters. Each has a home subsystem for the JSON rollup.
// ---------------------------------------------------------------------------

enum class ObsCounter : uint8_t {
  kInvocations = 0,
  kCancellations,
  kHelperCalls,
  kPageIns,
  kGuardTrips,
  kAllocRefills,
  kAllocFailures,
  kLockContended,
  kFaultsFired,
  kWatchdogFires,
  kJitFallbacks,
  kCount,
};

struct ObsCounterDef {
  ObsCounter counter;
  ObsSubsystem subsystem;
  const char* name;  // short name within the subsystem
};

const std::vector<ObsCounterDef>& ObsCounterCatalog();

// ---------------------------------------------------------------------------
// Trace events and rings.
// ---------------------------------------------------------------------------

struct TraceEvent {
  uint64_t ts_ns = 0;
  uint64_t a0 = 0;
  uint64_t a1 = 0;
  uint32_t ext = 0;   // obs extension id; 0 = unattributed
  uint16_t code = 0;  // (subsystem << 8) | id
  uint16_t cpu = 0;   // kObsNoCpu when not on an invocation CPU
};
static_assert(sizeof(TraceEvent) == 32, "trace events are fixed-size binary records");

inline constexpr uint16_t kObsNoCpu = 0xffff;

// Single-producer-per-CPU ring in the common case (invocations pin a CPU),
// but writes are safe under concurrency: slots are claimed with a wrapping
// fetch_add on the head. Readers snapshot quiesced (tests, kflex_run exit,
// kflex-top); a racing reader can observe a torn in-flight slot, never a
// crash.
class TraceRing {
 public:
  static constexpr size_t kCapacity = 4096;  // events; power of two

  void Emit(const TraceEvent& e);
  // Events currently resident, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  uint64_t dropped() const;
  uint64_t emitted() const { return head_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<uint64_t> head_{0};
  TraceEvent slots_[kCapacity] = {};
};

// ---------------------------------------------------------------------------
// Metrics registry. Slot 0 is the process-global/unattributed extension;
// Runtime::Load registers one slot per loaded extension (obs ids are global
// across Runtime instances — tests create many runtimes).
// ---------------------------------------------------------------------------

class ExtMetrics {
 public:
  explicit ExtMetrics(uint32_t id, std::string label)
      : id_(id), label_(std::move(label)) {}

  void Bump(ObsCounter c, uint64_t delta = 1) {
    counters_[static_cast<size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Get(ObsCounter c) const {
    return counters_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  void RecordInvokeNs(uint64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    invoke_ns_.Record(ns);
  }
  Histogram InvokeHistogram() const {
    std::lock_guard<std::mutex> lock(mu_);
    return invoke_ns_;
  }
  void Reset();

  uint32_t id() const { return id_; }
  const std::string& label() const { return label_; }

 private:
  uint32_t id_;
  std::string label_;
  std::atomic<uint64_t> counters_[static_cast<size_t>(ObsCounter::kCount)] = {};
  mutable std::mutex mu_;
  Histogram invoke_ns_;
};

// Thread-local attribution installed by Runtime::Invoke (and load paths):
// hot-path emit sites stamp extension identity and CPU without threading a
// Runtime pointer through every layer.
struct ObsThreadContext {
  uint32_t ext = 0;
  uint16_t cpu = kObsNoCpu;
  ExtMetrics* metrics = nullptr;  // resolved once per scope; never freed
};

extern thread_local ObsThreadContext g_obs_tls;

class ObsInvokeScope {
 public:
  ObsInvokeScope(uint32_t ext, uint16_t cpu);
  ~ObsInvokeScope();

  ObsInvokeScope(const ObsInvokeScope&) = delete;
  ObsInvokeScope& operator=(const ObsInvokeScope&) = delete;

 private:
  ObsThreadContext saved_;
};

// ---------------------------------------------------------------------------
// Snapshots (JSON surface of kflex_run --metrics=json; schema is a stable
// contract validated by kflex-top --check-schema).
// ---------------------------------------------------------------------------

struct ObsExtSnapshot {
  uint32_t id = 0;
  std::string label;
  uint64_t counters[static_cast<size_t>(ObsCounter::kCount)] = {};
  Histogram invoke_ns;
};

struct ObsSnapshot {
  bool trace_enabled = false;
  bool metrics_enabled = false;
  uint64_t trace_emitted = 0;
  uint64_t trace_dropped = 0;
  uint64_t trace_resident = 0;
  // extensions[0] is the global/unattributed slot.
  std::vector<ObsExtSnapshot> extensions;
};

// Renders the stable JSON document. Required keys (schema contract):
// "obs", "trace" (with "emitted"/"dropped"/"resident"), "subsystems"
// (per-subsystem counter rollup), "extensions" (per-extension counters +
// "invoke_latency_ns" with count/p50/p99/p999/max).
std::string ObsSnapshotToJson(const ObsSnapshot& snap);

// ---------------------------------------------------------------------------
// The process-global observability hub.
// ---------------------------------------------------------------------------

class Obs {
 public:
  static Obs& Instance();

  void EnableTrace(bool on);
  void EnableMetrics(bool on);

  // Registers a metrics slot; returns the process-globally-unique obs id.
  uint32_t RegisterExtension(const std::string& label);
  // Never fails: unknown ids resolve to the global slot 0.
  ExtMetrics* Metrics(uint32_t id);

  // All trace events currently resident across CPU rings, sorted by
  // timestamp. Intended for quiesced readers.
  std::vector<TraceEvent> SnapshotTrace() const;
  uint64_t TraceDropped() const;
  uint64_t TraceEmitted() const;

  // Snapshot of these obs ids (plus the global slot); Runtime::SnapshotMetrics
  // passes its own.
  ObsSnapshot SnapshotMetrics(const std::vector<uint32_t>& ids) const;

  // Clears rings, counters and histograms (not registrations). Tests only.
  void ResetAll();

  // Internal: the ring for the calling thread's context.
  void EmitLocked(uint16_t code, uint64_t a0, uint64_t a1);

 private:
  Obs();

  static constexpr size_t kNumRings = 16;  // power of two; cpu & (kNumRings-1)

  std::unique_ptr<TraceRing[]> rings_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ExtMetrics>> metrics_;  // index = obs id
};

// Emit entry point behind the macros; resolves TLS attribution + timestamp.
void ObsEmit(ObsEvent event, uint64_t a0, uint64_t a1);

// Test helper: flips flags on construction, restores and (optionally)
// resets data on destruction.
class ScopedObsEnable {
 public:
  explicit ScopedObsEnable(bool trace = true, bool metrics = true);
  ~ScopedObsEnable();

  ScopedObsEnable(const ScopedObsEnable&) = delete;
  ScopedObsEnable& operator=(const ScopedObsEnable&) = delete;

 private:
  uint32_t saved_;
};

}  // namespace kflex

// Hot-path macros: one relaxed load, one branch when disabled.
#define KFLEX_TRACE(event, a0, a1)                                      \
  do {                                                                  \
    if (::kflex::ObsTraceEnabled()) {                                   \
      ::kflex::ObsEmit((event), static_cast<uint64_t>(a0),              \
                       static_cast<uint64_t>(a1));                      \
    }                                                                   \
  } while (0)

#define KFLEX_OBS_COUNT(counter)                                        \
  do {                                                                  \
    if (::kflex::ObsMetricsEnabled()) {                                 \
      ::kflex::ExtMetrics* m = ::kflex::g_obs_tls.metrics;              \
      if (m == nullptr) m = ::kflex::Obs::Instance().Metrics(0);        \
      m->Bump(::kflex::ObsCounter::counter);                            \
    }                                                                   \
  } while (0)

#endif  // SRC_OBS_OBS_H_
