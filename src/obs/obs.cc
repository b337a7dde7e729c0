#include "src/obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace kflex {

std::atomic<uint32_t> g_obs_flags{0};
thread_local ObsThreadContext g_obs_tls;

namespace {

uint64_t ObsNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* ObsSubsystemName(ObsSubsystem s) {
  switch (s) {
    case ObsSubsystem::kRuntime: return "runtime";
    case ObsSubsystem::kVerifier: return "verifier";
    case ObsSubsystem::kKie: return "kie";
    case ObsSubsystem::kJit: return "jit";
    case ObsSubsystem::kHeap: return "heap";
    case ObsSubsystem::kAlloc: return "alloc";
    case ObsSubsystem::kLock: return "lock";
    case ObsSubsystem::kHelper: return "helper";
    case ObsSubsystem::kCancel: return "cancel";
    case ObsSubsystem::kFault: return "fault";
    case ObsSubsystem::kSim: return "sim";
    case ObsSubsystem::kShard: return "shard";
    case ObsSubsystem::kCount: break;
  }
  return "?";
}

const std::vector<ObsEventDef>& ObsEventCatalog() {
  static const std::vector<ObsEventDef> kCatalog = {
      {ObsEvent::kRuntimeLoad, "runtime.load", "obs_ext_id", "insns"},
      {ObsEvent::kRuntimeUnload, "runtime.unload", "obs_ext_id", "cancellations"},
      {ObsEvent::kVerifierAccept, "verifier.accept", "guard_sites", "pruned_object_entries"},
      {ObsEvent::kVerifierReject, "verifier.reject", "insns", "unused"},
      {ObsEvent::kKieInstrument, "kie.instrument", "guards_emitted", "guards_removed"},
      {ObsEvent::kJitCompile, "jit.compile", "code_bytes", "compile_ns"},
      {ObsEvent::kJitFallback, "jit.fallback", "insns", "unused"},
      {ObsEvent::kJitInlineHit, "jit.inline_hit", "inline_helper_sites", "cached_loops"},
      {ObsEvent::kJitSpill, "jit.spill", "callout_sites", "regs_spilled"},
      {ObsEvent::kHeapPageIn, "heap.pagein", "first_page", "pages"},
      {ObsEvent::kHeapGuardTrip, "heap.guard_trip", "fault_kind", "va"},
      {ObsEvent::kAllocRefill, "alloc.refill", "size_class", "objects"},
      {ObsEvent::kAllocCarve, "alloc.carve", "size_class", "objects_per_page"},
      {ObsEvent::kAllocFail, "alloc.fail", "bytes", "unused"},
      {ObsEvent::kLockContended, "lock.contended", "owner_tag", "rounds"},
      {ObsEvent::kLockOrderEdge, "lock.order_edge", "outer_off", "inner_off"},
      {ObsEvent::kLockCycle, "lock.cycle", "edges", "programs"},
      {ObsEvent::kHelperCall, "helper.call", "helper_id", "ret"},
      {ObsEvent::kCancelRequested, "cancel.requested", "obs_ext_id", "unused"},
      {ObsEvent::kCancelUnwound, "cancel.unwound", "fault_pc", "released"},
      {ObsEvent::kWatchdogFired, "cancel.watchdog", "obs_ext_id", "overrun_ns"},
      {ObsEvent::kFaultFired, "fault.fired", "point_index", "hit"},
      {ObsEvent::kSimProgress, "sim.progress", "completed", "in_flight"},
      {ObsEvent::kSimTenantSlo, "sim.tenant_slo", "tenant", "p99_ns"},
      {ObsEvent::kShardStart, "shard.start", "shard", "num_shards"},
      {ObsEvent::kShardBatch, "shard.batch", "shard", "occupancy"},
      {ObsEvent::kShardForward, "shard.forward", "steered_shard", "home_shard"},
      {ObsEvent::kShardDrop, "shard.drop", "shard", "capacity"},
      {ObsEvent::kShardSteal, "shard.steal", "thief_shard", "victim_shard"},
      {ObsEvent::kShardQuiesce, "shard.quiesce", "shard", "drained"},
  };
  return kCatalog;
}

const ObsEventDef* FindObsEvent(uint16_t code) {
  for (const ObsEventDef& def : ObsEventCatalog()) {
    if (static_cast<uint16_t>(def.event) == code) {
      return &def;
    }
  }
  return nullptr;
}

const std::vector<ObsCounterDef>& ObsCounterCatalog() {
  static const std::vector<ObsCounterDef> kCatalog = {
      {ObsCounter::kInvocations, ObsSubsystem::kRuntime, "invocations"},
      {ObsCounter::kCancellations, ObsSubsystem::kCancel, "cancellations"},
      {ObsCounter::kHelperCalls, ObsSubsystem::kHelper, "calls"},
      {ObsCounter::kPageIns, ObsSubsystem::kHeap, "pageins"},
      {ObsCounter::kGuardTrips, ObsSubsystem::kHeap, "guard_trips"},
      {ObsCounter::kAllocRefills, ObsSubsystem::kAlloc, "refills"},
      {ObsCounter::kAllocFailures, ObsSubsystem::kAlloc, "failures"},
      {ObsCounter::kLockContended, ObsSubsystem::kLock, "contended"},
      {ObsCounter::kFaultsFired, ObsSubsystem::kFault, "fired"},
      {ObsCounter::kWatchdogFires, ObsSubsystem::kCancel, "watchdog_fires"},
      {ObsCounter::kJitFallbacks, ObsSubsystem::kJit, "fallbacks"},
  };
  return kCatalog;
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

void TraceRing::Emit(const TraceEvent& e) {
  uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  slots_[seq & (kCapacity - 1)] = e;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t resident = std::min<uint64_t>(head, kCapacity);
  std::vector<TraceEvent> out;
  out.reserve(resident);
  for (uint64_t seq = head - resident; seq != head; seq++) {
    out.push_back(slots_[seq & (kCapacity - 1)]);
  }
  return out;
}

uint64_t TraceRing::dropped() const {
  uint64_t head = head_.load(std::memory_order_relaxed);
  return head > kCapacity ? head - kCapacity : 0;
}

void TraceRing::Reset() {
  head_.store(0, std::memory_order_relaxed);
  std::memset(static_cast<void*>(slots_), 0, sizeof(slots_));
}

// ---------------------------------------------------------------------------
// ExtMetrics / ObsInvokeScope
// ---------------------------------------------------------------------------

void ExtMetrics::Reset() {
  for (auto& c : counters_) {
    c.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  invoke_ns_.Reset();
}

ObsInvokeScope::ObsInvokeScope(uint32_t ext, uint16_t cpu) : saved_(g_obs_tls) {
  g_obs_tls.ext = ext;
  g_obs_tls.cpu = cpu;
  g_obs_tls.metrics = Obs::Instance().Metrics(ext);
}

ObsInvokeScope::~ObsInvokeScope() { g_obs_tls = saved_; }

// ---------------------------------------------------------------------------
// Obs hub
// ---------------------------------------------------------------------------

Obs::Obs() : rings_(new TraceRing[kNumRings]) {
  metrics_.push_back(std::make_unique<ExtMetrics>(0, "(global)"));
}

Obs& Obs::Instance() {
  static Obs* instance = new Obs();  // never destroyed: emitters may outlive main
  return *instance;
}

void Obs::EnableTrace(bool on) {
  if (on) {
    g_obs_flags.fetch_or(kObsTraceBit, std::memory_order_relaxed);
  } else {
    g_obs_flags.fetch_and(~kObsTraceBit, std::memory_order_relaxed);
  }
}

void Obs::EnableMetrics(bool on) {
  if (on) {
    g_obs_flags.fetch_or(kObsMetricsBit, std::memory_order_relaxed);
  } else {
    g_obs_flags.fetch_and(~kObsMetricsBit, std::memory_order_relaxed);
  }
}

uint32_t Obs::RegisterExtension(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t id = static_cast<uint32_t>(metrics_.size());
  metrics_.push_back(std::make_unique<ExtMetrics>(id, label));
  return id;
}

ExtMetrics* Obs::Metrics(uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= metrics_.size()) {
    id = 0;
  }
  return metrics_[id].get();
}

void Obs::EmitLocked(uint16_t code, uint64_t a0, uint64_t a1) {
  TraceEvent e;
  e.ts_ns = ObsNowNs();
  e.a0 = a0;
  e.a1 = a1;
  e.ext = g_obs_tls.ext;
  e.code = code;
  e.cpu = g_obs_tls.cpu;
  size_t ring = (e.cpu == kObsNoCpu) ? kNumRings - 1
                                     : (static_cast<size_t>(e.cpu) & (kNumRings - 1));
  rings_[ring].Emit(e);
}

std::vector<TraceEvent> Obs::SnapshotTrace() const {
  std::vector<TraceEvent> all;
  for (size_t i = 0; i < kNumRings; i++) {
    std::vector<TraceEvent> part = rings_[i].Snapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });
  return all;
}

uint64_t Obs::TraceDropped() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumRings; i++) {
    total += rings_[i].dropped();
  }
  return total;
}

uint64_t Obs::TraceEmitted() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumRings; i++) {
    total += rings_[i].emitted();
  }
  return total;
}

ObsSnapshot Obs::SnapshotMetrics(const std::vector<uint32_t>& ids) const {
  ObsSnapshot snap;
  uint32_t flags = g_obs_flags.load(std::memory_order_relaxed);
  snap.trace_enabled = (flags & kObsTraceBit) != 0;
  snap.metrics_enabled = (flags & kObsMetricsBit) != 0;
  snap.trace_emitted = TraceEmitted();
  snap.trace_dropped = TraceDropped();
  snap.trace_resident = snap.trace_emitted - snap.trace_dropped;

  std::lock_guard<std::mutex> lock(mu_);
  auto append = [&](uint32_t id) {
    if (id >= metrics_.size()) {
      return;
    }
    const ExtMetrics& m = *metrics_[id];
    ObsExtSnapshot ext;
    ext.id = m.id();
    ext.label = m.label();
    for (size_t c = 0; c < static_cast<size_t>(ObsCounter::kCount); c++) {
      ext.counters[c] = m.Get(static_cast<ObsCounter>(c));
    }
    ext.invoke_ns = m.InvokeHistogram();
    snap.extensions.push_back(std::move(ext));
  };
  append(0);
  for (uint32_t id : ids) {
    if (id != 0) {
      append(id);
    }
  }
  return snap;
}

void Obs::ResetAll() {
  for (size_t i = 0; i < kNumRings; i++) {
    rings_[i].Reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& m : metrics_) {
    m->Reset();
  }
}

void ObsEmit(ObsEvent event, uint64_t a0, uint64_t a1) {
  Obs::Instance().EmitLocked(static_cast<uint16_t>(event), a0, a1);
}

ScopedObsEnable::ScopedObsEnable(bool trace, bool metrics)
    : saved_(g_obs_flags.load(std::memory_order_relaxed)) {
  Obs::Instance().EnableTrace(trace);
  Obs::Instance().EnableMetrics(metrics);
}

ScopedObsEnable::~ScopedObsEnable() {
  g_obs_flags.store(saved_, std::memory_order_relaxed);
  Obs::Instance().ResetAll();
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendU64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string ObsSnapshotToJson(const ObsSnapshot& snap) {
  std::string out = "{\n";
  out += "  \"obs\": {\"trace_enabled\": ";
  out += snap.trace_enabled ? "true" : "false";
  out += ", \"metrics_enabled\": ";
  out += snap.metrics_enabled ? "true" : "false";
  out += "},\n";

  out += "  \"trace\": {\"emitted\": ";
  AppendU64(out, snap.trace_emitted);
  out += ", \"dropped\": ";
  AppendU64(out, snap.trace_dropped);
  out += ", \"resident\": ";
  AppendU64(out, snap.trace_resident);
  out += "},\n";

  // Per-subsystem rollup across all extensions in the snapshot.
  uint64_t by_counter[static_cast<size_t>(ObsCounter::kCount)] = {};
  for (const ObsExtSnapshot& ext : snap.extensions) {
    for (size_t c = 0; c < static_cast<size_t>(ObsCounter::kCount); c++) {
      by_counter[c] += ext.counters[c];
    }
  }
  out += "  \"subsystems\": {";
  bool first_sub = true;
  for (size_t s = 0; s < static_cast<size_t>(ObsSubsystem::kCount); s++) {
    ObsSubsystem sub = static_cast<ObsSubsystem>(s);
    std::string body;
    bool first_ctr = true;
    for (const ObsCounterDef& def : ObsCounterCatalog()) {
      if (def.subsystem != sub) {
        continue;
      }
      if (!first_ctr) body += ", ";
      first_ctr = false;
      AppendJsonString(body, def.name);
      body += ": ";
      AppendU64(body, by_counter[static_cast<size_t>(def.counter)]);
    }
    if (body.empty()) {
      continue;
    }
    if (!first_sub) out += ", ";
    first_sub = false;
    out += "\n    ";
    AppendJsonString(out, ObsSubsystemName(sub));
    out += ": {" + body + "}";
  }
  out += "\n  },\n";

  out += "  \"extensions\": [";
  for (size_t i = 0; i < snap.extensions.size(); i++) {
    const ObsExtSnapshot& ext = snap.extensions[i];
    if (i != 0) out += ",";
    out += "\n    {\"id\": ";
    AppendU64(out, ext.id);
    out += ", \"label\": ";
    AppendJsonString(out, ext.label);
    out += ", \"counters\": {";
    bool first = true;
    for (const ObsCounterDef& def : ObsCounterCatalog()) {
      if (!first) out += ", ";
      first = false;
      std::string key = std::string(ObsSubsystemName(def.subsystem)) + "." + def.name;
      AppendJsonString(out, key);
      out += ": ";
      AppendU64(out, ext.counters[static_cast<size_t>(def.counter)]);
    }
    out += "}, \"invoke_latency_ns\": {\"count\": ";
    AppendU64(out, ext.invoke_ns.count());
    out += ", \"p50\": ";
    AppendU64(out, ext.invoke_ns.Percentile(0.5));
    out += ", \"p99\": ";
    AppendU64(out, ext.invoke_ns.Percentile(0.99));
    out += ", \"p999\": ";
    AppendU64(out, ext.invoke_ns.Percentile(0.999));
    out += ", \"max\": ";
    AppendU64(out, ext.invoke_ns.max());
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace kflex
