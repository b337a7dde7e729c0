// The KFlex runtime (Figure 1, step 3).
//
// Owns the full load pipeline — verification (kernel-interface compliance),
// Kie instrumentation (extension correctness), heap creation — and executes
// extensions while guaranteeing memory safety and safe termination:
//
//  * faults raised by the VM (guard zone, unpopulated page, terminate load)
//    become extension cancellations: the runtime walks the object table of
//    the faulting cancellation point, releases every held kernel resource
//    via its destructor, and returns the hook's default verdict (§3.3);
//  * a watchdog monitors how long each invocation has been running and arms
//    the terminate slot when the quantum is exceeded (§4.3);
//  * cancellation is extension-wide: the extension is unloaded, but its heap
//    survives until the owner closes it (§3.4, §4.3).
#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/jit/codegen.h"
#include "src/kie/kie.h"
#include "src/obs/obs.h"
#include "src/runtime/allocator.h"
#include "src/runtime/heap.h"
#include "src/runtime/maps.h"
#include "src/runtime/object_registry.h"
#include "src/runtime/vm.h"
#include "src/verifier/verifier.h"

namespace kflex {

using ExtensionId = uint32_t;

struct RuntimeOptions {
  RuntimeOptions() = default;
  RuntimeOptions(int cpus, uint64_t quantum = 1'000'000'000ULL, uint64_t fuel = 0)
      : num_cpus(cpus), quantum_ns(quantum), fuel_quantum_insns(fuel) {}

  int num_cpus = 8;
  // Watchdog cancellation quantum. The paper's watchdog operates at second
  // granularity (§4.3); tests shrink this for fast, deterministic runs.
  uint64_t quantum_ns = 1'000'000'000ULL;
  // Instruction quantum for clock-sampled cancellation points (extensions
  // instrumented with CancellationMode::kClockSampled); 0 = unlimited.
  uint64_t fuel_quantum_insns = 0;
  // Deterministic fault injection, "point:spec" per entry (see
  // docs/faults.md and src/fault/fault.h for the grammar). Armed in the
  // process-global FaultRegistry at construction; malformed specs abort
  // (they are a test/chaos knob, not production input).
  std::vector<std::string> fault_specs;
};

struct LoadOptions {
  KieOptions kie;
  // Extra verifier knobs (maps are filled in from the registry).
  VerifyOptions verify;
  // Run the bytecode optimizer (opt.h) between verification and Kie:
  // tnum-SCCP constant folding, dominated-guard elision, and dead stack
  // store elimination. Off reproduces the unoptimized PR-1 pipeline (and is
  // what the differential fuzzer compares against).
  bool optimize = true;
  // Static-globals bytes at the front of the heap (kflex_heap file scope
  // data). Ignored when the program declares no heap.
  uint64_t heap_static_bytes = 0;
  // Share the extension heap (and allocator) of an already-loaded extension
  // instead of creating a new one. Heaps are eBPF maps in the real system
  // (§4.1) and can back multiple programs; the declared heap sizes must
  // match.
  ExtensionId share_heap_with = 0;
  // Execution engine. kJit compiles the instrumented bytecode to native
  // x86-64 at load time and falls back to the interpreter (recording the
  // reason, see Runtime::engine_info) on unsupported hosts or constructs;
  // the load itself never fails because of the engine choice.
  ExecEngine engine = ExecEngine::kInterp;
  JitOptions jit;
};

// Engine/optimizer selection bundle for app drivers and test harnesses that
// wrap Load. The chaos harness iterates this over all three execution
// configurations (reference interpreter, optimized interpreter, JIT).
struct EngineChoice {
  bool optimize = true;
  ExecEngine engine = ExecEngine::kInterp;
  JitOptions jit;
};

// LoadOptions carrying `engine`'s selection, every other knob at its default.
inline LoadOptions LoadOptionsFor(const EngineChoice& engine) {
  LoadOptions lo;
  lo.optimize = engine.optimize;
  lo.engine = engine.engine;
  lo.jit = engine.jit;
  return lo;
}

// Post-load report of which engine an extension actually runs on.
struct EngineInfo {
  ExecEngine requested = ExecEngine::kInterp;
  ExecEngine used = ExecEngine::kInterp;
  std::string fallback_reason;  // set when requested == kJit but used != kJit
  JitCompileStats stats;        // meaningful when used == kJit
  // Shard-safety certificate distilled at load (concurrency.h): the sharded
  // dispatcher's gate for running invocations of this extension
  // concurrently. Full report: Runtime::instrumented(id).concurrency.
  ShardSafety shard_safety = ShardSafety::kRaceFree;
};

// Result of Runtime::SweepInvariants: human-readable violations of the
// runtime's post-fault cleanliness invariants. Empty = green.
struct InvariantReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string ToString() const;  // newline-joined, "ok" when green
};

struct InvokeResult {
  bool attached = true;      // false: extension was unloaded (post-cancellation)
  bool cancelled = false;
  int64_t verdict = 0;
  uint64_t insns = 0;        // total executed bytecode instructions
  uint64_t instr_insns = 0;  // of those, Kie-inserted instrumentation
  VmResult::Outcome outcome = VmResult::Outcome::kOk;
  size_t fault_pc = 0;
  MemFaultKind fault_kind = MemFaultKind::kNone;
};

class Runtime {
 public:
  explicit Runtime(const RuntimeOptions& options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  MapRegistry& maps() { return maps_; }
  ObjectRegistry& objects() { return objects_; }
  const ObjectRegistry& objects() const { return objects_; }
  HelperTable& helpers() { return helpers_; }
  int num_cpus() const { return options_.num_cpus; }

  // Verifies, instruments and installs `program`. Creates the extension heap
  // if the program declares one.
  StatusOr<ExtensionId> Load(const Program& program, const LoadOptions& options = {});

  // Runs one invocation of the extension on `cpu` with the given context
  // object (the hook input). ctx must stay valid for the call.
  //
  // `cpu` selects the per-CPU allocator arena and watchdog slot and must lie
  // in [0, num_cpus); the sharded dispatcher (src/shard) computes it from the
  // shard index. Out-of-range values are rejected (attached=false) after a
  // consistency check against the extension allocator's per-CPU slot count —
  // the runtime no longer trusts callers to have picked a valid arena.
  InvokeResult Invoke(ExtensionId id, int cpu, uint8_t* ctx, uint32_t ctx_size);
  // As above, additionally recording every helper call as (id, return value)
  // into `helper_trace` (may be null). Used by differential tests.
  InvokeResult Invoke(ExtensionId id, int cpu, uint8_t* ctx, uint32_t ctx_size,
                      std::vector<std::pair<int32_t, uint64_t>>* helper_trace);

  // Requests cancellation of all invocations of the extension (§4.3: scope
  // is the whole extension across CPUs).
  void Cancel(ExtensionId id);

  // Re-arms a cancelled extension (tests / repeated-cancellation benches).
  void Reset(ExtensionId id);

  // Quiesced detach: marks the extension unloaded without the cancellation
  // machinery (no unwind, no cancellation stats). The caller must have
  // drained all in-flight invocations first — the sharded dispatcher's
  // per-shard quiesce (ShardedRuntime::UnloadQuiesced) is the intended
  // caller. Subsequent Invokes return attached=false; the heap survives
  // until the owner closes it, as with cancellation (§3.4).
  void Unload(ExtensionId id);

  bool IsUnloaded(ExtensionId id) const;
  ExtensionHeap* heap(ExtensionId id);
  HeapAllocator* allocator(ExtensionId id);
  const InstrumentedProgram& instrumented(ExtensionId id) const;
  const Analysis& analysis(ExtensionId id) const;
  EngineInfo engine_info(ExtensionId id) const;

  // Static lock-acquisition audit across all live extensions (concurrency.h):
  // one LockOrderGraph per shared extension heap (lock identities are heap
  // offsets, so only extensions sharing a heap can contend on the same
  // lock), merged from each extension's certificate edges. A reported cycle
  // is a potential cross-extension AB/BA deadlock; each detection emits a
  // lock.cycle trace event.
  std::vector<LockOrderGraph::Cycle> LockOrderAudit() const;

  // §4.3: user-attached callback adjusting the verdict returned after a
  // cancellation (restricted: plain function of the default verdict).
  void SetCancellationCallback(ExtensionId id, std::function<int64_t(int64_t)> cb);

  struct ExtensionStats {
    uint64_t invocations = 0;
    uint64_t cancellations = 0;
    uint64_t resources_released_on_cancel = 0;
  };
  ExtensionStats GetStats(ExtensionId id) const;

  // Observability snapshot scoped to this runtime's extensions (plus the
  // process-global slot): per-extension counters, invoke-latency histograms
  // and trace-ring drop accounting. Serialize with ObsSnapshotToJson (the
  // `kflex_run --metrics=json` surface).
  ObsSnapshot SnapshotMetrics() const;
  // The process-global obs id of a loaded extension (0 if unknown).
  uint32_t obs_id(ExtensionId id) const;

  // Post-fault invariant sweep (§4.3 degradation story): after any
  // invocation — successful, fault-injected, or cancelled — checks that
  //  * the object registry holds no leaked kernel references,
  //  * the extension's allocator accounting balances (HeapAllocator::Audit),
  //  * the heap's reserved metadata / guard bookkeeping is intact,
  //  * no object-table lock is still held by the kernel side,
  //  * a cancelled (unloaded) extension is quiesced (no running invocation).
  // Call quiesced (no concurrent Invoke on `id`). Does not consume fault
  // injection hits, so sweeping between invocations never shifts a replayed
  // failure schedule.
  InvariantReport SweepInvariants(ExtensionId id) const;

  // Watchdog-driven monitoring of extension execution duration (§4.3).
  void StartWatchdog();
  void StopWatchdog();

 private:
  struct Extension {
    InstrumentedProgram iprog;
    Analysis analysis;
    ExecEngine engine_requested = ExecEngine::kInterp;
    std::unique_ptr<JitProgram> jit;  // non-null: Invoke runs native code
    std::string jit_fallback;         // why kJit fell back, if it did
    std::shared_ptr<ExtensionHeap> heap;
    std::shared_ptr<HeapAllocator> allocator;
    // Process-global observability identity, resolved once at load so the
    // invoke hot path installs attribution without a registry lookup.
    uint32_t obs_id = 0;
    ExtMetrics* obs_metrics = nullptr;
    std::atomic<bool> cancel{false};
    std::atomic<bool> unloaded{false};
    std::function<int64_t(int64_t)> cancel_cb;
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> running_since;  // per cpu, ns; 0 = idle
    // ExtensionStats counters, bumped lock-free on the invoke path.
    std::atomic<uint64_t> invocations{0};
    std::atomic<uint64_t> cancellations{0};
    std::atomic<uint64_t> resources_released_on_cancel{0};
  };

  Extension* Get(ExtensionId id);
  const Extension* Get(ExtensionId id) const;
  int64_t Unwind(Extension& ext, VmEnv& env, size_t fault_pc);
  void WatchdogLoop();

  RuntimeOptions options_;
  MapRegistry maps_;
  ObjectRegistry objects_;
  HelperTable helpers_;

  // Writers (Load) take mu_ and republish index_; readers (Invoke and every
  // per-extension accessor) only load the immutable snapshot, so concurrent
  // shard workers never serialize on the registry lock in the invoke path.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Extension>> extensions_;
  std::atomic<std::shared_ptr<const std::vector<Extension*>>> index_;

  std::thread watchdog_;
  std::atomic<bool> watchdog_running_{false};
};

}  // namespace kflex

#endif  // SRC_RUNTIME_RUNTIME_H_
