// Chaos harness: every registered fault point, under every execution engine
// (reference interpreter, optimized interpreter, JIT v1, JIT v2), against
// three workloads (guarded scatter + map counter, memcached GET/SET, rb-tree
// data structure). Asserts zero crashes, clean error returns, recorded
// EngineInfo fallback reasons for injected code-cache refusals, and a green
// post-fault invariant sweep after every combination. Any failure reproduces
// from the printed --fault=point:spec string (plus engine name) alone: the
// schedules are pure functions of (policy, hit index).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/ds/ds.h"
#include "src/apps/ds/harness.h"
#include "src/apps/memcached.h"
#include "src/apps/netfn/netfn.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/fault/fault.h"
#include "src/jit/codegen.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/shard/shard.h"
#include "src/sim/tenants.h"

namespace kflex {
namespace {

// ---- the coverage matrix ----------------------------------------------------

// One deterministic spec per registered fault point. ChaosSelfCheck fails if
// this list and the FaultRegistry catalog ever drift apart, so adding a
// KFLEX_FAULT_FIRE site forces adding matrix coverage here.
struct PointSpec {
  const char* point;
  const char* spec;  // the full --fault argument
};
constexpr PointSpec kCoveredPoints[] = {
    {"alloc.slab", "alloc.slab:nth=1"},
    {"alloc.percpu", "alloc.percpu:nth=2"},
    {"heap.pagein", "heap.pagein:every=5"},
    {"heap.guard", "heap.guard:nth=4"},
    {"jit.mmap", "jit.mmap:nth=1"},
    {"jit.mprotect", "jit.mprotect:nth=1"},
    {"map.update", "map.update:every=2"},
    {"helper.ret_err", "helper.ret_err:prob=0.25,seed=1234"},
    {"lock.delay", "lock.delay:every=1"},
    {"shard.enqueue", "shard.enqueue:every=3"},
};

struct EngineConfig {
  const char* name;
  EngineChoice choice;
};

std::vector<EngineConfig> Engines() {
  std::vector<EngineConfig> engines;
  engines.push_back({"ref-interp", {/*optimize=*/false, ExecEngine::kInterp, {}}});
  engines.push_back({"opt-interp", {/*optimize=*/true, ExecEngine::kInterp, {}}});
  // fast_paths=false sends every JIT memory access through the
  // interpreter-shared translation stub, so heap.* points fire on the same
  // schedule as the interpreter legs.
  JitOptions jit;
  jit.fast_paths = false;
  engines.push_back({"jit", {/*optimize=*/true, ExecEngine::kJit, jit}});
  // JIT v2 with every optimizer pass enabled. fast_paths stays false for the
  // same scheduling reason. Arming helper.ret_err or map.update before Load
  // sets the compiled program's slow_flags, so every inline helper site bails
  // to the interpreter-shared callout stub -- which is exactly where those
  // fault points live.
  JitOptions jit2 = jit;
  jit2.v2 = true;
  engines.push_back({"jit2", {/*optimize=*/true, ExecEngine::kJit2, jit2}});
  return engines;
}

bool IsJitEngine(ExecEngine e) {
  return e == ExecEngine::kJit || e == ExecEngine::kJit2;
}

uint64_t FailsOf(const char* point) {
  FaultPoint* p = FaultRegistry::Instance().Find(point);
  return p != nullptr ? p->fails() : 0;
}

// Injected faults must surface as one of the runtime's documented
// degradation outcomes, never as a crash or an undocumented error.
void ExpectCleanResult(const InvokeResult& r) {
  if (!r.cancelled) {
    EXPECT_EQ(r.outcome, VmResult::Outcome::kOk);
    return;
  }
  switch (r.outcome) {
    case VmResult::Outcome::kFault:
      EXPECT_TRUE(r.fault_kind == MemFaultKind::kNotPresent ||
                  r.fault_kind == MemFaultKind::kGuardZone ||
                  r.fault_kind == MemFaultKind::kTerminate)
          << "unexpected fault kind " << static_cast<int>(r.fault_kind);
      break;
    case VmResult::Outcome::kHelperCancel:
    case VmResult::Outcome::kHelperFault:
      break;  // documented cancellation outcomes
    default:
      ADD_FAILURE() << "unclean outcome " << VmOutcomeName(r.outcome);
  }
}

// When a JIT engine was requested, the load must always succeed; if the
// (possibly injected) code cache refused, the fallback reason is recorded.
void ExpectEngineRecorded(Runtime& runtime, ExtensionId id, const EngineConfig& engine,
                          const char* point) {
  EngineInfo ei = runtime.engine_info(id);
  EXPECT_EQ(ei.requested, engine.choice.engine);
  if (IsJitEngine(ei.requested) && !IsJitEngine(ei.used)) {
    EXPECT_FALSE(ei.fallback_reason.empty())
        << "silent JIT fallback with " << point << " armed";
  }
  if (JitHostSupported() && IsJitEngine(ei.requested) &&
      (std::string(point) == "jit.mmap" || std::string(point) == "jit.mprotect")) {
    // The injected refusal (nth=1, armed before Load) must have forced the
    // interpreter and said why.
    EXPECT_EQ(ei.used, ExecEngine::kInterp);
    EXPECT_NE(ei.fallback_reason.find(std::string(point) == "jit.mmap" ? "(mmap)"
                                                                       : "(mprotect)"),
              std::string::npos)
        << "fallback reason: " << ei.fallback_reason;
  }
}

// ---- workload 1: guarded scatter + map counter ------------------------------

// The microbench scatter kernel plus one bpf map update per invocation so
// the map.update and helper.ret_err points are reachable from this workload.
Program ScatterProgram(uint32_t map_id) {
  Assembler a;
  a.Mov(R9, R1);  // save ctx across the helper call
  a.StImm(BPF_W, R10, -4, 0);
  a.StImm(BPF_DW, R10, -16, 1);
  a.LoadMapPtr(R1, map_id);
  a.Mov(R2, R10);
  a.AddImm(R2, -4);
  a.Mov(R3, R10);
  a.AddImm(R3, -16);
  a.MovImm(R4, 0);
  a.Call(kHelperMapUpdateElem);
  a.Ldx(BPF_W, R6, R9, 0);
  a.LoadHeapAddr(R7, 64);
  a.Add(R7, R6);
  a.MovImm(R4, 64);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R7, 0, 1);
  a.StImm(BPF_DW, R7, 8, 2);
  a.StImm(BPF_DW, R7, 16, 3);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.MovImm(R0, 1);
  a.Exit();
  auto p = a.Finish("chaos_scatter", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

void RunGuardedScatter(const PointSpec& point, const EngineConfig& engine) {
  RuntimeOptions opts;
  opts.num_cpus = 1;
  opts.quantum_ns = 500'000'000ULL;
  Runtime runtime{opts};
  auto desc = runtime.maps().CreateArray(4, 8, 8);
  ASSERT_TRUE(desc.ok());

  // Armed before Load so the jit.* points hit the code cache at compile time.
  ScopedFaultInjection faults{point.spec};
  LoadOptions lo = LoadOptionsFor(engine.choice);
  lo.heap_static_bytes = 128;
  auto id = runtime.Load(ScatterProgram(desc->id), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ExpectEngineRecorded(runtime, *id, engine, point.point);

  uint8_t ctx[64] = {0};
  for (int i = 0; i < 6; i++) {
    InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    ASSERT_TRUE(r.attached);
    ExpectCleanResult(r);
    InvariantReport sweep = runtime.SweepInvariants(*id);
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
    if (r.cancelled) {
      runtime.Reset(*id);
    }
  }

  // Points this workload certainly drives must actually have fired.
  std::string p = point.point;
  if (p == "heap.pagein" || p == "heap.guard" || p == "map.update") {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired";
  }
  if (JitHostSupported() && IsJitEngine(engine.choice.engine) &&
      (p == "jit.mmap" || p == "jit.mprotect")) {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired at load";
  }
}

TEST(ChaosMatrix, GuardedScatter) {
  for (const EngineConfig& engine : Engines()) {
    for (const PointSpec& point : kCoveredPoints) {
      SCOPED_TRACE(std::string("--fault=") + point.spec + " engine=" + engine.name);
      RunGuardedScatter(point, engine);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- workload 2: memcached GET/SET ------------------------------------------

void RunMemcached(const PointSpec& point, const EngineConfig& engine) {
  RuntimeOptions opts;
  opts.num_cpus = 1;
  opts.quantum_ns = 500'000'000ULL;  // watchdog net for corrupted chains
  MockKernel kernel{opts};

  ScopedFaultInjection faults{point.spec};
  MemcachedBuildOptions build;
  build.heap_size = 1 << 22;  // small heap: carves happen early
  auto driver = KflexMemcachedDriver::Create(kernel, build, {}, engine.choice);
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  ExpectEngineRecorded(kernel.runtime(), driver->id(), engine, point.point);
  kernel.runtime().StartWatchdog();

  for (int i = 0; i < 18; i++) {
    if (kernel.runtime().IsUnloaded(driver->id())) {
      kernel.runtime().Reset(driver->id());
    }
    uint64_t key = static_cast<uint64_t>(i % 6);
    switch (i % 3) {
      case 0:
        driver->Set(0, key, "value-" + std::to_string(key));
        break;
      case 1:
        driver->Get(0, key);
        break;
      default:
        driver->Del(0, key);
        break;
    }
    InvariantReport sweep = kernel.runtime().SweepInvariants(driver->id());
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
  }
  kernel.runtime().StopWatchdog();
  EXPECT_TRUE(kernel.Quiescent()) << "kernel resource leaked under " << point.spec;

  std::string p = point.point;
  if (p == "heap.pagein" || p == "heap.guard" || p == "alloc.slab" ||
      p == "alloc.percpu" || p == "lock.delay") {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired";
  }
}

TEST(ChaosMatrix, MemcachedGetSet) {
  for (const EngineConfig& engine : Engines()) {
    for (const PointSpec& point : kCoveredPoints) {
      SCOPED_TRACE(std::string("--fault=") + point.spec + " engine=" + engine.name);
      RunMemcached(point, engine);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- workload 3: rb-tree data structure -------------------------------------

void RunRbTree(const PointSpec& point, const EngineConfig& engine) {
  RuntimeOptions opts;
  opts.num_cpus = 1;
  opts.quantum_ns = 500'000'000ULL;
  Runtime runtime{opts};

  ScopedFaultInjection faults{point.spec};
  auto instance = DsInstance::Create(runtime, BuildRbTree, {}, kDsHeapSize, engine.choice);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  DsInstance& ds = *instance;
  ExpectEngineRecorded(runtime, ds.id(DsOp::kUpdate), engine, point.point);
  runtime.StartWatchdog();

  const DsOp kOps[] = {DsOp::kUpdate, DsOp::kLookup, DsOp::kDelete};
  for (int i = 0; i < 18; i++) {
    for (DsOp op : kOps) {
      if (runtime.IsUnloaded(ds.id(op))) {
        runtime.Reset(ds.id(op));
      }
    }
    uint64_t key = static_cast<uint64_t>(i % 7) + 1;
    switch (i % 3) {
      case 0:
        ds.Update(key, key * 10);
        break;
      case 1:
        ds.Lookup(key);
        break;
      default:
        ds.Delete(key);
        break;
    }
    for (DsOp op : kOps) {
      InvariantReport sweep = runtime.SweepInvariants(ds.id(op));
      EXPECT_TRUE(sweep.ok()) << DsOpName(op) << ": " << sweep.ToString();
    }
  }
  runtime.StopWatchdog();

  std::string p = point.point;
  if (p == "heap.pagein" || p == "heap.guard") {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired";
  }
}

TEST(ChaosMatrix, RbTreeDataStructure) {
  for (const EngineConfig& engine : Engines()) {
    for (const PointSpec& point : kCoveredPoints) {
      SCOPED_TRACE(std::string("--fault=") + point.spec + " engine=" + engine.name);
      RunRbTree(point, engine);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- workload 4: sharded dispatch -------------------------------------------

// The scatter workload through ShardedRuntime: steering + ingress ring +
// worker batches. shard.enqueue surfaces as a counted drop (Submit returns
// false, never blocks), and SweepInvariants must stay green through drain,
// quiesced unload and shard shutdown.
void RunShardedScatter(const PointSpec& point, const EngineConfig& engine) {
  ShardedRuntimeOptions sopts;
  sopts.num_shards = 2;
  sopts.batch_size = 4;
  sopts.queue_capacity = 64;
  sopts.runtime.num_cpus = 2;
  sopts.runtime.quantum_ns = 500'000'000ULL;
  ShardedRuntime sharded{sopts};
  auto desc = sharded.runtime().maps().CreateArray(4, 8, 8);
  ASSERT_TRUE(desc.ok());

  ScopedFaultInjection faults{point.spec};
  LoadOptions lo = LoadOptionsFor(engine.choice);
  lo.heap_static_bytes = 128;
  auto id = sharded.Load(ScatterProgram(desc->id), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const ShardPlacement& place = sharded.placement(*id);

  uint8_t ctx[64] = {0};
  int dropped_submits = 0;
  for (int i = 0; i < 12; i++) {
    for (ExtensionId rid : place.replicas) {
      if (sharded.runtime().IsUnloaded(rid)) {
        sharded.runtime().Reset(rid);
      }
    }
    InvokeResult r = sharded.InvokeSync(*id, /*flow_hash=*/i, ctx, sizeof(ctx));
    if (!r.attached) {
      dropped_submits++;
      continue;
    }
    ExpectCleanResult(r);
  }
  sharded.Flush();
  for (ExtensionId rid : place.replicas) {
    InvariantReport sweep = sharded.runtime().SweepInvariants(rid);
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
  }

  std::string p = point.point;
  if (p == "shard.enqueue") {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired";
    EXPECT_GT(dropped_submits, 0) << "injected queue-full never dropped a submit";
    uint64_t counted = 0;
    for (const ShardStats& s : sharded.SnapshotStats()) {
      counted += s.dropped;
    }
    EXPECT_GE(counted, static_cast<uint64_t>(dropped_submits));
  }

  // Quiesced unload with workers still live, then sweep again: shutdown must
  // not perturb heap/allocator/object-table invariants.
  sharded.UnloadQuiesced(*id);
  for (ExtensionId rid : place.replicas) {
    EXPECT_TRUE(sharded.runtime().IsUnloaded(rid));
    InvariantReport sweep = sharded.runtime().SweepInvariants(rid);
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
  }
}

TEST(ChaosMatrix, ShardedScatter) {
  for (const EngineConfig& engine : Engines()) {
    for (const PointSpec& point : kCoveredPoints) {
      SCOPED_TRACE(std::string("--fault=") + point.spec + " engine=" + engine.name);
      RunShardedScatter(point, engine);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- workload 5: concurrent tenant mix (netfn + adversarial neighbor) -------

// The production scenario suite under fault injection: all three netfn
// tenants plus the fuel-cancelled adversarial neighbor share one two-shard
// runtime while a fault point fires. Injected faults may cancel individual
// invocations (clean documented outcomes only) and drop submits, but must
// never leak across tenants: after the storm every replica of every tenant
// sweeps clean, and quiesced unload still works.
void RunTenantMix(const PointSpec& point, const EngineConfig& engine) {
  ShardedRuntimeOptions sopts;
  sopts.num_shards = 2;
  sopts.batch_size = 4;
  sopts.queue_capacity = 64;
  sopts.runtime.num_cpus = 2;
  sopts.runtime.quantum_ns = 500'000'000ULL;
  sopts.runtime.fuel_quantum_insns = 3000;
  ShardedRuntime sharded{sopts};
  Runtime& rt = sharded.runtime();

  // Armed before the loads so jit.* points hit the code cache at compile
  // time and heap.pagein hits the static-globals population.
  ScopedFaultInjection faults{point.spec};

  auto lb_build = BuildL4LoadBalancer(rt.maps(), 4);
  ASSERT_TRUE(lb_build.ok()) << lb_build.status().ToString();
  auto guard_prog = BuildDdosGuard(GuardConfig{});
  ASSERT_TRUE(guard_prog.ok()) << guard_prog.status().ToString();
  auto agg_prog = BuildTraceAggregator();
  ASSERT_TRUE(agg_prog.ok()) << agg_prog.status().ToString();

  struct Tenant {
    ShardExtId id = 0;
    uint32_t ctx_size = kCtxSize;
  };
  Tenant tenants[4];
  auto lo_for = [&](uint64_t static_bytes) {
    LoadOptions lo = LoadOptionsFor(engine.choice);
    lo.heap_static_bytes = static_bytes;
    return lo;
  };
  {
    auto id = sharded.Load(lb_build->program, lo_for(lb_build->static_bytes));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    tenants[0].id = *id;
    // Host-side policy pushes go through the same faultable paths
    // (map.update); a refused update degrades to a no-backend drop, so the
    // statuses are deliberately ignored here.
    for (uint32_t b = 0; b < 4; b++) {
      SetLbBackendHealth(rt.maps(), *lb_build, b, true).ok();
    }
    std::vector<uint64_t> ring = BuildLbRing({1, 1, 1, 1});
    for (ExtensionId rid : sharded.placement(*id).replicas) {
      InstallLbRing(rt.heap(rid), ring);
    }
  }
  {
    auto id = sharded.Load(*guard_prog, lo_for(GuardLayout::kStaticBytes));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    tenants[1].id = *id;
  }
  {
    auto id = sharded.Load(*agg_prog, lo_for(TraceAggLayout::kStaticBytes));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    tenants[2].id = *id;
    tenants[2].ctx_size = kDsCtxSize;
  }
  {
    LoadOptions lo = lo_for(128);
    lo.kie.cancellation_mode = CancellationMode::kClockSampled;
    auto id = sharded.Load(BuildAdversarialNeighbor(), lo);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    tenants[3].id = *id;
  }
  ExtensionId lb_home = sharded.placement(tenants[0].id)
                            .replicas[static_cast<size_t>(
                                sharded.placement(tenants[0].id).home_shard)];
  ExpectEngineRecorded(rt, lb_home, engine, point.point);

  int dropped_submits = 0;
  for (int i = 0; i < 24; i++) {
    // Re-arm whatever the previous iteration cancelled (the adversary every
    // time; neighbors only when an injected fault cancelled them).
    for (const Tenant& t : tenants) {
      for (ExtensionId rid : sharded.placement(t.id).replicas) {
        if (rt.IsUnloaded(rid)) {
          rt.Reset(rid);
        }
      }
    }
    int which = i % 8 == 7 ? 3 : i % 3;
    uint8_t ctx[kCtxSize] = {0};
    if (which == 0) {
      KvPacket pkt;
      pkt.SetTuple(0x0A000000u | static_cast<uint32_t>(i % 5),
                   static_cast<uint16_t>(1024 + i), 443);
      pkt.SetProto(kProtoUdp);
      std::memcpy(ctx, pkt.data(), kCtxSize);
    } else if (which == 1) {
      KvPacket pkt;
      pkt.SetTuple(0xC6336400u | static_cast<uint32_t>(i % 3), 4242, 443);
      pkt.SetProto(i % 4 == 0 ? kProtoTcp : kProtoUdp);
      pkt.SetZScore(static_cast<uint64_t>(i) * 800);
      std::memcpy(ctx, pkt.data(), kCtxSize);
    } else if (which == 2) {
      DsCtx agg;
      agg.op = static_cast<uint64_t>(i) & 3;
      agg.value = 100 + static_cast<uint64_t>(i) * 7;
      std::memcpy(ctx, agg.bytes(), kDsCtxSize);
    }
    InvokeResult r = sharded.InvokeSync(tenants[which].id, /*flow_hash=*/i, ctx,
                                        tenants[which].ctx_size);
    if (!r.attached) {
      dropped_submits++;
      continue;
    }
    ExpectCleanResult(r);
    if (which == 3) {
      // The adversary never completes: either its fuel budget cancelled it,
      // or an injected fault did first. Both are cancellations.
      EXPECT_TRUE(r.cancelled);
    }
  }
  sharded.Flush();
  for (const Tenant& t : tenants) {
    for (ExtensionId rid : sharded.placement(t.id).replicas) {
      InvariantReport sweep = rt.SweepInvariants(rid);
      EXPECT_TRUE(sweep.ok()) << sweep.ToString();
    }
  }

  std::string p = point.point;
  if (p == "heap.pagein" || p == "map.update" || p == "lock.delay") {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired";
  }
  if (p == "shard.enqueue") {
    EXPECT_GT(FailsOf(point.point), 0u) << point.spec << " never fired";
    EXPECT_GT(dropped_submits, 0) << "injected queue-full never dropped a submit";
  }

  // Quiesced unload of the whole tenancy with workers still live.
  for (const Tenant& t : tenants) {
    sharded.UnloadQuiesced(t.id);
    for (ExtensionId rid : sharded.placement(t.id).replicas) {
      EXPECT_TRUE(rt.IsUnloaded(rid));
      InvariantReport sweep = rt.SweepInvariants(rid);
      EXPECT_TRUE(sweep.ok()) << sweep.ToString();
    }
  }
}

TEST(ChaosMatrix, TenantMix) {
  for (const EngineConfig& engine : Engines()) {
    for (const PointSpec& point : kCoveredPoints) {
      SCOPED_TRACE(std::string("--fault=") + point.spec + " engine=" + engine.name);
      RunTenantMix(point, engine);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- jit2: faulted runs are interpreter-exact -------------------------------

// Runs the scatter workload under one engine with a fault spec armed and
// journals every invocation's observable result. Fault schedules are pure
// functions of (policy, hit index) and ScopedFaultInjection re-arms a fresh
// schedule per call, so two journals under the same spec are comparable
// entry by entry.
std::vector<std::string> ScatterFaultJournal(const char* spec,
                                             const EngineChoice& choice) {
  RuntimeOptions opts;
  opts.num_cpus = 1;
  opts.quantum_ns = 500'000'000ULL;
  Runtime runtime{opts};
  auto desc = runtime.maps().CreateArray(4, 8, 8);
  EXPECT_TRUE(desc.ok());

  ScopedFaultInjection faults{spec};
  LoadOptions lo = LoadOptionsFor(choice);
  lo.heap_static_bytes = 128;
  auto id = runtime.Load(ScatterProgram(desc->id), lo);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) {
    return {};
  }

  std::vector<std::string> journal;
  uint8_t ctx[64] = {0};
  for (int i = 0; i < 8; i++) {
    InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    journal.push_back(
        "attached=" + std::to_string(r.attached) +
        " cancelled=" + std::to_string(r.cancelled) +
        " outcome=" + std::string(VmOutcomeName(r.outcome)) +
        " verdict=" + std::to_string(r.verdict) +
        " fault_pc=" + std::to_string(r.fault_pc) +
        " fault_kind=" + std::to_string(static_cast<int>(r.fault_kind)) +
        " insns=" + std::to_string(r.insns));
    InvariantReport sweep = runtime.SweepInvariants(*id);
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
    if (r.cancelled) {
      runtime.Reset(*id);
    }
  }
  return journal;
}

// The four points the v2 optimizer interacts with directly: jit.mmap and
// jit.mprotect refuse the code cache at compile time (clean interpreter
// fallback), helper.ret_err and map.update arm slow_flags so every inline
// helper site bails to the shared callout stub. In all four cases the
// per-invocation journal under JIT v2 must be byte-identical to the
// interpreter's on the same optimized instrumented stream under the same
// fault schedule -- including exact retired-insn counts.
TEST(ChaosMatrix, Jit2FaultedRunsMatchReferenceInterpreter) {
  const char* kSpecs[] = {
      "jit.mmap:nth=1",
      "jit.mprotect:nth=1",
      "helper.ret_err:prob=0.25,seed=1234",
      "map.update:every=2",
  };
  JitOptions jit2;
  jit2.fast_paths = false;
  jit2.v2 = true;
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(std::string("--fault=") + spec);
    std::vector<std::string> ref =
        ScatterFaultJournal(spec, {/*optimize=*/true, ExecEngine::kInterp, {}});
    std::vector<std::string> v2 =
        ScatterFaultJournal(spec, {/*optimize=*/true, ExecEngine::kJit2, jit2});
    EXPECT_EQ(ref, v2) << "JIT v2 degradation diverged from the interpreter";
  }
}

// ---- coverage self-check ----------------------------------------------------

// Registering a fault point without chaos-matrix coverage (or covering a
// point that no longer exists) is a test-suite bug. Exposed as its own ctest
// (chaos-selfcheck) so CI flags the drift even when the matrix is skipped.
TEST(ChaosSelfCheck, AllRegisteredPointsCovered) {
  std::vector<std::string> registered = FaultRegistry::Instance().Names();
  std::vector<std::string> covered;
  for (const PointSpec& p : kCoveredPoints) {
    covered.push_back(p.point);
    // Every covered spec must parse and name a registered point.
    auto parsed = ParseFaultSpec(p.spec);
    ASSERT_TRUE(parsed.ok()) << p.spec << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->first, p.point);
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(registered, covered)
      << "fault-point catalog and chaos_test kCoveredPoints have drifted";
}

}  // namespace
}  // namespace kflex
