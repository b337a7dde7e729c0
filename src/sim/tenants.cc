#include "src/sim/tenants.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/apps/netfn/netfn.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/ebpf/assembler.h"
#include "src/kernel/packet.h"
#include "src/obs/obs.h"
#include "src/verifier/concurrency.h"

namespace kflex {

namespace {

constexpr int kTenantLb = 0;
constexpr int kTenantGuard = 1;
constexpr int kTenantAgg = 2;
constexpr int kTenantAdversary = 3;

const char* const kTenantNames[] = {"netfn_lb", "netfn_guard", "netfn_traceagg",
                                    "netfn_adversary"};

struct LoadedTenant {
  ShardExtId id = 0;
  uint32_t ctx_size = kCtxSize;
};

}  // namespace

Program BuildAdversarialNeighbor() {
  Assembler a;
  a.MovImm(R0, 0);
  a.LoadHeapAddr(R9, 64);
  auto head = a.NewLabel();
  a.Bind(head);
  a.AddImm(R0, 1);
  // Unprotected shared-heap store: the certificate demotes the extension to
  // serial-only, so the dispatcher pins it to one home shard.
  a.Stx(BPF_DW, R9, 0, R0);
  a.Jmp(head);
  auto p = a.Finish("netfn_adversary", Hook::kXdp, ExtensionMode::kKflex, 1 << 16);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

StatusOr<TenantScenarioResult> RunTenantScenario(const TenantScenarioConfig& config) {
  const OpenLoopConfig& load = config.load;
  if (config.num_shards < 1 || load.total_requests == 0 || load.window == 0) {
    return InvalidArgument("tenants: bad scenario config");
  }
  // The SLO surface is per-extension obs metrics; run with the metrics
  // registry on and clean so one scenario = one attribution window. The
  // trace flag is left as the caller set it (kflex_run --trace wants the
  // scenario's shard/sim events).
  ScopedObsEnable obs_on(ObsTraceEnabled(), /*metrics=*/true);
  Obs::Instance().ResetAll();

  ShardedRuntimeOptions shard_options;
  shard_options.num_shards = config.num_shards;
  shard_options.runtime.num_cpus = std::max(config.num_shards, 2);
  shard_options.runtime.fuel_quantum_insns = config.fuel_quantum_insns;
  ShardedRuntime sharded(shard_options);
  Runtime& rt = sharded.runtime();

  const bool with_adversary = config.adversary_period > 0;
  const int num_tenants = with_adversary ? 4 : 3;

  // ---- load the tenant mix ----
  auto lb_build = BuildL4LoadBalancer(rt.maps(), config.num_backends);
  if (!lb_build.ok()) {
    return lb_build.status();
  }
  LoadedTenant tenants[4];
  {
    LoadOptions lo = LoadOptionsFor(config.engine);
    lo.heap_static_bytes = lb_build->static_bytes;
    auto id = sharded.Load(lb_build->program, lo);
    if (!id.ok()) {
      return id.status();
    }
    tenants[kTenantLb].id = *id;
    for (uint32_t b = 0; b < config.num_backends; b++) {
      Status st = SetLbBackendHealth(rt.maps(), *lb_build, b, true);
      if (!st.ok()) {
        return st;
      }
    }
    // Every replica owns a private heap: install the rendezvous ring in each.
    std::vector<uint64_t> ring =
        BuildLbRing(std::vector<uint8_t>(config.num_backends, 1));
    const ShardPlacement& place = sharded.placement(*id);
    for (ExtensionId replica : place.replicas) {
      if (!InstallLbRing(rt.heap(replica), ring)) {
        return Internal("tenants: lb ring install failed");
      }
    }
  }
  {
    GuardConfig gc;
    gc.syn_threshold = config.syn_threshold;
    gc.burst_tokens = config.burst_tokens;
    gc.refill_per_tick = config.refill_per_tick;
    auto program = BuildDdosGuard(gc);
    if (!program.ok()) {
      return program.status();
    }
    LoadOptions lo = LoadOptionsFor(config.engine);
    lo.heap_static_bytes = GuardLayout::kStaticBytes;
    auto id = sharded.Load(*program, lo);
    if (!id.ok()) {
      return id.status();
    }
    tenants[kTenantGuard].id = *id;
  }
  {
    auto program = BuildTraceAggregator();
    if (!program.ok()) {
      return program.status();
    }
    LoadOptions lo = LoadOptionsFor(config.engine);
    lo.heap_static_bytes = TraceAggLayout::kStaticBytes;
    auto id = sharded.Load(*program, lo);
    if (!id.ok()) {
      return id.status();
    }
    tenants[kTenantAgg].id = *id;
    tenants[kTenantAgg].ctx_size = kDsCtxSize;
  }
  if (with_adversary) {
    LoadOptions lo = LoadOptionsFor(config.engine);
    lo.heap_static_bytes = 128;
    lo.kie.cancellation_mode = CancellationMode::kClockSampled;
    auto id = sharded.Load(BuildAdversarialNeighbor(), lo);
    if (!id.ok()) {
      return id.status();
    }
    tenants[kTenantAdversary].id = *id;
  }

  TenantScenarioResult result;
  result.tenants.resize(static_cast<size_t>(num_tenants));
  for (int t = 0; t < num_tenants; t++) {
    const ShardPlacement& place = sharded.placement(tenants[t].id);
    result.tenants[static_cast<size_t>(t)].name = kTenantNames[t];
    result.tenants[static_cast<size_t>(t)].shard_safety = ShardSafetyName(place.safety);
    result.tenants[static_cast<size_t>(t)].replicated = place.replicated;
  }

  // ---- drive the mix: one request class per tenant ----
  Rng rng(load.seed);
  ZipfGenerator zipf(config.key_space, config.zipf_theta);
  auto build = [&](uint64_t i, uint8_t* ctx) {
    int tenant;
    if (with_adversary && i % config.adversary_period == config.adversary_period - 1) {
      tenant = kTenantAdversary;
    } else {
      uint64_t lane = i % 8;
      tenant = lane < 4 ? kTenantLb : (lane < 6 ? kTenantGuard : kTenantAgg);
    }
    uint64_t flow;
    switch (tenant) {
      case kTenantLb: {
        // Zipf-popular 5-tuple flows; steering and the extension's own
        // affinity key derive from the same identity.
        uint64_t f = zipf.Next(rng);
        KvPacket pkt;
        pkt.SetTuple(0x0A000000u | static_cast<uint32_t>(f & 0xFFFFFF),
                     static_cast<uint16_t>(1024 + (f % 32768)), 443);
        pkt.SetProto(kProtoUdp);
        std::memcpy(ctx, pkt.data(), kCtxSize);
        flow = Mix64(f ^ 0x10adba1aULL);
        break;
      }
      case kTenantGuard: {
        uint64_t src = rng.Next() % 64;
        KvPacket pkt;
        pkt.SetTuple(0xC6336400u | static_cast<uint32_t>(src), 4242, 443);
        pkt.SetProto(i % 4 == 0 ? kProtoTcp : kProtoUdp);
        pkt.SetZScore(i * 800);  // virtual arrival time for token refill
        std::memcpy(ctx, pkt.data(), kCtxSize);
        flow = Mix64(src ^ 0xdd05ULL);
        break;
      }
      case kTenantAgg: {
        DsCtx agg;
        agg.op = i & 3;
        agg.value = 100 + (rng.Next() % 4096);
        std::memcpy(ctx, agg.bytes(), kDsCtxSize);
        flow = Mix64(i ^ 0xa99ULL);
        break;
      }
      default:
        flow = Mix64(i ^ 0xbadULL);
        break;
    }
    return OpenLoopRequest{tenants[tenant].id, tenants[tenant].ctx_size, flow,
                           static_cast<uint8_t>(tenant)};
  };
  // SLO classification: the neighbor burns its fuel budget once per window,
  // its follow-up requests fast-reject against the unloaded slot until the
  // engine re-arms it at the window boundary.
  auto classify = [&](const OpenLoopRequest& req, const InvokeResult& r) {
    TenantSlo& slo = result.tenants[req.cls];
    slo.requests++;
    if (!r.attached) {
      slo.rejected++;
      return;
    }
    if (r.cancelled) {
      slo.cancelled++;
      slo.max_cancel_insns = std::max(slo.max_cancel_insns, r.insns);
    } else {
      slo.completed++;
      if (r.verdict == kXdpDrop) {
        slo.verdict_drops++;
      }
    }
    slo.total_insns += r.insns;
  };
  OpenLoopResult run = RunOpenLoop(sharded, load, kCtxSize, build, classify);
  result.simulated_busy_ns = run.simulated_busy_ns;
  result.capacity_rps = run.throughput_mops * 1e6;
  result.replay_rate_rps = run.replay_rate_rps;

  // ---- distill SLOs ----
  ObsSnapshot snap = rt.SnapshotMetrics();
  for (int t = 0; t < num_tenants; t++) {
    TenantSlo& slo = result.tenants[static_cast<size_t>(t)];
    // The engine keeps one histogram per class it saw; a run too short to
    // reach a tenant leaves that tenant's percentiles at 0.
    if (static_cast<size_t>(t) < run.latency.size()) {
      const Histogram& latency = run.latency[static_cast<size_t>(t)];
      slo.p50_ns = latency.Percentile(0.50);
      slo.p99_ns = latency.Percentile(0.99);
    }
    // Sum over shard replicas: every replica registers under the program
    // name, which doubles as the tenant name.
    for (const ObsExtSnapshot& ext : snap.extensions) {
      if (ext.label == slo.name) {
        slo.obs_invocations += ext.counters[static_cast<size_t>(ObsCounter::kInvocations)];
        slo.obs_cancellations +=
            ext.counters[static_cast<size_t>(ObsCounter::kCancellations)];
      }
    }
    KFLEX_TRACE(ObsEvent::kSimTenantSlo, static_cast<uint64_t>(t), slo.p99_ns);
  }

  result.shard_stats = std::move(run.shard_stats);
  // The kflex_run --metrics=json shape: obs snapshot + spliced "shards"
  // array, so kflex-top --check-schema validates scenario output unchanged.
  std::string doc = ObsSnapshotToJson(snap);
  size_t brace = doc.rfind('}');
  if (brace != std::string::npos) {
    doc.insert(brace, ",\n  \"shards\": " + sharded.StatsJson() + "\n");
  }
  result.metrics_json = std::move(doc);
  return result;
}

}  // namespace kflex
