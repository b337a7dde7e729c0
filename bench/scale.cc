// Million-client scaling benchmark over the sharded dispatch runtime
// (docs/sharding.md): throughput and latency vs shard count {1, 2, 4, 8}
// for three workloads, emitted as BENCH_scale.json.
//
//  * guarded-scatter: the SFI-guard microbench kernel wrapped in
//    kflex_spin_lock/unlock so the concurrency analysis certifies it
//    lock-protected and the dispatcher replicates one instance per shard.
//    Steered by 5-tuple (client flow hash), which is near-uniform across a
//    million clients — the best-case RSS scaling curve.
//  * memcached GET/SET (90:10): the §5.1 extension (socket check off — the
//    bench drives the runtime directly, not the mock kernel), steered by KV
//    key under Zipf(0.99) popularity, so the curve shows what key skew does
//    to per-shard balance.
//  * serial-scatter: the same scatter kernel with the lock removed. It
//    certifies serial-only, pins to its home shard, and every steered-
//    elsewhere request is forwarded — the curve stays flat and the forward
//    counter proves the certificate gate is load-bearing.
//
// The host may have a single core; throughput/latency are computed in
// simulated time by the open-loop generator (src/sim/openloop.h) from real
// executions' instruction counts, so the scaling reflects steering balance,
// not the build machine.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "src/apps/memcached.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/kernel/packet.h"
#include "src/shard/shard.h"
#include "src/shard/steering.h"
#include "src/sim/openloop.h"

namespace kflex {
namespace {

constexpr uint64_t kScatterHeap = 1 << 20;
constexpr uint64_t kScatterLockOff = 64;
constexpr uint64_t kScatterBaseOff = 128;
constexpr uint32_t kScatterCtxSize = 64;
constexpr uint32_t kScatterSlots = 8192;  // ctx offset < slots * 8

// 64 loop iterations x 3 guarded 8-byte stores through ctx-derived offsets.
// `locked` wraps the loop in the spin lock (=> lock-protected certificate);
// without it the plain stores certify serial-only.
Program ScatterProgram(bool locked) {
  Assembler a;
  a.Mov(R9, R1);
  a.Ldx(BPF_W, R6, R9, 0);  // scatter offset (bounded by the builder)
  if (locked) {
    a.LoadHeapAddr(R1, kScatterLockOff);
    a.Call(kHelperKflexSpinLock);
  }
  a.LoadHeapAddr(R7, kScatterBaseOff);
  a.Add(R7, R6);
  a.MovImm(R4, 64);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R7, 0, 1);
  a.StImm(BPF_DW, R7, 8, 2);
  a.StImm(BPF_DW, R7, 16, 3);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  if (locked) {
    a.LoadHeapAddr(R1, kScatterLockOff);
    a.Call(kHelperKflexSpinUnlock);
  }
  a.MovImm(R0, 1);
  a.Exit();
  auto p = a.Finish(locked ? "scale_guarded_scatter" : "scale_serial_scatter",
                    Hook::kTracepoint, ExtensionMode::kKflex, kScatterHeap);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

ShardedRuntimeOptions MakeOptions(int shards) {
  ShardedRuntimeOptions o;
  o.num_shards = shards;
  o.batch_size = 32;
  o.queue_capacity = 4096;
  o.runtime.num_cpus = shards;
  o.runtime.quantum_ns = 500'000'000ULL;
  return o;
}

struct RunRow {
  OpenLoopResult result;
  uint64_t forwarded = 0;
  uint64_t dropped = 0;
  uint64_t stolen = 0;
  std::string safety;
  bool replicated = false;
};

uint64_t SumField(const std::vector<ShardStats>& stats, uint64_t ShardStats::*f) {
  uint64_t total = 0;
  for (const ShardStats& s : stats) {
    total += s.*f;
  }
  return total;
}

// Traffic shape shared by every workload: Zipf-popular keys (paper: s =
// 0.99) from a population of clients (flows), drawn per request from one
// seeded stream.
constexpr double kZipfTheta = 0.99;
struct Traffic {
  uint64_t clients = 0;
  uint64_t key_space = 0;
};

// Fills the ctx buffer for request i and returns its flow hash (what the
// caller would pass to ShardedRuntime::Submit).
using ScaleBuilder =
    std::function<uint64_t(uint64_t i, uint64_t key, uint64_t client, uint8_t* ctx)>;

// One workload at one shard count: build the runtime, load, generate, and
// collect the dispatcher counters.
RunRow RunOne(int shards, const OpenLoopConfig& config, const Traffic& traffic,
              const Program& program, const LoadOptions& lo, uint32_t ctx_size,
              const ScaleBuilder& build) {
  ShardedRuntime sharded{MakeOptions(shards)};
  auto ext = sharded.Load(program, lo);
  KFLEX_CHECK(ext.ok());
  const ShardPlacement& place = sharded.placement(*ext);

  Rng rng(config.seed);
  ZipfGenerator zipf(traffic.key_space, kZipfTheta);
  auto request = [&](uint64_t i, uint8_t* ctx) {
    uint64_t key = zipf.Next(rng);
    uint64_t client = rng.Next() % traffic.clients;
    return OpenLoopRequest{*ext, ctx_size, build(i, key, client, ctx)};
  };
  RunRow row;
  row.result = RunOpenLoop(sharded, config, ctx_size, request);
  // Every workload here is well-formed: a cancelled or unattached request
  // means it is misconfigured (e.g. writes outside the populated heap).
  KFLEX_CHECK(row.result.cancelled == 0 && row.result.unattached == 0);
  row.safety = ShardSafetyName(place.safety);
  row.replicated = place.replicated;
  row.forwarded = SumField(row.result.shard_stats, &ShardStats::forwarded);
  row.dropped = SumField(row.result.shard_stats, &ShardStats::dropped);
  row.stolen = SumField(row.result.shard_stats, &ShardStats::stolen);
  sharded.UnloadQuiesced(*ext);
  return row;
}

void PrintRow(const char* workload, int shards, const RunRow& row) {
  const OpenLoopResult& r = row.result;
  const Histogram& latency = r.latency[0];
  std::printf(
      "  %-16s shards=%d  %-14s %-10s thpt=%8.3f Mops/s  p50=%7llu ns  "
      "p99=%8llu ns  fwd=%llu steal=%llu drop=%llu\n",
      workload, shards, row.safety.c_str(), row.replicated ? "replicated" : "pinned",
      r.throughput_mops, static_cast<unsigned long long>(latency.Percentile(0.5)),
      static_cast<unsigned long long>(latency.Percentile(0.99)),
      static_cast<unsigned long long>(row.forwarded),
      static_cast<unsigned long long>(row.stolen),
      static_cast<unsigned long long>(row.dropped));
}

void AddJsonRow(BenchJson& json, const char* workload, int shards, const RunRow& row) {
  const OpenLoopResult& r = row.result;
  double ns_per_op = r.throughput_mops > 0 ? 1000.0 / r.throughput_mops : 0;
  auto& j = json.Add(workload, "kflex-sharded", ns_per_op);
  j.fields.emplace_back("shards", shards);
  j.fields.emplace_back("replicated", row.replicated ? 1 : 0);
  j.fields.emplace_back("requests", static_cast<int64_t>(r.measured_requests));
  j.fields.emplace_back("throughput_kops",
                        static_cast<int64_t>(r.throughput_mops * 1000.0));
  j.fields.emplace_back("p50_ns", static_cast<int64_t>(r.latency[0].Percentile(0.5)));
  j.fields.emplace_back("p99_ns", static_cast<int64_t>(r.latency[0].Percentile(0.99)));
  j.fields.emplace_back("busy_ns", static_cast<int64_t>(r.simulated_busy_ns));
  j.fields.emplace_back("forwarded", static_cast<int64_t>(row.forwarded));
  j.fields.emplace_back("stolen", static_cast<int64_t>(row.stolen));
  j.fields.emplace_back("dropped", static_cast<int64_t>(row.dropped));
}

int Run(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  std::string json_path = ExtractJsonFlag(&argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_scale.json";
  }

  OpenLoopConfig config;
  config.total_requests = smoke ? 20'000 : 120'000;
  Traffic traffic;
  traffic.clients = smoke ? 100'000 : 1'000'000;
  traffic.key_space = smoke ? 20'000 : 100'000;

  PrintHeader("Scaling: sharded dispatch, 1M clients, shard count 1/2/4/8",
              "replicated extensions scale near-linearly; serial-only stays flat "
              "(certificate-gated placement, §3.4 heap model per shard)");
  std::printf("  mode=%s clients=%llu requests=%llu keyspace=%llu zipf=%.2f\n\n",
              smoke ? "smoke" : "full", static_cast<unsigned long long>(traffic.clients),
              static_cast<unsigned long long>(config.total_requests),
              static_cast<unsigned long long>(traffic.key_space), kZipfTheta);

  BenchJson json;
  const int kShardCounts[] = {1, 2, 4, 8};

  // ---- guarded scatter (lock-protected, 5-tuple steering) ----
  Program guarded = ScatterProgram(/*locked=*/true);
  LoadOptions scatter_lo;
  // The scatter array is a static region: stores outside the populated pages
  // would take the C2 not-present cancellation instead of executing.
  scatter_lo.heap_static_bytes = kScatterBaseOff + kScatterSlots * 8 + 32;
  ScaleBuilder scatter_build = [](uint64_t, uint64_t key, uint64_t client, uint8_t* ctx) {
    uint32_t off = static_cast<uint32_t>(key % kScatterSlots) * 8;
    std::memcpy(ctx, &off, sizeof(off));
    // Packet workload: RSS steers by flow (client 5-tuple), not key.
    return ShardHashKey(client);
  };
  double guarded_1 = 0, guarded_8 = 0;
  for (int shards : kShardCounts) {
    RunRow row = RunOne(shards, config, traffic, guarded, scatter_lo, kScatterCtxSize,
                        scatter_build);
    KFLEX_CHECK(shards == 1 || row.replicated);
    KFLEX_CHECK(row.dropped == 0);
    if (shards == 1) guarded_1 = row.result.throughput_mops;
    if (shards == 8) guarded_8 = row.result.throughput_mops;
    PrintRow("guarded-scatter", shards, row);
    AddJsonRow(json, "guarded_scatter", shards, row);
  }
  std::printf("\n");

  // ---- memcached GET/SET 90:10 (lock-protected, key steering) ----
  MemcachedBuildOptions mc_opts;
  mc_opts.socket_check = false;
  mc_opts.heap_size = 1 << 22;
  Program memcached = BuildMemcachedExtension(mc_opts);
  LoadOptions mc_lo;
  mc_lo.heap_static_bytes = MemcachedLayout::kStaticBytes;
  ScaleBuilder mc_build = [](uint64_t i, uint64_t key, uint64_t client, uint8_t* ctx) {
    bool is_set = (i % 10) == 0;
    ctx[kOffOp] = static_cast<uint8_t>(is_set ? KvOp::kSet : KvOp::kGet);
    ctx[kOffProto] = is_set ? kProtoTcp : kProtoUdp;
    auto key32 = MakeKey32(key);
    ctx[kOffKeyLen] = static_cast<uint8_t>(key32.size());
    std::memcpy(ctx + kOffKey, key32.data(), key32.size());
    uint32_t src_ip = static_cast<uint32_t>(client);
    uint16_t src_port = static_cast<uint16_t>(40000 + (client >> 32));
    uint16_t dst_port = 11211;
    std::memcpy(ctx + kOffSrcIp, &src_ip, 4);
    std::memcpy(ctx + kOffSrcPort, &src_port, 2);
    std::memcpy(ctx + kOffDstPort, &dst_port, 2);
    if (is_set) {
      uint16_t vallen = 8;
      std::memcpy(ctx + kOffValLen, &vallen, 2);
      std::memcpy(ctx + kOffValue, &key, 8);
    }
    // KV workload: steer by key bytes so GETs land on the shard that SET.
    return ShardHashKvCtx(ctx, kCtxSize);
  };
  for (int shards : kShardCounts) {
    RunRow row = RunOne(shards, config, traffic, memcached, mc_lo, kCtxSize, mc_build);
    KFLEX_CHECK(row.dropped == 0);
    PrintRow("memcached", shards, row);
    AddJsonRow(json, "memcached_get_set", shards, row);
  }
  std::printf("\n");

  // ---- serial scatter (serial-only, pinned; the certificate gate) ----
  Program serial = ScatterProgram(/*locked=*/false);
  uint64_t serial_forwarded_8 = 0;
  for (int shards : kShardCounts) {
    RunRow row = RunOne(shards, config, traffic, serial, scatter_lo, kScatterCtxSize,
                        scatter_build);
    KFLEX_CHECK(!row.replicated);
    if (shards == 8) serial_forwarded_8 = row.forwarded;
    KFLEX_CHECK(shards == 1 || row.forwarded > 0);
    PrintRow("serial-scatter", shards, row);
    AddJsonRow(json, "serial_scatter", shards, row);
  }

  std::printf("\n  guarded-scatter scaling 1->8 shards: %.2fx (want >= 4x)\n",
              guarded_1 > 0 ? guarded_8 / guarded_1 : 0);
  std::printf("  serial-scatter forwards at 8 shards: %llu (want > 0)\n",
              static_cast<unsigned long long>(serial_forwarded_8));

  if (!json.Write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());

  bool ok = guarded_8 >= 4.0 * guarded_1 && serial_forwarded_8 > 0;
  if (!ok) {
    std::fprintf(stderr, "SCALING ACCEPTANCE FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kflex

int main(int argc, char** argv) { return kflex::Run(argc, argv); }
