// Closed-loop simulator: deterministic scenarios with analytically known
// outcomes, plus smoke checks that the paper's qualitative ordering
// (KFlex > BMC > user space) emerges from the real data planes. The open-loop
// engine (openloop.h) is checked against CostModel pricing, its restart
// policy and its replay-rate override.
#include "src/sim/closedloop.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/base/logging.h"
#include "src/ebpf/assembler.h"
#include "src/kernel/costmodel.h"
#include "src/sim/kv_models.h"
#include "src/sim/openloop.h"
#include "src/sim/tenants.h"

namespace kflex {
namespace {

// Fixed-service-time model for analytic checks.
class FixedModel : public ServiceModel {
 public:
  explicit FixedModel(uint64_t ns) : ns_(ns) {}
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override {
    calls_++;
    return ns_;
  }
  uint64_t calls() const { return calls_; }

 private:
  uint64_t ns_;
  uint64_t calls_ = 0;
};

TEST(ClosedLoop, SaturatedThroughputMatchesServiceRate) {
  // Many clients, 4 servers, 1 us per request -> ~4 requests/us total.
  FixedModel model(1000);
  ClosedLoopConfig config;
  config.server_threads = 4;
  config.clients = 256;
  config.total_requests = 50'000;
  config.key_space = 100;
  ClosedLoopResult result = RunClosedLoop(model, config);
  EXPECT_NEAR(result.throughput_mops, 4.0, 0.4);
  EXPECT_EQ(model.calls(), config.total_requests);
}

TEST(ClosedLoop, LatencyScalesWithLoad) {
  FixedModel model(1000);
  ClosedLoopConfig light;
  light.server_threads = 8;
  light.clients = 8;  // one client per server: no queueing
  light.total_requests = 20'000;
  light.key_space = 100;
  ClosedLoopResult idle = RunClosedLoop(model, light);

  ClosedLoopConfig heavy = light;
  heavy.clients = 512;
  ClosedLoopResult busy = RunClosedLoop(model, heavy);

  // Under light load latency ~= rtt + service.
  EXPECT_LT(idle.latency.Percentile(0.5), kClosedLoopRttNs + 1000 + 500);
  EXPECT_GT(busy.latency.Percentile(0.99), idle.latency.Percentile(0.99) * 4);
}

TEST(ClosedLoop, BackgroundTaskInflatesTail) {
  FixedModel model(1000);
  ClosedLoopConfig config;
  config.server_threads = 4;
  config.clients = 64;
  config.total_requests = 50'000;
  config.key_space = 100;
  ClosedLoopResult base = RunClosedLoop(model, config);

  BackgroundTask task;
  task.interval_ns = 2'000'000;                      // every 2 ms
  task.run = [](uint64_t) { return 400'000ULL; };    // 400 us stall
  ClosedLoopResult with_gc = RunClosedLoop(model, config, &task);

  EXPECT_GT(with_gc.latency.Percentile(0.99), base.latency.Percentile(0.99));
  EXPECT_LT(with_gc.throughput_mops, base.throughput_mops);
}

TEST(KvModels, MemcachedOrderingMatchesPaper) {
  CostModel cost;
  constexpr int kThreads = 2;
  constexpr uint64_t kKeys = 512;

  auto kflex = KflexMemcachedSystem::Create(cost, kThreads);
  ASSERT_TRUE(kflex.ok()) << kflex.status().ToString();
  (*kflex)->Prepopulate(kKeys);
  auto bmc = BmcSystem::Create(cost, kThreads);
  ASSERT_TRUE(bmc.ok());
  (*bmc)->Prepopulate(kKeys);
  auto user = UserMemcachedSystem::Create(cost, kThreads);
  ASSERT_TRUE(user.ok());
  (*user)->Prepopulate(kKeys);

  ClosedLoopConfig config;
  config.server_threads = kThreads;
  config.clients = 64;
  config.total_requests = 20'000;
  config.key_space = kKeys;
  config.get_fraction = 0.5;

  double kflex_mops = RunClosedLoop(**kflex, config).throughput_mops;
  double bmc_mops = RunClosedLoop(**bmc, config).throughput_mops;
  double user_mops = RunClosedLoop(**user, config).throughput_mops;

  EXPECT_GT(kflex_mops, bmc_mops) << "KFlex must beat BMC on mixed workloads";
  EXPECT_GT(bmc_mops, user_mops) << "BMC must beat pure user space";
  double speedup = kflex_mops / user_mops;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 6.0);
}

TEST(KvModels, RedisOrderingMatchesPaper) {
  CostModel cost;
  constexpr int kThreads = 2;
  constexpr uint64_t kKeys = 512;
  auto kflex = KflexRedisSystem::Create(cost, kThreads);
  ASSERT_TRUE(kflex.ok()) << kflex.status().ToString();
  (*kflex)->Prepopulate(kKeys);
  auto keydb = UserRedisSystem::Create(cost, kThreads);
  ASSERT_TRUE(keydb.ok());
  (*keydb)->Prepopulate(kKeys);

  ClosedLoopConfig config;
  config.server_threads = kThreads;
  config.clients = 64;
  config.total_requests = 20'000;
  config.key_space = kKeys;
  config.get_fraction = 0.9;

  double kflex_mops = RunClosedLoop(**kflex, config).throughput_mops;
  double keydb_mops = RunClosedLoop(**keydb, config).throughput_mops;
  double speedup = kflex_mops / keydb_mops;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 4.0) << "sk_skb keeps the TCP stack: gains must be moderate";
}

TEST(ClosedLoop, DeterministicForSeed) {
  FixedModel model_a(1500);
  FixedModel model_b(1500);
  ClosedLoopConfig config;
  config.server_threads = 4;
  config.clients = 128;
  config.total_requests = 30'000;
  config.key_space = 1000;
  config.seed = 77;
  ClosedLoopResult a = RunClosedLoop(model_a, config);
  ClosedLoopResult b = RunClosedLoop(model_b, config);
  EXPECT_EQ(a.simulated_ns, b.simulated_ns);
  EXPECT_EQ(a.latency.Percentile(0.99), b.latency.Percentile(0.99));
  EXPECT_DOUBLE_EQ(a.throughput_mops, b.throughput_mops);
}

TEST(ClosedLoop, MoreServersMoreThroughput) {
  FixedModel model(2000);
  ClosedLoopConfig config;
  config.clients = 256;
  config.total_requests = 30'000;
  config.key_space = 100;
  config.server_threads = 2;
  double two = RunClosedLoop(model, config).throughput_mops;
  config.server_threads = 8;
  double eight = RunClosedLoop(model, config).throughput_mops;
  EXPECT_GT(eight, two * 3.0) << "saturated throughput must scale with servers";
}

TEST(ClosedLoop, OpMixFollowsGetFraction) {
  class CountingModel : public ServiceModel {
   public:
    uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override {
      (op == KvOp::kGet ? gets : sets)++;
      return 500;
    }
    uint64_t gets = 0;
    uint64_t sets = 0;
  };
  CountingModel model;
  ClosedLoopConfig config;
  config.server_threads = 2;
  config.clients = 32;
  config.total_requests = 40'000;
  config.key_space = 100;
  config.get_fraction = 0.9;
  RunClosedLoop(model, config);
  double frac =
      static_cast<double>(model.gets) / static_cast<double>(model.gets + model.sets);
  EXPECT_NEAR(frac, 0.9, 0.01);
}

// ---- open-loop engine -------------------------------------------------------

constexpr uint32_t kOpenLoopCtx = 8;
// Retired per invocation: 6 bytecode instructions plus the 2-instruction
// guard Kie plants on the ctx-derived store.
constexpr uint64_t kStraightLineInsns = 8;
constexpr uint64_t kStraightLineInstrInsns = 2;

// Straight line: one ctx-derived heap store (a Kie guard) and an exit.
Program StraightLineProgram() {
  Assembler a;
  a.Ldx(BPF_W, R2, R1, 0);
  a.LoadHeapAddr(R3, 64);
  a.Add(R3, R2);
  a.StImm(BPF_DW, R3, 0, 7);
  a.MovImm(R0, 1);
  a.Exit();
  auto p = a.Finish("straight_line", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 16);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

ShardedRuntimeOptions OneShard(uint64_t fuel_quantum_insns = 0) {
  ShardedRuntimeOptions o;
  o.num_shards = 1;
  o.runtime.num_cpus = 2;
  o.runtime.fuel_quantum_insns = fuel_quantum_insns;
  return o;
}

ShardExtId LoadStraightLine(ShardedRuntime& sharded) {
  LoadOptions lo;
  lo.heap_static_bytes = 64 + 4096 + 8;
  auto id = sharded.Load(StraightLineProgram(), lo);
  KFLEX_CHECK(id.ok());
  return *id;
}

TEST(OpenLoop, OneShardCapacityIsCostModelPrice) {
  ShardedRuntime sharded{OneShard()};
  ShardExtId ext = LoadStraightLine(sharded);
  OpenLoopConfig config;
  config.total_requests = 3000;
  config.window = 256;
  uint64_t insns = 0, instr = 0, seen = 0;
  OpenLoopResult r = RunOpenLoop(
      sharded, config, kOpenLoopCtx,
      [&](uint64_t i, uint8_t* ctx) {
        uint32_t off = static_cast<uint32_t>(i % 512) * 8;
        std::memcpy(ctx, &off, sizeof(off));
        return OpenLoopRequest{.ext = ext, .ctx_size = kOpenLoopCtx, .flow_hash = i};
      },
      [&](const OpenLoopRequest&, const InvokeResult& res) {
        EXPECT_TRUE(res.attached && !res.cancelled);
        insns = res.insns;
        instr = res.instr_insns;
        seen++;
      });
  ASSERT_EQ(seen, config.total_requests);
  EXPECT_EQ(insns, kStraightLineInsns);
  EXPECT_EQ(instr, kStraightLineInstrInsns);
  const CostModel cost;
  const uint64_t n = config.total_requests;
  const uint64_t busy = n * (cost.XdpPathUdp() + cost.ComputeNs(insns, instr));
  EXPECT_EQ(r.simulated_busy_ns, busy);
  EXPECT_EQ(r.throughput_mops * 1e6, static_cast<double>(n) * 1e9 / static_cast<double>(busy));
  EXPECT_EQ(r.total_insns, n * insns);
  EXPECT_EQ(r.cancelled, 0u);
  EXPECT_EQ(r.unattached, 0u);
  ASSERT_EQ(r.latency.size(), 1u);
  EXPECT_EQ(r.latency[0].count(), n - n / 10);  // 10% warm-up discarded
}

TEST(OpenLoop, CancelledExtensionIsReArmedEveryWindow) {
  ShardedRuntime sharded{OneShard(/*fuel_quantum_insns=*/2000)};
  ShardExtId good = LoadStraightLine(sharded);
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  lo.kie.cancellation_mode = CancellationMode::kClockSampled;
  auto bad = sharded.Load(BuildAdversarialNeighbor(), lo);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  OpenLoopConfig config;
  config.total_requests = 640;
  config.window = 64;
  const uint64_t windows = config.total_requests / config.window;
  // Class 1 (the always-cancelled loop) is every 8th request: the first per
  // window is cancelled, the rest find it unloaded until the boundary re-arm.
  uint64_t per_class_cancelled[2] = {0, 0};
  uint64_t per_class_unattached[2] = {0, 0};
  OpenLoopResult r = RunOpenLoop(
      sharded, config, kOpenLoopCtx,
      [&](uint64_t i, uint8_t*) {
        bool neighbor = i % 8 == 7;
        return OpenLoopRequest{.ext = neighbor ? *bad : good,
                               .ctx_size = kOpenLoopCtx,
                               .flow_hash = i,
                               .cls = static_cast<uint8_t>(neighbor ? 1 : 0)};
      },
      [&](const OpenLoopRequest& req, const InvokeResult& res) {
        per_class_cancelled[req.cls] += res.cancelled ? 1 : 0;
        per_class_unattached[req.cls] += res.attached ? 0 : 1;
      });
  EXPECT_EQ(r.cancelled, windows);
  EXPECT_EQ(per_class_cancelled[1], windows);
  EXPECT_EQ(per_class_cancelled[0], 0u);
  EXPECT_EQ(per_class_unattached[0], 0u);
  EXPECT_EQ(r.unattached, per_class_unattached[1]);
  EXPECT_EQ(r.unattached, config.total_requests / 8 - windows);
  ASSERT_EQ(r.latency.size(), 2u);
  EXPECT_GT(r.latency[0].count(), 0u);
  EXPECT_GT(r.latency[1].count(), 0u);
}

TEST(OpenLoop, ReplayRateOverridesOfferedLoad) {
  auto run = [](double offered_load, double replay_rate_rps) {
    ShardedRuntime sharded{OneShard()};
    ShardExtId ext = LoadStraightLine(sharded);
    OpenLoopConfig config;
    config.total_requests = 2000;
    config.window = 256;
    config.offered_load = offered_load;
    config.replay_rate_rps = replay_rate_rps;
    return RunOpenLoop(sharded, config, kOpenLoopCtx, [&](uint64_t i, uint8_t*) {
      return OpenLoopRequest{.ext = ext, .ctx_size = kOpenLoopCtx, .flow_hash = i};
    });
  };
  OpenLoopResult by_load = run(0.5, 0);
  EXPECT_DOUBLE_EQ(by_load.replay_rate_rps, 0.5 * by_load.throughput_mops * 1e6);
  // The override wins whatever offered_load says; with service times fixed,
  // the same arrival rate replays to the same latency distribution.
  const double rate = 0.25 * by_load.throughput_mops * 1e6;
  OpenLoopResult a = run(0.5, rate);
  OpenLoopResult b = run(0.9, rate);
  EXPECT_DOUBLE_EQ(a.replay_rate_rps, rate);
  EXPECT_DOUBLE_EQ(b.replay_rate_rps, rate);
  EXPECT_EQ(a.latency[0].Percentile(0.5), b.latency[0].Percentile(0.5));
  EXPECT_EQ(a.latency[0].Percentile(0.99), b.latency[0].Percentile(0.99));
  EXPECT_LT(a.latency[0].Percentile(0.99), by_load.latency[0].Percentile(0.99));
}

}  // namespace
}  // namespace kflex
