// Multi-tenant SLO benchmark (docs/scenarios.md): the three netfn production
// tenants — L4 load balancer, DDoS guard, trace aggregator — loaded
// concurrently into one ShardedRuntime, first alone (baseline), then next to
// an adversarial neighbor (an unbounded loop that the fuel budget cancels
// every window). Both runs replay the latency phase at the *baseline's*
// absolute arrival rate, so the contended percentiles answer the tenancy
// question directly: what does a misbehaving neighbor cost the well-behaved
// tenants at the same offered traffic?
//
// Acceptance (BENCH_tenants.json, also the tenants-smoke ctest gate):
//  * each well-behaved tenant's contended p99 <= 2x its baseline p99;
//  * no well-behaved tenant is ever cancelled or rejected (isolation);
//  * the neighbor is cancelled at least once per two re-arm windows, and its
//    worst observed overrun stays within the cancellation budget
//    (fuel quantum + one clock-sampling stride).
//
// The final stdout section is the contended run's metrics JSON (the
// kflex_run --metrics=json schema), so piping through
// `kflex-top --check-schema` validates the observability surface end-to-end.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/sim/tenants.h"

namespace kflex {
namespace {

void PrintTenantRow(const TenantSlo& alone, const TenantSlo& mixed) {
  double ratio = alone.p99_ns > 0
                     ? static_cast<double>(mixed.p99_ns) / static_cast<double>(alone.p99_ns)
                     : 0;
  std::printf(
      "  %-16s %-14s %-10s p99 alone=%8llu ns  mixed=%8llu ns  (%.2fx)  "
      "drops=%llu cancels=%llu\n",
      mixed.name.c_str(), mixed.shard_safety.c_str(),
      mixed.replicated ? "replicated" : "pinned",
      static_cast<unsigned long long>(alone.p99_ns),
      static_cast<unsigned long long>(mixed.p99_ns), ratio,
      static_cast<unsigned long long>(mixed.verdict_drops),
      static_cast<unsigned long long>(mixed.cancelled));
}

void AddJsonRow(BenchJson& json, const TenantSlo& alone, const TenantSlo& mixed,
                uint64_t fuel) {
  auto& j = json.Add(mixed.name, "kflex-tenants",
                     static_cast<double>(mixed.p99_ns));
  j.fields.emplace_back("replicated", mixed.replicated ? 1 : 0);
  j.fields.emplace_back("requests", static_cast<int64_t>(mixed.requests));
  j.fields.emplace_back("completed", static_cast<int64_t>(mixed.completed));
  j.fields.emplace_back("cancelled", static_cast<int64_t>(mixed.cancelled));
  j.fields.emplace_back("rejected", static_cast<int64_t>(mixed.rejected));
  j.fields.emplace_back("verdict_drops", static_cast<int64_t>(mixed.verdict_drops));
  j.fields.emplace_back("p50_alone_ns", static_cast<int64_t>(alone.p50_ns));
  j.fields.emplace_back("p99_alone_ns", static_cast<int64_t>(alone.p99_ns));
  j.fields.emplace_back("p50_mixed_ns", static_cast<int64_t>(mixed.p50_ns));
  j.fields.emplace_back("p99_mixed_ns", static_cast<int64_t>(mixed.p99_ns));
  int64_t ratio_x100 =
      alone.p99_ns > 0
          ? static_cast<int64_t>(mixed.p99_ns * 100 / alone.p99_ns)
          : 0;
  j.fields.emplace_back("p99_ratio_x100", ratio_x100);
  j.fields.emplace_back("obs_invocations", static_cast<int64_t>(mixed.obs_invocations));
  j.fields.emplace_back("obs_cancellations",
                        static_cast<int64_t>(mixed.obs_cancellations));
  j.fields.emplace_back("max_cancel_insns",
                        static_cast<int64_t>(mixed.max_cancel_insns));
  j.fields.emplace_back("cancel_budget_insns", static_cast<int64_t>(fuel));
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
    json_path = "BENCH_tenants.json";
  }

  TenantScenarioConfig config;
  config.num_shards = 4;
  config.load.total_requests = smoke ? 6'000 : 24'000;
  config.load.window = 256;
  config.adversary_period = 0;  // baseline first
  config.fuel_quantum_insns = 4'000;

  PrintHeader("Multi-tenant SLOs: lb + ddos guard + traceagg vs adversarial neighbor",
              "per-extension cancellation confines an abusive tenant: neighbors "
              "keep their SLOs while the offender is budget-cancelled (SS3.3/SS4.3)");
  std::printf("  mode=%s shards=%d requests=%llu window=%llu fuel=%llu\n\n",
              smoke ? "smoke" : "full", config.num_shards,
              static_cast<unsigned long long>(config.load.total_requests),
              static_cast<unsigned long long>(config.load.window),
              static_cast<unsigned long long>(config.fuel_quantum_insns));

  auto alone = RunTenantScenario(config);
  if (!alone.ok()) {
    std::fprintf(stderr, "baseline scenario failed: %s\n",
                 alone.status().ToString().c_str());
    return 1;
  }

  // Contended run: every 32nd request is the neighbor; arrivals replay at the
  // baseline's absolute rate so the comparison holds traffic constant.
  config.adversary_period = 32;
  config.load.replay_rate_rps = alone->replay_rate_rps;
  auto mixed = RunTenantScenario(config);
  if (!mixed.ok()) {
    std::fprintf(stderr, "contended scenario failed: %s\n",
                 mixed.status().ToString().c_str());
    return 1;
  }

  BenchJson json;
  bool ok = true;
  for (size_t t = 0; t < 3; t++) {
    const TenantSlo& a = alone->tenants[t];
    const TenantSlo& m = mixed->tenants[t];
    PrintTenantRow(a, m);
    AddJsonRow(json, a, m, config.fuel_quantum_insns);
    if (a.p99_ns == 0 || m.p99_ns > 2 * a.p99_ns) {
      std::fprintf(stderr, "  !! %s: p99 degraded beyond 2x (%llu -> %llu ns)\n",
                   m.name.c_str(), static_cast<unsigned long long>(a.p99_ns),
                   static_cast<unsigned long long>(m.p99_ns));
      ok = false;
    }
    if (m.obs_cancellations != 0 || m.rejected != 0 || m.completed != m.requests) {
      std::fprintf(stderr, "  !! %s: lost isolation (cancelled=%llu rejected=%llu)\n",
                   m.name.c_str(), static_cast<unsigned long long>(m.obs_cancellations),
                   static_cast<unsigned long long>(m.rejected));
      ok = false;
    }
  }
  const TenantSlo& adversary = mixed->tenants[3];
  PrintTenantRow(adversary, adversary);
  AddJsonRow(json, adversary, adversary, config.fuel_quantum_insns);
  uint64_t windows = config.load.total_requests / config.load.window;
  if (adversary.cancelled < windows / 2) {
    std::fprintf(stderr, "  !! adversary under-cancelled: %llu of %llu windows\n",
                 static_cast<unsigned long long>(adversary.cancelled),
                 static_cast<unsigned long long>(windows));
    ok = false;
  }
  uint64_t budget = config.fuel_quantum_insns + config.fuel_quantum_insns / 2 + 1024;
  if (adversary.max_cancel_insns > budget) {
    std::fprintf(stderr, "  !! adversary overran its budget: %llu > %llu insns\n",
                 static_cast<unsigned long long>(adversary.max_cancel_insns),
                 static_cast<unsigned long long>(budget));
    ok = false;
  }
  if (adversary.obs_cancellations != adversary.cancelled) {
    std::fprintf(stderr, "  !! obs cancellation accounting drifted (%llu != %llu)\n",
                 static_cast<unsigned long long>(adversary.obs_cancellations),
                 static_cast<unsigned long long>(adversary.cancelled));
    ok = false;
  }

  std::printf(
      "\n  adversary: cancelled %llu time(s) across %llu windows, worst overrun "
      "%llu insns (budget %llu)\n",
      static_cast<unsigned long long>(adversary.cancelled),
      static_cast<unsigned long long>(windows),
      static_cast<unsigned long long>(adversary.max_cancel_insns),
      static_cast<unsigned long long>(budget));
  std::printf("  baseline capacity %.0f rps, replayed both runs at %.0f rps\n",
              alone->capacity_rps, mixed->replay_rate_rps);

  if (!json.Write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n\n", json_path.c_str());

  // Contended run's observability surface, last on stdout for
  // `kflex-top --check-schema` (the document starts at the bare "{" line).
  std::printf("%s", mixed->metrics_json.c_str());

  if (!ok) {
    std::fprintf(stderr, "SCENARIO ACCEPTANCE FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kflex

int main(int argc, char** argv) { return kflex::Run(argc, argv); }
