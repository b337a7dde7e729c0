// Open-loop burst load generation against the sharded dispatcher
// (docs/sharding.md): the one two-phase engine under the scaling experiments
// behind BENCH_scale.json and the multi-tenant SLO harness (tenants.h).
//
// Unlike the closed loop (closedloop.h), arrivals here are independent of
// completions: requests arrive in bursts on an exponential schedule, so
// queueing delay is visible (the open-loop property the tail-at-scale
// literature insists on). Every request is *actually executed* through the
// real threaded ShardedRuntime — steering decisions, ingress rings, batches,
// forward/steal counters are all real — and its measured instruction count
// prices the request in simulated time with CostModel, the single price list
// the closed-loop sims use too. The host has however many cores it has
// (often one); throughput and latency come from the discrete-event replay
// over per-shard virtual clocks, so the reported scaling reflects the
// dispatcher's steering balance and the workload's shard-parallelism, not
// the build machine.
//
// Two phases per run:
//   1. capacity: execute all requests window by window, accumulate per-shard
//      busy time; saturated throughput = requests / busiest-shard-busy-ns
//      (the bottleneck shard governs, which is what pins serial-only
//      extensions to the single-shard figure). An extension cancelled during
//      a window is re-armed (Runtime::Reset) at the window boundary; requests
//      that reach it in between are rejected unattached.
//   2. latency replay: re-run arithmetic only, with the burst arrival
//      schedule offered at `offered_load` x the measured capacity (or at
//      `replay_rate_rps`), giving one latency distribution per request class.
//
// The engine knows nothing about traffic shape: the caller's RequestBuilder
// turns a request index into a ctx buffer, a target extension and a flow hash.
#ifndef SRC_SIM_OPENLOOP_H_
#define SRC_SIM_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/histogram.h"
#include "src/shard/shard.h"

namespace kflex {

struct OpenLoopConfig {
  uint64_t total_requests = 100'000;
  // Execution window: requests submitted to the dispatcher before each
  // drain barrier, and the cadence at which cancelled extensions are
  // re-armed. Bounded so a million-request run needs O(window) memory.
  uint64_t window = 2048;
  // Seeds the latency replay's arrival schedule; builders seed their
  // traffic from it too.
  uint64_t seed = 42;
  // Offered load for the latency replay, as a fraction of measured capacity.
  double offered_load = 0.7;
  // When nonzero, replay arrivals at this absolute rate (requests per
  // second) instead of offered_load x measured capacity, so two runs can be
  // compared at the same offered traffic.
  double replay_rate_rps = 0;
};

// One request as the caller's builder describes it.
struct OpenLoopRequest {
  ShardExtId ext = 0;
  uint32_t ctx_size = 0;   // bytes of the ctx slot the extension sees
  uint64_t flow_hash = 0;  // steering input (ShardedRuntime::Submit)
  uint8_t cls = 0;         // request class: one latency histogram each
};

// Fills the zeroed ctx slot for request i (called in request order) and
// describes the request.
using RequestBuilder = std::function<OpenLoopRequest(uint64_t i, uint8_t* ctx)>;
// Sees each request's outcome, in request order, once its window drains.
using ResultObserver = std::function<void(const OpenLoopRequest& req, const InvokeResult& r)>;

struct OpenLoopResult {
  // Saturated capacity (million requests per simulated second): the scaling
  // figure (Fig. 8/9 analogue).
  double throughput_mops = 0;
  // Arrival rate of the latency replay (requests per second).
  double replay_rate_rps = 0;
  // Latency distribution per request class (simulated ns).
  std::vector<Histogram> latency;
  uint64_t measured_requests = 0;
  uint64_t simulated_busy_ns = 0;  // busiest shard's busy time
  uint64_t total_insns = 0;
  uint64_t cancelled = 0;   // invocations cut short by cancellation
  uint64_t unattached = 0;  // requests that found their extension unloaded
  // Dispatcher counters after the run (forward/steal/drop/batch occupancy).
  std::vector<ShardStats> shard_stats;
};

OpenLoopResult RunOpenLoop(ShardedRuntime& sharded, const OpenLoopConfig& config,
                           uint32_t ctx_slot_size, const RequestBuilder& build,
                           const ResultObserver& observe = nullptr);

}  // namespace kflex

#endif  // SRC_SIM_OPENLOOP_H_
