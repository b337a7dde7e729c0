#include "src/sim/openloop.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/kernel/costmodel.h"
#include "src/obs/obs.h"

namespace kflex {

namespace {

// Requests per arrival event (coalesced NIC RX, bursty independent clients).
constexpr uint64_t kBurstSize = 8;
// Percent of leading replay samples discarded as warm-up.
constexpr uint64_t kWarmupPct = 10;

struct Slot {
  InvokeResult result;
};

void WriteSlot(const InvokeResult& result, void* user) {
  static_cast<Slot*>(user)->result = result;
}

// Per-request pricing record kept for the latency replay.
struct Priced {
  uint32_t service_ns = 0;
  uint8_t shard = 0;
  uint8_t cls = 0;
};

}  // namespace

OpenLoopResult RunOpenLoop(ShardedRuntime& sharded, const OpenLoopConfig& config,
                           uint32_t ctx_slot_size, const RequestBuilder& build,
                           const ResultObserver& observe) {
  KFLEX_CHECK(config.total_requests > 0 && config.window > 0 && ctx_slot_size > 0);
  const int num_shards = sharded.num_shards();
  const CostModel cost;
  Runtime& rt = sharded.runtime();

  // ---- phase 1: capacity (real execution, per-shard busy accounting) ----
  OpenLoopResult result;
  std::vector<Priced> priced(config.total_requests);
  std::vector<uint64_t> busy(static_cast<size_t>(num_shards), 0);
  std::vector<uint8_t> ctx_pool(config.window * ctx_slot_size);
  std::vector<Slot> slots(config.window);
  std::vector<OpenLoopRequest> reqs(config.window);
  std::vector<ShardExtId> cancelled_exts;
  size_t num_classes = 1;

  uint64_t submitted = 0;
  while (submitted < config.total_requests) {
    uint64_t n = std::min(config.window, config.total_requests - submitted);
    for (uint64_t w = 0; w < n; w++) {
      uint8_t* ctx = ctx_pool.data() + w * ctx_slot_size;
      std::fill(ctx, ctx + ctx_slot_size, 0);
      reqs[w] = build(submitted + w, ctx);
      slots[w].result = InvokeResult{};
      ShardRequest req;
      req.ext = reqs[w].ext;
      req.ctx = ctx;
      req.ctx_size = reqs[w].ctx_size;
      req.flow_hash = reqs[w].flow_hash;
      req.on_done = WriteSlot;
      req.user = &slots[w];
      // The generator is open-loop in simulated time; in host time we
      // backpressure on a full ring rather than drop (drops here would just
      // measure the build machine).
      while (!sharded.Submit(req)) {
        std::this_thread::yield();
      }
    }
    sharded.Flush();
    for (uint64_t w = 0; w < n; w++) {
      const OpenLoopRequest& req = reqs[w];
      const InvokeResult& r = slots[w].result;
      if (observe) {
        observe(req, r);
      }
      // A request that found its extension unloaded is a cheap table-lookup
      // reject: the kernel path only, no invocation.
      uint64_t service = cost.XdpPathUdp();
      if (!r.attached) {
        result.unattached++;
      } else {
        if (r.cancelled) {
          result.cancelled++;
          if (std::find(cancelled_exts.begin(), cancelled_exts.end(), req.ext) ==
              cancelled_exts.end()) {
            cancelled_exts.push_back(req.ext);
          }
        }
        service += cost.ComputeNs(r.insns, r.instr_insns);
        result.total_insns += r.insns;
      }
      const ShardPlacement& place = sharded.placement(req.ext);
      int shard = place.replicated ? ShardForHash(req.flow_hash, num_shards)
                                   : place.home_shard;
      Priced& p = priced[submitted + w];
      p.service_ns = static_cast<uint32_t>(service);
      p.shard = static_cast<uint8_t>(shard);
      p.cls = req.cls;
      num_classes = std::max<size_t>(num_classes, req.cls + 1u);
      busy[static_cast<size_t>(shard)] += service;
    }
    submitted += n;
    // Window boundary: re-arm what was cancelled (the operator's restart
    // policy; cancellation fairness is judged per window).
    for (ShardExtId ext : cancelled_exts) {
      for (ExtensionId replica : sharded.placement(ext).replicas) {
        if (rt.IsUnloaded(replica)) {
          rt.Reset(replica);
        }
      }
    }
    cancelled_exts.clear();
    KFLEX_TRACE(ObsEvent::kSimProgress, submitted, 0);
  }

  result.measured_requests = config.total_requests;
  result.simulated_busy_ns = *std::max_element(busy.begin(), busy.end());
  if (result.simulated_busy_ns == 0) {
    result.simulated_busy_ns = 1;
  }
  result.throughput_mops = static_cast<double>(result.measured_requests) * 1000.0 /
                           static_cast<double>(result.simulated_busy_ns);

  // ---- phase 2: latency replay over per-shard virtual clocks ----
  // Burst arrivals on an exponential schedule: one burst every
  // kBurstSize / offered_rate ns on average.
  double offered_rate =  // requests per simulated ns
      config.replay_rate_rps > 0
          ? config.replay_rate_rps * 1e-9
          : config.offered_load * static_cast<double>(result.measured_requests) /
                static_cast<double>(result.simulated_busy_ns);
  result.replay_rate_rps = offered_rate * 1e9;
  double mean_burst_gap = static_cast<double>(kBurstSize) / offered_rate;
  result.latency.resize(num_classes);
  std::vector<uint64_t> clock(static_cast<size_t>(num_shards), 0);
  Rng replay_rng(config.seed ^ 0x5eedULL);
  double arrival = 0;
  uint64_t warmup = config.total_requests * kWarmupPct / 100;
  for (uint64_t i = 0; i < config.total_requests; i++) {
    if (i % kBurstSize == 0) {
      double u = replay_rng.NextDouble();
      arrival += -std::log(u <= 0 ? 1e-12 : u) * mean_burst_gap;
    }
    const Priced& p = priced[i];
    uint64_t at = static_cast<uint64_t>(arrival);
    uint64_t start = std::max(at, clock[p.shard]);
    uint64_t done = start + p.service_ns;
    clock[p.shard] = done;
    if (i == warmup) {
      for (Histogram& h : result.latency) {
        h.Reset();
      }
    }
    result.latency[p.cls].Record(done - at);
  }

  result.shard_stats = sharded.SnapshotStats();
  return result;
}

}  // namespace kflex
