#include "src/sim/closedloop.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/obs/obs.h"

namespace kflex {

namespace {

constexpr double kZipfTheta = 0.99;
constexpr uint64_t kWarmupPct = 10;  // leading samples discarded as warm-up

struct SendEvent {
  uint64_t time_ns;
  int client;
  bool operator>(const SendEvent& other) const { return time_ns > other.time_ns; }
};

}  // namespace

ClosedLoopResult RunClosedLoop(ServiceModel& model, const ClosedLoopConfig& config,
                               const BackgroundTask* background) {
  KFLEX_CHECK(config.server_threads > 0);
  KFLEX_CHECK(config.clients > 0);

  Rng rng(config.seed);
  ZipfGenerator zipf(config.key_space, kZipfTheta);

  std::priority_queue<SendEvent, std::vector<SendEvent>, std::greater<SendEvent>> events;
  std::vector<uint64_t> busy_until(static_cast<size_t>(config.server_threads), 0);

  // Stagger the initial sends slightly so queues do not start in lockstep.
  for (int c = 0; c < config.clients; c++) {
    events.push(SendEvent{rng.NextBounded(kClosedLoopRttNs + 1), c});
  }

  ClosedLoopResult result;
  uint64_t completed = 0;
  uint64_t warmup_count = config.total_requests * kWarmupPct / 100;
  uint64_t measure_start_ns = 0;
  uint64_t last_completion_ns = 0;
  uint64_t next_background_ns =
      background != nullptr && background->interval_ns > 0 ? background->interval_ns : ~0ULL;

  while (completed < config.total_requests && !events.empty()) {
    SendEvent ev = events.top();
    events.pop();

    // Fire any due background task (it blocks every server thread: the
    // collector holds the same lock the fast path needs).
    while (ev.time_ns >= next_background_ns) {
      uint64_t blocked = background->run(next_background_ns);
      for (uint64_t& busy : busy_until) {
        busy = std::max(busy, next_background_ns) + blocked;
      }
      next_background_ns += background->interval_ns;
    }

    uint64_t key = zipf.Next(rng);
    KvOp op;
    if (config.op_for_request) {
      op = config.op_for_request(completed, key);
    } else {
      op = rng.NextDouble() < config.get_fraction ? KvOp::kGet : KvOp::kSet;
    }

    int thread = ev.client % config.server_threads;
    uint64_t arrival = ev.time_ns + kClosedLoopRttNs / 2;
    uint64_t start = std::max(arrival, busy_until[static_cast<size_t>(thread)]);
    uint64_t service = model.ServeNs(thread, op, key);
    uint64_t done = start + service;
    busy_until[static_cast<size_t>(thread)] = done;
    uint64_t response_at = done + kClosedLoopRttNs / 2;

    completed++;
    // Coarse progress beacon (every 2^14 completions) so long closed-loop
    // sims are observable without per-request trace volume.
    if ((completed & 0x3fff) == 0) {
      KFLEX_TRACE(ObsEvent::kSimProgress, completed, events.size());
    }
    if (completed == warmup_count) {
      measure_start_ns = done;
      result.latency.Reset();
    }
    result.latency.Record(response_at - ev.time_ns);
    last_completion_ns = std::max(last_completion_ns, done);

    events.push(SendEvent{response_at, ev.client});
  }

  result.measured_requests = completed - warmup_count;
  result.simulated_ns = last_completion_ns > measure_start_ns
                            ? last_completion_ns - measure_start_ns
                            : 1;
  result.throughput_mops = static_cast<double>(result.measured_requests) * 1000.0 /
                           static_cast<double>(result.simulated_ns);
  return result;
}

}  // namespace kflex
