// Closed-loop load-generator simulation (the paper's testbed, §5): N clients
// each keep one request outstanding against S server threads; requests carry
// Zipfian keys (s = 0.99) and a configurable GET:SET mix. Every simulated
// request is *actually executed* on the system under test (the extension
// runs through the verifier/Kie/VM pipeline; baselines run their real data
// planes), and its measured compute is combined with the kernel-path cost
// model to produce a service time. The first 10% of samples are discarded as
// warm-up, as in §5.
#ifndef SRC_SIM_CLOSEDLOOP_H_
#define SRC_SIM_CLOSEDLOOP_H_

#include <cstdint>
#include <functional>

#include "src/base/histogram.h"
#include "src/kernel/packet.h"

namespace kflex {

// A system under test: executes one request and returns its service time in
// simulated nanoseconds on the given server thread.
class ServiceModel {
 public:
  virtual ~ServiceModel() = default;
  virtual uint64_t ServeNs(int cpu, KvOp op, uint64_t key) = 0;
};

// An optional background activity (e.g., the co-design experiment's 1 Hz
// user-space garbage collector, §5.3). Invoked every `interval_ns` of
// simulated time; returns how long it blocked the server (lock held).
struct BackgroundTask {
  uint64_t interval_ns = 0;
  std::function<uint64_t(uint64_t now_ns)> run;
};

// Client <-> server network round trip of every simulated request.
inline constexpr uint64_t kClosedLoopRttNs = 10'000;

struct ClosedLoopConfig {
  int server_threads = 8;
  int clients = 1024;  // paper: 64 threads x 16 clients
  uint64_t total_requests = 200'000;
  double get_fraction = 0.9;
  uint64_t key_space = 10'000;
  uint64_t seed = 42;
  // Request mix override: when nonnull, returns the op for request i.
  std::function<KvOp(uint64_t i, uint64_t key)> op_for_request;
};

struct ClosedLoopResult {
  double throughput_mops = 0;  // million requests / simulated second
  Histogram latency;           // client-observed latency (ns)
  uint64_t simulated_ns = 0;
  uint64_t measured_requests = 0;
};

ClosedLoopResult RunClosedLoop(ServiceModel& model, const ClosedLoopConfig& config,
                               const BackgroundTask* background = nullptr);

}  // namespace kflex

#endif  // SRC_SIM_CLOSEDLOOP_H_
