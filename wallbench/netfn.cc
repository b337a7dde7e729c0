// netfn_sharded: L4 load balancer, DDoS guard and trace aggregator in a
// 4:2:2 mix over a 2-shard ShardedRuntime fed by one generator thread.
// These programs are short, map-heavy and write-heavy, so dispatch and
// per-invoke entry dominate. Phase A, a closed loop with a fixed in-flight
// window, gives the end-to-end throughput and latency. Phase B, an open
// loop at a fixed rate well below phase A's saturation with latency timed
// from each request's due time, runs in the traced cell only: between
// parked and woken workers its tail follows the host's wake-up latency,
// which moved run medians of p99 from 25 to 130 us on a shared host.
//
// Stealing reorders requests, so every output check holds for any order:
// LB flows keep one backend, guard outcomes add up to the packets sent,
// aggregator counts and sums equal what was sent.
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "src/apps/netfn/netfn.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/kernel/packet.h"
#include "src/shard/shard.h"
#include "src/uapi/user_heap.h"
#include "wallbench/wallbench.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define WALLBENCH_PAUSE() _mm_pause()
#else
#define WALLBENCH_PAUSE() std::this_thread::yield()
#endif

namespace wallbench {

using namespace kflex;

namespace {

constexpr int kShards = 2;
constexpr uint32_t kBackends = 8;
constexpr int kLb = 0, kGuard = 1, kAgg = 2;
const char* const kTenantNames[] = {"lb", "guard", "traceagg"};
constexpr uint8_t kNoBackend = 0xFF;

struct NetfnShape {
  uint32_t flows;
  size_t descs;       // request-descriptor stream length (power of two)
  size_t window;      // phase A requests in flight
  size_t ring;        // phase B request slots (power of two)
  double rate_rps;    // phase B offered rate
  size_t chunk;       // phase A completions per throughput/latency sample
  int rounds;
};

NetfnShape ShapeFor(const RunConfig& cfg) {
  if (cfg.smoke) {
    return NetfnShape{2048, 1 << 12, 64, 1 << 10, 50000, 4096, 2};
  }
  return NetfnShape{50000, 1 << 20, 128, 1 << 13, 200000, 1 << 15, 3};
}

// One generated request: the program only ever sees the ctx built from it.
struct Desc {
  uint8_t tenant = 0;
  uint8_t kind = 0;    // traceagg event kind; guard: 1 = TCP
  uint32_t flow = 0;   // LB / guard flow index
  uint32_t value = 0;  // traceagg sample
};

struct FlowTuple {
  uint32_t src_ip;
  uint16_t src_port;
  uint64_t hash;  // RSS steering hash
};

struct alignas(64) Slot {
  std::atomic<bool> done{true};
  bool busy = false;
  uint32_t desc = 0;
  uint64_t due_ns = 0;
  uint64_t build_ns[2] = {0, 0};
  uint64_t submit_ns[2] = {0, 0};
  uint64_t done_ns = 0;
  InvokeResult result;
  KvPacket pkt;
  DsCtx agg;
};

void OnDone(const InvokeResult& res, void* user) {
  Slot* s = static_cast<Slot*>(user);
  s->result = res;
  s->done_ns = NowNs();
  s->done.store(true, std::memory_order_release);
}

void WaitDone(const Slot& s) {
  while (!s.done.load(std::memory_order_acquire)) {
    WALLBENCH_PAUSE();
  }
}

uint64_t ReadHeapWord(Runtime& rt, ExtensionId id, uint64_t off) {
  UserHeapView view(rt.heap(id));
  uint64_t v = 0;
  view.Load(view.AddrOf(off), v);
  return v;
}

// Per-request generator lateness and sojourn (submit -> completion, with
// the request's tenant) of phase B, for the generator and shard-wait ledger.
struct PhaseBProbes {
  std::vector<uint32_t> late_ns;
  std::vector<std::pair<uint8_t, uint32_t>> sojourns;
};

// Gives the generator thread and each shard worker a CPU of its own, as an
// operator binds dispatch threads to cores. Left to the scheduler, two
// workers that sleep and wake thousands of times a second get stacked on
// one CPU in some runs and not in others, and the latency tail then
// measures scheduler slices instead of the dispatcher. Workers are found as
// the threads that appeared in /proc/self/task while the dispatcher was
// built. The generator's original mask is restored on destruction, after
// the owner has joined the workers. With fewer than kShards + 1 CPUs
// nothing is pinned.
class CpuPlacement {
 public:
  CpuPlacement() {
    CPU_ZERO(&orig_);
    if (sched_getaffinity(0, sizeof(orig_), &orig_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &orig_)) {
        cpus_.push_back(c);
      }
    }
    before_ = Tasks();
  }
  // Call once the dispatcher's workers exist.
  void Place() {
    if (cpus_.size() < static_cast<size_t>(kShards) + 1) {
      return;
    }
    std::vector<pid_t> workers;
    for (pid_t tid : Tasks()) {
      if (std::find(before_.begin(), before_.end(), tid) == before_.end()) {
        workers.push_back(tid);
      }
    }
    // Generator on the last CPU, workers on the ones below it; the first CPU,
    // which takes most device interrupts, is used last.
    const size_t n = cpus_.size();
    for (size_t i = 0; i < workers.size(); i++) {
      PinTo(workers[i], cpus_[n - 2 - i % (n - 1)]);
    }
    active_ = PinTo(0, cpus_[n - 1]);
  }
  ~CpuPlacement() {
    if (active_) {
      sched_setaffinity(0, sizeof(orig_), &orig_);
    }
  }
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

 private:
  static std::vector<pid_t> Tasks() {
    std::vector<pid_t> tids;
    if (DIR* d = opendir("/proc/self/task")) {
      while (dirent* e = readdir(d)) {
        if (e->d_name[0] != '.') {
          tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
        }
      }
      closedir(d);
    }
    return tids;
  }
  static bool PinTo(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(tid, sizeof(one), &one) == 0;
  }

  bool active_ = false;
  cpu_set_t orig_;
  std::vector<int> cpus_;
  std::vector<pid_t> before_;
};

class Netfn {
 public:
  Netfn(const RunConfig& cfg, const NetfnShape& shape, Report& r)
      : shape_(shape), r_(r) {
    ShardedRuntimeOptions so;
    so.num_shards = kShards;
    so.steal = true;
    so.runtime.num_cpus = kShards;
    sharded_ = std::make_unique<ShardedRuntime>(so);
    placement_.Place();
    MakeInputs(cfg);
    ok_ = LoadTenants();
  }

  bool ok() const { return ok_; }
  ShardedRuntime& sharded() { return *sharded_; }

  // Phase A: closed loop, `window` requests in flight, until the deadline;
  // one throughput and latency sample per `chunk` completions goes to `e2e`
  // (a request is due when the client issues it). With
  // `tracer`, every other chunk records spans (until the tracer's quota is
  // used up) and its sample goes to `traced` instead, so traced and
  // untraced chunks interleave and drift hits both alike.
  void ClosedLoop(uint64_t deadline_ns, E2e* e2e, Tracer* tracer, E2e* traced) {
    std::vector<Slot> slots(shape_.window);
    LatencyChunks lat{shape_.chunk, e2e, nullptr, {}};
    uint64_t chunk_start = NowNs();
    size_t in_chunk = 0;
    uint64_t chunk = 0;
    Tracer* active = nullptr;
    for (size_t i = 0; NowNs() < deadline_ns || i % slots.size() != 0; i++) {
      Slot& s = slots[i % slots.size()];
      if (s.busy) {
        WaitDone(s);
        Harvest(s, &lat, active);
        if (++in_chunk == shape_.chunk) {
          uint64_t now = NowNs();
          E2e* sink = active != nullptr ? traced : e2e;
          if (sink != nullptr) {
            sink->chunk_ops_per_s.push_back(static_cast<double>(in_chunk) * 1e9 /
                                            static_cast<double>(now - chunk_start));
          }
          chunk_start = now;
          in_chunk = 0;
          active = tracer != nullptr && ++chunk % 2 == 1 ? tracer : nullptr;
          if (active != nullptr && active->full()) {
            active = nullptr;
            break;
          }
        }
      }
      s.due_ns = NowNs();
      Send(s);
    }
    Drain(slots, &lat, active);
  }

  // Phase B: open loop at the fixed rate, recording how late each request
  // was sent and its sojourn into `probes`.
  void OpenLoop(uint64_t deadline_ns, Tracer* tracer, PhaseBProbes* probes) {
    std::vector<Slot> slots(shape_.ring);
    LatencyChunks lat{shape_.chunk, nullptr, probes, {}};
    const double period_ns = 1e9 / shape_.rate_rps;
    const uint64_t start = NowNs() + 100000;
    for (uint64_t k = 0;; k++) {
      uint64_t due = start + static_cast<uint64_t>(static_cast<double>(k) * period_ns);
      if (due >= deadline_ns || (tracer != nullptr && tracer->full())) {
        break;
      }
      uint64_t now = NowNs();
      while (now < due) {
        WALLBENCH_PAUSE();
        now = NowNs();
      }
      probes->late_ns.push_back(static_cast<uint32_t>(now - due));
      Slot& s = slots[k & (slots.size() - 1)];
      if (s.busy) {
        WaitDone(s);
        Harvest(s, &lat, tracer);
      }
      s.due_ns = due;
      Send(s);
    }
    Drain(slots, &lat, tracer);
  }

  // Order-independent output checks over everything sent so far. Call with
  // the dispatcher drained.
  void Check() {
    sharded_->Flush();
    Runtime& rt = sharded_->runtime();
    uint64_t pass = 0, syn = 0, rate = 0, hits = 0, misses = 0;
    uint64_t agg_count[4] = {0, 0, 0, 0}, agg_sum[4] = {0, 0, 0, 0};
    for (ExtensionId id : sharded_->placement(ids_[kGuard]).replicas) {
      pass += ReadHeapWord(rt, id, GuardLayout::kPassOff);
      syn += ReadHeapWord(rt, id, GuardLayout::kSynDropOff);
      rate += ReadHeapWord(rt, id, GuardLayout::kRateDropOff);
    }
    for (ExtensionId id : sharded_->placement(ids_[kLb]).replicas) {
      hits += ReadHeapWord(rt, id, LbLayout::kAffinityHitsOff);
      misses += ReadHeapWord(rt, id, LbLayout::kAffinityMissOff);
    }
    for (ExtensionId id : sharded_->placement(ids_[kAgg]).replicas) {
      for (uint32_t k = 0; k < 4; k++) {
        uint64_t base = TraceAggLayout::kBaseOff + k * TraceAggLayout::kKindStride;
        agg_count[k] += ReadHeapWord(rt, id, base + TraceAggLayout::kCountOff);
        agg_sum[k] += ReadHeapWord(rt, id, base + TraceAggLayout::kSumOff);
      }
    }
    r_.Check(pass + syn + rate == served_[kGuard],
             "netfn: guard pass + syn-drop + rate-drop != guard packets served");
    r_.Check(syn + rate == guard_drop_verdicts_,
             "netfn: guard drop counters != XDP_DROP verdicts");
    r_.Check(hits + misses == served_[kLb],
             "netfn: LB affinity hits + misses != LB packets served");
    for (uint32_t k = 0; k < 4; k++) {
      r_.Check(agg_count[k] == sent_count_[k] && agg_sum[k] == sent_sum_[k],
               "netfn: traceagg count/sum differs from what was sent");
    }
    for (int t = 0; t < 3; t++) {
      for (ExtensionId id : sharded_->placement(ids_[t]).replicas) {
        InvariantReport inv = rt.SweepInvariants(id);
        r_.Check(inv.ok(), std::string("netfn: SweepInvariants ") + kTenantNames[t] +
                               ": " + inv.ToString());
      }
    }
    guard_drop_ratio_ =
        served_[kGuard] == 0 ? 0.0
                             : static_cast<double>(syn + rate) /
                                   static_cast<double>(served_[kGuard]);
    affinity_hit_ratio_ = hits + misses == 0 ? 0.0
                                              : static_cast<double>(hits) /
                                                    static_cast<double>(hits + misses);
  }

  // Mean ns of direct Runtime::Invoke per tenant on shard 0's replica, over
  // freshly built requests. Mutates extension state: run after Check().
  std::vector<double> ReplayInvokes(size_t per_tenant) {
    sharded_->Flush();
    std::vector<double> mean(3, 0);
    Slot s;
    for (int t = 0; t < 3; t++) {
      ExtensionId id = sharded_->ReplicaFor(ids_[t], 0);
      uint64_t total = 0, n = 0;
      for (size_t i = 0; n < per_tenant && i < descs_.size() * 4; i++) {
        const Desc& d = descs_[i & (descs_.size() - 1)];
        if (d.tenant != t) {
          continue;
        }
        uint32_t size = Build(s, d);
        uint8_t* ctx = t == kAgg ? s.agg.bytes() : s.pkt.data();
        uint64_t t0 = NowNs();
        InvokeResult res = sharded_->runtime().Invoke(id, 0, ctx, size);
        total += NowNs() - t0;
        n++;
        r_.Check(res.attached && !res.cancelled, "netfn: replayed invoke failed");
      }
      mean[static_cast<size_t>(t)] = n == 0 ? 0.0 : static_cast<double>(total) / n;
    }
    return mean;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double guard_drop_ratio() const { return guard_drop_ratio_; }
  double affinity_hit_ratio() const { return affinity_hit_ratio_; }
  uint64_t inline_helper_sites() const {
    uint64_t n = 0;
    for (int t = 0; t < 3; t++) {
      n += sharded_->runtime()
               .engine_info(sharded_->ReplicaFor(ids_[t], 0))
               .stats.inline_helper_sites;
    }
    return n;
  }

 private:
  struct LatencyChunks {
    size_t chunk;
    E2e* e2e;
    PhaseBProbes* probes;
    std::vector<uint32_t> lat;
    void Add(uint32_t ns) {
      lat.push_back(ns);
      if (lat.size() == chunk) {
        Flush();
      }
    }
    void Flush() {
      if (e2e != nullptr && !lat.empty()) {
        e2e->chunk_p50_us.push_back(Quantile(lat, 0.50) / 1000.0);
        e2e->chunk_p99_us.push_back(Quantile(lat, 0.99) / 1000.0);
      }
      lat.clear();
    }
  };

  void MakeInputs(const RunConfig& cfg) {
    flows_.resize(shape_.flows);
    for (uint32_t f = 0; f < shape_.flows; f++) {
      uint64_t h = Mix64(cfg.seed * 0x51ed27ULL + f + 1);
      flows_[f].src_ip = 0x0A000000u | static_cast<uint32_t>(h & 0xFFFFFF);
      flows_[f].src_port = static_cast<uint16_t>(1024 + (h >> 24) % 60000);
      flows_[f].hash = Mix64(h ^ 0x10adba1aULL);
    }
    backend_of_.assign(shape_.flows, kNoBackend);
    Rng rng(cfg.seed ^ 0x6e6574666eULL);
    ZipfGenerator zipf(shape_.flows, 0.99);
    descs_.resize(shape_.descs);
    for (Desc& d : descs_) {
      uint64_t lane = rng.NextBounded(8);
      d.tenant = static_cast<uint8_t>(lane < 4 ? kLb : (lane < 6 ? kGuard : kAgg));
      d.flow = static_cast<uint32_t>(zipf.Next(rng));
      d.kind = static_cast<uint8_t>(d.tenant == kGuard ? (rng.NextBounded(4) == 0 ? 1 : 0)
                                                       : rng.NextBounded(4));
      d.value = static_cast<uint32_t>(100 + rng.NextBounded(4096));
    }
  }

  bool LoadTenants() {
    bool ok = true;
    auto check = [&](bool cond, const std::string& what) {
      r_.Check(cond, what);
      ok = ok && cond;
    };
    Runtime& rt = sharded_->runtime();
    auto lb = BuildL4LoadBalancer(rt.maps(), kBackends, 1 << 16);
    GuardConfig gc;
    gc.syn_threshold = 600;
    auto guard = BuildDdosGuard(gc);
    auto agg = BuildTraceAggregator();
    check(lb.ok() && guard.ok() && agg.ok(), "netfn: program build failed");
    if (!ok) {
      return false;
    }
    const Program* progs[3] = {&lb->program, &*guard, &*agg};
    const uint64_t statics[3] = {lb->static_bytes, GuardLayout::kStaticBytes,
                                 TraceAggLayout::kStaticBytes};
    for (int t = 0; t < 3; t++) {
      auto id = sharded_->Load(*progs[t], BenchLoadOptions(statics[t]));
      check(id.ok(), std::string("netfn: load failed: ") + kTenantNames[t]);
      if (!id.ok()) {
        return false;
      }
      ids_[t] = *id;
      const ShardPlacement& place = sharded_->placement(*id);
      check(place.replicated, "netfn: tenant not replicated across shards");
      for (ExtensionId rid : place.replicas) {
        check(rt.engine_info(rid).used == kEngine,
              std::string("netfn: not on the benchmark engine: ") + kTenantNames[t]);
      }
    }
    for (uint32_t b = 0; b < kBackends; b++) {
      check(SetLbBackendHealth(rt.maps(), *lb, b, true).ok(), "netfn: LB health");
    }
    std::vector<uint64_t> ring = BuildLbRing(std::vector<uint8_t>(kBackends, 1));
    for (ExtensionId rid : sharded_->placement(ids_[kLb]).replicas) {
      check(InstallLbRing(rt.heap(rid), ring), "netfn: LB ring install failed");
    }
    return ok;
  }

  // Builds the ctx for `d` into the slot; returns the ctx size.
  uint32_t Build(Slot& s, const Desc& d) {
    if (d.tenant == kAgg) {
      s.agg = DsCtx();
      s.agg.op = d.kind;
      s.agg.value = d.value;
      return kDsCtxSize;
    }
    const FlowTuple& f = flows_[d.flow];
    s.pkt = KvPacket();
    if (d.tenant == kLb) {
      s.pkt.SetTuple(f.src_ip, f.src_port, 443);
      s.pkt.SetProto(kProtoUdp);
    } else {
      s.pkt.SetTuple(f.src_ip, 4242, 443);
      s.pkt.SetProto(d.kind == 1 ? kProtoTcp : kProtoUdp);
      s.pkt.SetZScore(seq_ * 800);  // virtual arrival time for token refill
    }
    return kCtxSize;
  }

  void Send(Slot& s) {
    s.desc = static_cast<uint32_t>(seq_ & (descs_.size() - 1));
    const Desc& d = descs_[s.desc];
    s.build_ns[0] = NowNs();
    uint32_t size = Build(s, d);
    s.build_ns[1] = NowNs();
    ShardRequest req;
    req.ext = ids_[d.tenant];
    req.ctx = d.tenant == kAgg ? s.agg.bytes() : s.pkt.data();
    req.ctx_size = size;
    req.flow_hash = d.tenant == kAgg ? Mix64(seq_ ^ 0xa99ULL) : flows_[d.flow].hash;
    req.on_done = OnDone;
    req.user = &s;
    s.done.store(false, std::memory_order_relaxed);
    s.submit_ns[0] = NowNs();
    bool ok = sharded_->Submit(req);
    s.submit_ns[1] = NowNs();
    seq_++;
    attempted_++;
    if (!ok) {
      failed_++;  // dropped at ingress
      s.busy = false;
      s.done.store(true, std::memory_order_relaxed);
      return;
    }
    if (d.tenant == kAgg) {
      sent_count_[d.kind & 3]++;
      sent_sum_[d.kind & 3] += d.value;
    }
    s.busy = true;
  }

  void Harvest(Slot& s, LatencyChunks* lat, Tracer* tracer) {
    s.busy = false;
    const Desc& d = descs_[s.desc];
    const InvokeResult& res = s.result;
    if (!res.attached || res.cancelled) {
      failed_++;  // detached or cancelled
      r_.Check(false, "netfn: request detached or cancelled");
      return;
    }
    served_[d.tenant]++;
    if (d.tenant == kLb) {
      uint64_t backend = 0;
      std::memcpy(&backend, s.pkt.data() + kOffResp, 8);
      bool ok = res.verdict == kXdpTx && backend < kBackends;
      r_.Check(ok, "netfn: LB packet not XDP_TX to a valid backend");
      if (ok) {
        uint8_t& seen = backend_of_[d.flow];
        if (seen == kNoBackend) {
          seen = static_cast<uint8_t>(backend);
        }
        r_.Check(seen == backend, "netfn: LB flow moved to another backend");
      }
    } else if (d.tenant == kGuard) {
      r_.Check(res.verdict == kXdpPass || res.verdict == kXdpDrop,
               "netfn: guard verdict neither pass nor drop");
      guard_drop_verdicts_ += res.verdict == kXdpDrop ? 1 : 0;
    }
    if (lat != nullptr) {
      lat->Add(static_cast<uint32_t>(s.done_ns - s.due_ns));
      if (lat->probes != nullptr) {
        lat->probes->sojourns.emplace_back(d.tenant,
                                           static_cast<uint32_t>(s.done_ns - s.submit_ns[0]));
      }
    }
    if (tracer != nullptr) {
      const uint32_t names[4] = {tracer->Intern("netfn.request"), tracer->Intern("gen.build"),
                                 tracer->Intern("shard.sojourn"),
                                 tracer->Intern("shard.submit")};
      uint64_t req = tracer->NextReq();
      int32_t root = tracer->Add(names[0], req, -1, s.due_ns, s.done_ns);
      tracer->Add(names[1], req, root, s.build_ns[0], s.build_ns[1]);
      int32_t soj = tracer->Add(names[2], req, root, s.submit_ns[0], s.done_ns);
      tracer->Add(names[3], req, soj, s.submit_ns[0], s.submit_ns[1]);
    }
  }

  void Drain(std::vector<Slot>& slots, LatencyChunks* lat, Tracer* tracer) {
    for (Slot& s : slots) {
      if (s.busy) {
        WaitDone(s);
        Harvest(s, lat, tracer);
      }
    }
    if (lat != nullptr) {
      lat->Flush();
    }
  }

  NetfnShape shape_;
  Report& r_;
  bool ok_ = false;
  CpuPlacement placement_;  // before sharded_: outlives the workers
  std::unique_ptr<ShardedRuntime> sharded_;
  ShardExtId ids_[3] = {0, 0, 0};
  std::vector<FlowTuple> flows_;
  std::vector<Desc> descs_;
  std::vector<uint8_t> backend_of_;
  uint64_t seq_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t served_[3] = {0, 0, 0};
  uint64_t guard_drop_verdicts_ = 0;
  uint64_t sent_count_[4] = {0, 0, 0, 0};
  uint64_t sent_sum_[4] = {0, 0, 0, 0};
  double guard_drop_ratio_ = 0;
  double affinity_hit_ratio_ = 0;
};

}  // namespace

void RunNetfnSharded(const RunConfig& cfg, Report& r, Tracer* tracer, double share) {
  const NetfnShape shape = ShapeFor(cfg);
  if (tracer == nullptr) {
    E2e e2e;
    for (int round = 0; round < shape.rounds; round++) {
      uint64_t t0 = NowNs();
      Netfn n(cfg, shape, r);
      if (!n.ok()) {
        return;
      }
      e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      const double slice_ns = cfg.seconds / shape.rounds * 1e9;
      n.ClosedLoop(NowNs() + static_cast<uint64_t>(slice_ns), &e2e, nullptr, nullptr);
      n.Check();
      r.attempted += n.attempted();
      r.failed += n.failed();
    }
    e2e.Publish(r);
    return;
  }

  // Shorter throughput chunks: the span quota bounds the traced chunks.
  NetfnShape traced_shape = shape;
  traced_shape.chunk = shape.chunk / 4;
  Netfn n(cfg, traced_shape, r);
  if (!n.ok()) {
    return;
  }
  const double budget_ns = cfg.seconds * share * 1e9;
  // Tracing overhead on phase A: median chunk rate, untraced over traced.
  E2e plain, traced;
  const double quota = static_cast<double>(tracer->capacity()) * share;
  tracer->SetQuota(static_cast<size_t>(quota * 0.4));
  n.ClosedLoop(NowNs() + static_cast<uint64_t>(budget_ns * 0.5), &plain, tracer, &traced);
  if (!plain.chunk_ops_per_s.empty() && !traced.chunk_ops_per_s.empty()) {
    r.SetIfAbsent(kTraceRatio, Median(plain.chunk_ops_per_s) / Median(traced.chunk_ops_per_s),
                  "ratio");
  }
  PhaseBProbes probes;
  tracer->SetQuota(static_cast<size_t>(quota * 0.6));
  n.OpenLoop(NowNs() + static_cast<uint64_t>(budget_ns * 0.4), tracer, &probes);
  n.Check();
  r.attempted += n.attempted();
  r.failed += n.failed();

  std::vector<ShardStats> stats = n.sharded().SnapshotStats();
  uint64_t invoked = 0, stolen = 0, batches = 0, occupancy = 0, dropped = 0, enqueued = 0,
           max_invoked = 0;
  for (const ShardStats& s : stats) {
    invoked += s.invoked;
    stolen += s.stolen;
    batches += s.batches;
    occupancy += s.batch_occupancy_sum;
    dropped += s.dropped;
    enqueued += s.enqueued;
    max_invoked = std::max(max_invoked, s.invoked);
  }
  std::vector<double> invoke_ns = n.ReplayInvokes(cfg.smoke ? 200 : 5000);
  std::vector<uint32_t> wait_ns;
  for (const auto& [tenant, sojourn] : probes.sojourns) {
    double w = static_cast<double>(sojourn) - invoke_ns[tenant];
    wait_ns.push_back(static_cast<uint32_t>(std::max(0.0, w)));
  }
  std::vector<uint32_t> submit_ns = tracer->Durations("shard.submit");
  std::vector<uint32_t> build_ns = tracer->Durations("gen.build");
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  r.SetIfAbsent("shard.submit_ns", Quantile(submit_ns, 0.5), "ns");
  r.SetIfAbsent("shard.wait_us", Quantile(wait_ns, 0.5) / 1000.0, "us");
  r.SetIfAbsent("shard.batch_occupancy", ratio(occupancy, batches), "count");
  r.SetIfAbsent("shard.steal_ratio", ratio(stolen, invoked), "ratio");
  r.SetIfAbsent("shard.imbalance",
                ratio(max_invoked * stats.size(), std::max<uint64_t>(invoked, 1)), "ratio");
  r.SetIfAbsent("shard.drop_ratio", ratio(dropped, dropped + enqueued), "ratio");
  r.SetIfAbsent("gen.late_p99_us", Quantile(probes.late_ns, 0.99) / 1000.0, "us");
  r.SetIfAbsent("gen.build_ns", Quantile(build_ns, 0.5), "ns");
  r.SetIfAbsent("apps.lb_affinity_hit_ratio", n.affinity_hit_ratio(), "ratio");
  r.SetIfAbsent("apps.guard_drop_ratio", n.guard_drop_ratio(), "ratio");
  r.SetIfAbsent("jit.inline_helper_sites", static_cast<double>(n.inline_helper_sites()),
                "count");
  std::printf("ledger netfn: replayed invoke lb %.0f ns  guard %.0f ns  traceagg %.0f ns\n",
              invoke_ns[kLb], invoke_ns[kGuard], invoke_ns[kAgg]);
}

}  // namespace wallbench
