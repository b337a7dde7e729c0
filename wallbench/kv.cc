// kv_memcached: the paper's headline app (§5.1) through KflexMemcachedDriver
// on a MockKernel. Closed loop, one client on one thread, socket check on
// (Listing 1's acquire/release runs on every request), GET:SET 90:10 over
// Zipf(0.99)-popular prefilled 32-byte keys. A value is a fixed function of
// its key, so every GET must return exactly that value whatever the order.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "src/apps/memcached.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/ebpf/assembler.h"
#include "src/kernel/kernel.h"
#include "wallbench/wallbench.h"

namespace wallbench {

using namespace kflex;

namespace {

constexpr uint32_t kSetBit = 1u << 31;
// Where KflexMemcachedDriver addresses its requests; the ledger's direct
// invokes must send the very packets the driver sends (checked: a wrong
// address fails the socket lookup and the GET is not served).
constexpr uint32_t kServerIp = 0x0A000001;
constexpr uint16_t kServerPort = 11211;

struct KvShape {
  uint64_t keys;
  size_t stream;  // power of two
  size_t chunk;   // requests per latency/throughput sample
  int rounds;     // fresh set-ups per run
};

KvShape ShapeFor(const RunConfig& cfg) {
  if (cfg.smoke) {
    return KvShape{2000, 1 << 12, 1 << 10, 2};
  }
  return KvShape{100000, 1 << 20, 1 << 15, 3};
}

// The value stored under a key: 8..64 printable bytes derived from the id.
std::string ValueFor(uint64_t key_id) {
  uint64_t h = Mix64(key_id ^ 0x76616c7565ULL);
  std::string v(8 + key_id % 57, '\0');
  for (size_t i = 0; i < v.size(); i++) {
    v[i] = static_cast<char>('!' + (Mix64(h + i) % 94));
  }
  return v;
}

struct KvSetup {
  std::unique_ptr<MockKernel> kernel;
  std::optional<KflexMemcachedDriver> driver;
  std::vector<uint64_t> key_ids;    // by popularity rank
  std::vector<std::string> values;  // by rank
  std::vector<uint32_t> stream;     // rank | kSetBit
};

// Key ids, values and the request stream depend only on the seed.
void MakeInputs(const RunConfig& cfg, const KvShape& shape, KvSetup& s) {
  s.key_ids.resize(shape.keys);
  s.values.resize(shape.keys);
  for (uint64_t rank = 0; rank < shape.keys; rank++) {
    s.key_ids[rank] = Mix64(cfg.seed * 0x9E3779B97F4A7C15ULL + rank + 1);
    s.values[rank] = ValueFor(s.key_ids[rank]);
  }
  Rng rng(cfg.seed ^ 0x6b76ULL);
  ZipfGenerator zipf(shape.keys, 0.99);
  s.stream.resize(shape.stream);
  for (uint32_t& e : s.stream) {
    uint32_t rank = static_cast<uint32_t>(zipf.Next(rng));
    e = rank | (rng.NextBounded(10) == 0 ? kSetBit : 0);
  }
}

// Loads the extension into a fresh kernel and prefills every key.
bool LoadAndPrefill(KvSetup& s, const KieOptions& kie, Report& r) {
  s.kernel = std::make_unique<MockKernel>(RuntimeOptions{1});
  MemcachedBuildOptions mo;
  mo.socket_check = true;
  auto driver = KflexMemcachedDriver::Create(*s.kernel, mo, kie, BenchEngine());
  r.Check(driver.ok(), "kv: driver load failed: " + driver.status().ToString());
  if (!driver.ok()) {
    return false;
  }
  EngineInfo info = s.kernel->runtime().engine_info(driver->id());
  r.Check(info.used == kEngine, "kv: memcached not on the benchmark engine: " +
                                    info.fallback_reason);
  s.driver.emplace(std::move(driver).value());
  for (size_t rank = 0; rank < s.key_ids.size(); rank++) {
    auto res = s.driver->Set(0, s.key_ids[rank], s.values[rank]);
    r.Check(res.served, "kv: prefill SET not served");
    if (!res.served) {
      return false;
    }
  }
  return true;
}

struct KvTally {
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t not_served = 0;
};

// Per-request cost of untraced and traced chunks, for the tracing overhead.
struct ChunkCost {
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
};

// Drives the closed loop until `deadline_ns`. With `e2e`, every `chunk`
// requests yield one throughput and latency sample. With `tracer`, every
// other chunk records each request's spans (until the tracer's quota is
// used up) and `cost` gets every chunk's time per request, so traced and
// untraced chunks interleave and drift hits both alike.
void Drive(KvSetup& s, size_t chunk, uint64_t deadline_ns, E2e* e2e, Tracer* tracer,
           ChunkCost* cost, KvTally& t, Report& r) {
  const size_t mask = s.stream.size() - 1;
  std::vector<uint32_t> lat(chunk);
  uint32_t op_span = 0, get_span = 0, set_span = 0;
  if (tracer != nullptr) {
    op_span = tracer->Intern("kv.op");
    get_span = tracer->Intern("apps.kv_get");
    set_span = tracer->Intern("apps.kv_set");
  }
  size_t pos = 0;
  for (uint64_t c = 0; NowNs() < deadline_ns; c++) {
    const bool traced = tracer != nullptr && c % 2 == 1;
    if (traced && tracer->full()) {
      break;
    }
    uint64_t chunk_start = NowNs();
    for (size_t j = 0; j < chunk; j++) {
      uint32_t e = s.stream[pos++ & mask];
      uint32_t rank = e & ~kSetBit;
      bool is_set = (e & kSetBit) != 0;
      uint64_t t0 = NowNs();
      KflexMemcachedDriver::OpResult res =
          is_set ? s.driver->Set(0, s.key_ids[rank], s.values[rank])
                 : s.driver->Get(0, s.key_ids[rank]);
      uint64_t t1 = NowNs();
      lat[j] = static_cast<uint32_t>(t1 - t0);
      r.Check(res.served, "kv: request not served");
      if (!res.served) {
        t.not_served++;
      } else if (!is_set) {
        t.gets++;
        t.hits += res.hit ? 1 : 0;
        r.Check(res.hit && res.value == s.values[rank],
                "kv: GET of a prefilled key did not return its value");
      }
      if (traced) {
        uint64_t t2 = NowNs();
        uint64_t req = tracer->NextReq();
        int32_t root = tracer->Add(op_span, req, -1, t0, t2);
        tracer->Add(is_set ? set_span : get_span, req, root, t0, t1);
      }
      t.ops++;
    }
    uint64_t chunk_end = NowNs();
    if (e2e != nullptr) {
      e2e->chunk_ops_per_s.push_back(static_cast<double>(chunk) * 1e9 /
                                     static_cast<double>(chunk_end - chunk_start));
      e2e->chunk_p50_us.push_back(Quantile(lat, 0.50) / 1000.0);
      e2e->chunk_p99_us.push_back(Quantile(lat, 0.99) / 1000.0);
    }
    if (cost != nullptr) {
      (traced ? cost->traced_ns : cost->plain_ns)
          .push_back(static_cast<double>(chunk_end - chunk_start) / static_cast<double>(chunk));
    }
  }
}

void FinalChecks(KvSetup& s, Report& r) {
  r.Check(s.kernel->Quiescent(), "kv: kernel not quiescent (leaked socket reference)");
  InvariantReport inv = s.kernel->runtime().SweepInvariants(s.driver->id());
  r.Check(inv.ok(), "kv: SweepInvariants: " + inv.ToString());
}

// The packet KflexMemcachedDriver delivers for one stream entry.
void BuildPacket(const KvSetup& s, uint32_t e, KvPacket& pkt) {
  uint32_t rank = e & ~kSetBit;
  auto key = MakeKey32(s.key_ids[rank]);
  pkt = KvPacket();
  if ((e & kSetBit) != 0) {
    pkt.SetOp(KvOp::kSet);
    pkt.SetProto(kProtoTcp);
    pkt.SetValue(s.values[rank]);
  } else {
    pkt.SetOp(KvOp::kGet);
    pkt.SetProto(kProtoUdp);
  }
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  pkt.SetTuple(kServerIp, 40000, kServerPort);
}

// Per-extension totals of the direct-invoke cells.
struct InvokeTally {
  uint64_t invokes = 0;
  uint64_t insns = 0;
  uint64_t instr_insns = 0;
  uint64_t cancelled = 0;
};

// One block of direct Runtime::Invoke calls on the request stream from
// `first`; returns mean ns per invoke. Each packet is built into the same
// (cache-hot) buffer outside the timed call. With `tally`, results are
// checked as the driver would check them.
double InvokeBlock(Runtime& rt, ExtensionId id, const KvSetup& s, size_t first, size_t n,
                   KvPacket& pkt, InvokeTally* tally, Report& r) {
  const size_t mask = s.stream.size() - 1;
  uint64_t total = 0;
  for (size_t i = 0; i < n; i++) {
    uint32_t e = s.stream[(first + i) & mask];
    BuildPacket(s, e, pkt);
    uint64_t t0 = NowNs();
    InvokeResult res = rt.Invoke(id, 0, pkt.data(), kCtxSize);
    total += NowNs() - t0;
    if (tally != nullptr) {
      tally->invokes++;
      tally->insns += res.insns;
      tally->instr_insns += res.instr_insns;
      tally->cancelled += res.cancelled ? 1 : 0;
      bool ok = res.attached && !res.cancelled && res.verdict == kXdpTx;
      if (ok && (e & kSetBit) == 0) {
        ok = pkt.resp_flag() == 1 && pkt.resp() == s.values[e & ~kSetBit];
      }
      r.Check(ok, "kv: direct invoke did not serve the request correctly");
    }
  }
  return static_cast<double>(total) / static_cast<double>(n);
}

// Ledger cells on the same request stream: KFlex (SFI on) vs KMod (SFI and
// cancellation off) through Runtime::Invoke, plus an empty program for the
// fixed cost of entering the runtime. Blocks alternate so drift hits all
// three alike.
void InvokeLedger(KvSetup& kflex_setup, const RunConfig& cfg, uint64_t deadline_ns,
                  Tracer* tracer, Report& r) {
  KvSetup kmod;
  kmod.key_ids = kflex_setup.key_ids;
  kmod.values = kflex_setup.values;
  kmod.stream = kflex_setup.stream;
  KieOptions kmod_kie;
  kmod_kie.sfi = false;
  kmod_kie.cancellation = false;
  if (!LoadAndPrefill(kmod, kmod_kie, r)) {
    return;
  }
  Runtime& rt = kflex_setup.kernel->runtime();
  Assembler a;
  a.MovImm(R0, static_cast<int32_t>(kXdpPass));
  a.Exit();
  auto null_prog = a.Finish("wallbench_null", Hook::kXdp, ExtensionMode::kKflex);
  auto null_id = null_prog.ok() ? rt.Load(*null_prog, BenchLoadOptions())
                                : StatusOr<ExtensionId>(null_prog.status());
  r.Check(null_id.ok(), "kv: empty program did not load");
  if (!null_id.ok()) {
    return;
  }

  KvPacket pkt;
  std::vector<double> kflex_ns, kmod_ns, null_ns;
  InvokeTally kflex_tally, kmod_tally;
  const size_t block = cfg.smoke ? 256 : 2048;
  const uint32_t cell_span = tracer->Intern("ledger.invoke_block");
  for (size_t b = 0; (b < 4 || NowNs() < deadline_ns) && b < 4096; b++) {
    size_t first = b * block;
    uint64_t t0 = NowNs();
    kflex_ns.push_back(InvokeBlock(rt, kflex_setup.driver->id(), kflex_setup, first, block,
                                   pkt, &kflex_tally, r));
    kmod_ns.push_back(InvokeBlock(kmod.kernel->runtime(), kmod.driver->id(), kmod, first,
                                  block, pkt, &kmod_tally, r));
    null_ns.push_back(InvokeBlock(rt, *null_id, kflex_setup, first, block, pkt, nullptr, r));
    tracer->Add(cell_span, tracer->NextReq(), -1, t0, NowNs());
  }
  r.attempted += kflex_tally.invokes + kmod_tally.invokes;
  r.failed += kflex_tally.cancelled + kmod_tally.cancelled;
  FinalChecks(kmod, r);

  const InstrumentedProgram& ip = rt.instrumented(kflex_setup.driver->id());
  EngineInfo info = rt.engine_info(kflex_setup.driver->id());
  const double n = static_cast<double>(kflex_tally.invokes);
  const double kflex_med = Median(kflex_ns), kmod_med = Median(kmod_ns);
  r.SetIfAbsent("runtime.invoke_ns", kflex_med, "ns");
  r.SetIfAbsent("runtime.null_invoke_ns", Median(null_ns), "ns");
  r.SetIfAbsent("kie.sfi_tax_ns", kflex_med - kmod_med, "ns");
  r.SetIfAbsent("runtime.insns_per_op", static_cast<double>(kflex_tally.insns) / n, "count");
  r.SetIfAbsent("kie.instr_insns_per_op", static_cast<double>(kflex_tally.instr_insns) / n,
                "count");
  // Every SANITIZE Kie materialized: pointer guards it could not elide plus
  // the never-elidable formation guards.
  r.SetIfAbsent("kie.guards_emitted",
                static_cast<double>(ip.stats.guards_emitted + ip.stats.formation_guards),
                "count");
  r.SetIfAbsent("jit.regs_spilled", static_cast<double>(info.stats.regs_spilled), "count");
  r.SetIfAbsent("runtime.cancel_ratio",
                static_cast<double>(kflex_tally.cancelled + kmod_tally.cancelled) /
                    static_cast<double>(kflex_tally.invokes + kmod_tally.invokes),
                "ratio");
  std::printf(
      "ledger kv: invoke kflex %.1f ns, kmod %.1f ns (KFlex overhead %.1f%%), empty %.1f ns; "
      "insns kflex %.1f kmod %.1f per op; %zu blocks of %zu\n",
      kflex_med, kmod_med, 100.0 * (kflex_med - kmod_med) / kmod_med, Median(null_ns),
      static_cast<double>(kflex_tally.insns) / n,
      static_cast<double>(kmod_tally.insns) / static_cast<double>(kmod_tally.invokes),
      kflex_ns.size(), block);
}

}  // namespace

void RunKvMemcached(const RunConfig& cfg, Report& r, Tracer* tracer, double share) {
  const KvShape shape = ShapeFor(cfg);
  if (tracer == nullptr) {
    // End-to-end: `rounds` fresh set-ups, each measured for an equal slice
    // of the run; latency and throughput are medians over all chunks.
    E2e e2e;
    KvTally t;
    for (int round = 0; round < shape.rounds; round++) {
      uint64_t t0 = NowNs();
      KvSetup s;
      MakeInputs(cfg, shape, s);
      if (!LoadAndPrefill(s, KieOptions{}, r)) {
        return;
      }
      e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      uint64_t deadline =
          NowNs() + static_cast<uint64_t>(cfg.seconds / shape.rounds * 1e9);
      Drive(s, shape.chunk, deadline, &e2e, nullptr, nullptr, t, r);
      FinalChecks(s, r);
    }
    r.attempted += t.ops;
    r.failed += t.not_served;
    e2e.Publish(r);
    return;
  }

  // Traced cell: traced and untraced chunks alternate, then the
  // direct-invoke ledger runs.
  KvSetup s;
  MakeInputs(cfg, shape, s);
  if (!LoadAndPrefill(s, KieOptions{}, r)) {
    return;
  }
  const double budget_ns = cfg.seconds * share * 1e9;
  KvTally t;
  ChunkCost cost;
  tracer->SetQuota(static_cast<size_t>(static_cast<double>(tracer->capacity()) * share));
  Drive(s, shape.chunk, NowNs() + static_cast<uint64_t>(budget_ns * 0.7), nullptr, tracer,
        &cost, t, r);
  r.attempted += t.ops;
  r.failed += t.not_served;
  if (!cost.plain_ns.empty() && !cost.traced_ns.empty()) {
    r.SetIfAbsent(kTraceRatio, Median(cost.traced_ns) / Median(cost.plain_ns), "ratio");
  }
  std::vector<uint32_t> get_ns = tracer->Durations("apps.kv_get");
  std::vector<uint32_t> set_ns = tracer->Durations("apps.kv_set");
  r.SetIfAbsent("apps.kv_get_us", Quantile(get_ns, 0.5) / 1000.0, "us");
  r.SetIfAbsent("apps.kv_set_us", Quantile(set_ns, 0.5) / 1000.0, "us");
  r.SetIfAbsent("apps.kv_hit_ratio",
                t.gets == 0 ? 0.0
                            : static_cast<double>(t.hits) / static_cast<double>(t.gets),
                "ratio");
  InvokeLedger(s, cfg, NowNs() + static_cast<uint64_t>(budget_ns * 0.3), tracer, r);
  FinalChecks(s, r);
}

}  // namespace wallbench
