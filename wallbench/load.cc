// load_catalog: Runtime::Load of the whole extension catalogue into a fresh
// Runtime per pass, on one thread. This is the only workload where the
// verifier, the optimizer, Kie and the JIT compiler do most of the work.
// The traced cell also runs the load pipeline stage by stage through each
// layer's public function, to time the stages apart.
#include <cstring>
#include <memory>

#include "src/apps/ds/ds.h"
#include "src/apps/memcached.h"
#include "src/apps/netfn/netfn.h"
#include "src/apps/redis.h"
#include "src/apps/tracer.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/kie/kie.h"
#include "src/verifier/concurrency.h"
#include "src/verifier/opt.h"
#include "src/verifier/verifier.h"
#include "wallbench/wallbench.h"

namespace wallbench {

using namespace kflex;

namespace {

struct Entry {
  Program program;
  uint64_t static_bytes = 0;
  int share_with = -1;  // catalogue index whose heap this program shares
};

struct MapIds {
  uint32_t lb_flow = 0, lb_health = 0, bmc = 0;
  bool operator==(const MapIds& o) const {
    return lb_flow == o.lb_flow && lb_health == o.lb_health && bmc == o.bmc;
  }
};

constexpr uint32_t kLbBackends = 8;

// Creates the kernel maps the catalogue's programs name, in a fixed order,
// so a fresh runtime hands out the ids the programs were built against.
StatusOr<MapIds> MakeMaps(MapRegistry& maps, LbBuild* lb_out) {
  auto lb = BuildL4LoadBalancer(maps, kLbBackends);
  if (!lb.ok()) {
    return lb.status();
  }
  auto bmc = maps.CreateHash(32, kBmcValueSize, 1 << 16);  // as BmcDriver::Create
  if (!bmc.ok()) {
    return bmc.status();
  }
  MapIds ids{lb->flow_map_id, lb->health_map_id, bmc->id};
  if (lb_out != nullptr) {
    *lb_out = std::move(lb).value();
  }
  return ids;
}

struct Catalog {
  std::vector<Entry> entries;
  MapIds maps;
  size_t lb_index = 0;
};

bool BuildCatalog(Catalog& c, Report& r) {
  Runtime scratch(RuntimeOptions{1});
  LbBuild lb;
  auto ids = MakeMaps(scratch.maps(), &lb);
  r.Check(ids.ok(), "load: catalogue maps");
  if (!ids.ok()) {
    return false;
  }
  c.maps = *ids;
  auto add = [&](Program p, uint64_t statics, int share = -1) {
    c.entries.push_back(Entry{std::move(p), statics, share});
  };
  add(BuildMemcachedExtension(), MemcachedLayout::kStaticBytes);
  add(BuildRedisExtension(), RedisLayout::kStaticBytes);
  using Builder = DsBuild (*)(DsOp, uint64_t);
  const Builder ds[] = {BuildLinkedList, BuildHashMap,        BuildRbTree,
                        BuildSkipList,   BuildCountMinSketch, BuildCountSketch};
  for (Builder b : ds) {
    int owner = static_cast<int>(c.entries.size());
    for (DsOp op : {DsOp::kUpdate, DsOp::kLookup, DsOp::kDelete}) {
      DsBuild build = b(op, kDsHeapSize);
      add(std::move(build.program), build.static_bytes, op == DsOp::kUpdate ? -1 : owner);
    }
  }
  c.lb_index = c.entries.size();
  add(std::move(lb.program), lb.static_bytes);
  auto guard = BuildDdosGuard(GuardConfig{});
  auto agg = BuildTraceAggregator();
  r.Check(guard.ok() && agg.ok(), "load: netfn builds");
  if (!guard.ok() || !agg.ok()) {
    return false;
  }
  add(std::move(guard).value(), GuardLayout::kStaticBytes);
  add(std::move(agg).value(), TraceAggLayout::kStaticBytes);
  add(BuildBmcProgram(c.maps.bmc), 0);
  add(BuildSyscallFilterExtension(), SyscallFilterLayout::kStaticBytes);
  add(BuildLatencyTracerExtension(), LatencyTracerLayout::kStaticBytes);
  return true;
}

LoadOptions OptionsFor(const Entry& e, const std::vector<ExtensionId>& ids) {
  LoadOptions lo = BenchLoadOptions(e.static_bytes);
  if (e.share_with >= 0) {
    lo.share_heap_with = ids[static_cast<size_t>(e.share_with)];
  }
  return lo;
}

// Loads the catalogue into a fresh runtime; returns false on any refused
// load. `lat_ns` gets one sample per Load call.
bool LoadPass(const Catalog& c, std::vector<uint32_t>* lat_ns, Tracer* tracer,
              uint64_t& refused, Report& r) {
  Runtime rt(RuntimeOptions{1});
  auto ids = MakeMaps(rt.maps(), nullptr);
  r.Check(ids.ok() && *ids == c.maps, "load: fresh runtime handed out other map ids");
  if (!ids.ok() || !(*ids == c.maps)) {
    return false;
  }
  std::vector<ExtensionId> loaded;
  uint32_t load_span = 0;
  uint64_t req = 0;
  int32_t root = -1;
  if (tracer != nullptr) {
    load_span = tracer->Intern("runtime.load");
    req = tracer->NextReq();
    uint64_t p0 = NowNs();
    root = tracer->Add(tracer->Intern("load.pass"), req, -1, p0, p0);
  }
  for (const Entry& e : c.entries) {
    LoadOptions lo = OptionsFor(e, loaded);
    uint64_t t0 = NowNs();
    auto id = rt.Load(e.program, lo);
    uint64_t t1 = NowNs();
    if (lat_ns != nullptr) {
      lat_ns->push_back(static_cast<uint32_t>(t1 - t0));
    }
    if (tracer != nullptr) {
      tracer->Add(load_span, req, root, t0, t1);
    }
    if (!id.ok()) {
      refused++;
      r.Check(false, "load: " + e.program.name + " refused: " + id.status().ToString());
      return false;
    }
    EngineInfo info = rt.engine_info(*id);
    r.Check(info.used == kEngine,
            "load: " + e.program.name + " fell back: " + info.fallback_reason);
    loaded.push_back(*id);
  }
  if (tracer != nullptr) {
    tracer->SetEnd(root, NowNs());
  }
  return true;
}

constexpr uint32_t kSmokeServerIp = 0x0A000001;
constexpr uint16_t kSmokeServerPort = 11211;
constexpr int kSmokeRequests = 16;

// Smoke request `i` for a catalogue program: SETs then GETs of a few keys
// from varying source ports (XDP, sk_skb), key/value records (tracepoint),
// syscall numbers (LSM).
uint32_t SmokeCtx(const Program& p, int i, std::vector<uint8_t>& ctx) {
  ctx.assign(kCtxSize, 0);
  const uint64_t key = static_cast<uint64_t>(i % 8) + 1;
  switch (p.hook) {
    case Hook::kXdp:
    case Hook::kSkSkb: {
      KvPacket pkt;
      bool set = i < kSmokeRequests / 2;
      pkt.SetOp(set ? KvOp::kSet : KvOp::kGet);
      pkt.SetProto(set ? kProtoTcp : kProtoUdp);
      pkt.SetTuple(kSmokeServerIp, static_cast<uint16_t>(40000 + i), kSmokeServerPort);
      auto k = MakeKey32(key);
      pkt.SetKey(std::string_view(reinterpret_cast<const char*>(k.data()), k.size()));
      if (set) {
        pkt.SetValue("smoke-value-" + std::to_string(key));
      }
      pkt.SetZScore(static_cast<uint64_t>(i) * 1000);
      std::memcpy(ctx.data(), pkt.data(), kCtxSize);
      break;
    }
    case Hook::kLsm: {
      uint64_t nr = 59 + static_cast<uint64_t>(i);
      std::memcpy(ctx.data(), &nr, 8);
      break;
    }
    case Hook::kTracepoint: {
      DsCtx d;
      d.op = static_cast<uint64_t>(i & 3);
      d.key = key;
      d.value = key * 7;
      std::memcpy(ctx.data(), d.bytes(), kDsCtxSize);
      break;
    }
  }
  return DefaultCtxSize(p.hook);
}

// One smoke invoke's outcome: the verdict and the ctx bytes afterwards.
struct SmokeOutcome {
  bool completed = false;
  int64_t verdict = 0;
  std::vector<uint8_t> ctx;
};

// Loads the catalogue into a fresh kernel (the memcached socket check needs
// a bound UDP socket to look up), installs the LB's ring and backend health,
// and sends every program its smoke requests, program by program in
// catalogue order. Empty on a refused load.
std::vector<SmokeOutcome> RunSmoke(const Catalog& c, ExecEngine engine, bool optimize,
                                   Report& r) {
  MockKernel kernel(RuntimeOptions{1});
  kernel.sockets().Bind(kSmokeServerIp, kSmokeServerPort, kProtoUdp);
  Runtime& rt = kernel.runtime();
  LbBuild lb;
  auto maps = MakeMaps(rt.maps(), &lb);
  r.Check(maps.ok() && *maps == c.maps, "load: smoke maps");
  std::vector<ExtensionId> ids;
  for (const Entry& e : c.entries) {
    LoadOptions lo = OptionsFor(e, ids);
    lo.engine = engine;
    lo.optimize = optimize;
    auto id = rt.Load(e.program, lo);
    r.Check(id.ok(), "load: smoke load of " + e.program.name);
    if (!id.ok()) {
      return {};
    }
    ids.push_back(*id);
  }
  for (uint32_t b = 0; b < kLbBackends; b++) {
    r.Check(SetLbBackendHealth(rt.maps(), lb, b, true).ok(), "load: smoke LB health");
  }
  r.Check(InstallLbRing(rt.heap(ids[c.lb_index]),
                        BuildLbRing(std::vector<uint8_t>(kLbBackends, 1))),
          "load: smoke LB ring");
  std::vector<SmokeOutcome> out;
  for (size_t i = 0; i < c.entries.size(); i++) {
    for (int req = 0; req < kSmokeRequests; req++) {
      SmokeOutcome o;
      uint32_t size = SmokeCtx(c.entries[i].program, req, o.ctx);
      InvokeResult res = rt.Invoke(ids[i], 0, o.ctx.data(), size);
      o.completed = res.attached && !res.cancelled;
      o.verdict = res.verdict;
      out.push_back(std::move(o));
    }
  }
  return out;
}

// Every catalogue program must match the reference interpreter (optimizer
// off) on its smoke requests, in verdict and ctx bytes. The two catalogues
// are loaded one after the other to halve peak memory.
void SmokeEquivalence(const Catalog& c, Report& r) {
  std::vector<SmokeOutcome> jit = RunSmoke(c, kEngine, true, r);
  std::vector<SmokeOutcome> ref = RunSmoke(c, ExecEngine::kInterp, false, r);
  const size_t n = c.entries.size() * kSmokeRequests;
  if (jit.size() != n || ref.size() != n) {
    return;
  }
  for (size_t i = 0; i < n; i++) {
    const std::string& name = c.entries[i / kSmokeRequests].program.name;
    r.Check(jit[i].completed && ref[i].completed,
            "load: smoke invoke of " + name + " did not run to completion");
    r.Check(jit[i].verdict == ref[i].verdict && jit[i].ctx == ref[i].ctx,
            "load: " + name + " differs from the reference interpreter");
  }
}

struct StageTotals {
  uint64_t verify = 0, opt = 0, kie = 0, conc = 0, jit = 0;
  uint64_t explored = 0, code_bytes = 0, fallbacks = 0;
};

// Runs the load pipeline stage by stage through the layers' public
// functions (the steps Runtime::Load takes), recording one span per stage.
bool StagedPass(const Catalog& c, Tracer& tracer, StageTotals& t,
                Report& r, Runtime* compare) {
  Runtime rt(RuntimeOptions{1});
  auto ids = MakeMaps(rt.maps(), nullptr);
  if (!ids.ok() || !(*ids == c.maps)) {
    r.Check(false, "load: staged maps");
    return false;
  }
  const uint32_t n_root = tracer.Intern("load.staged");
  const uint32_t n_verify = tracer.Intern("verifier.verify");
  const uint32_t n_opt = tracer.Intern("verifier.opt");
  const uint32_t n_kie = tracer.Intern("kie.instrument");
  const uint32_t n_conc = tracer.Intern("verifier.concurrency");
  const uint32_t n_jit = tracer.Intern("jit.compile");
  std::vector<std::unique_ptr<ExtensionHeap>> heaps;
  std::vector<HeapLayout> layouts;
  VerifyOptions vo;
  vo.maps = rt.maps().Descriptors();
  JitOptions jo;
  jo.v2 = kEngine == ExecEngine::kJit2;
  JitCompileEnv env;
  env.helpers = &rt.helpers();
  env.maps = &rt.maps();
  for (size_t i = 0; i < c.entries.size(); i++) {
    const Entry& e = c.entries[i];
    HeapLayout layout;
    if (e.share_with >= 0) {
      layout = layouts[static_cast<size_t>(e.share_with)];
    } else if (e.program.heap_size != 0) {
      auto heap = ExtensionHeap::Create(HeapSpec{e.program.heap_size, e.static_bytes});
      if (!heap.ok()) {
        r.Check(false, "load: staged heap for " + e.program.name);
        return false;
      }
      layout = (*heap)->layout();
      heaps.push_back(std::move(heap).value());
    }
    layouts.push_back(layout);

    uint64_t s0 = NowNs();
    auto analysis = Verify(e.program, vo);
    uint64_t s1 = NowNs();
    if (!analysis.ok()) {
      r.Check(false, "load: staged verify of " + e.program.name);
      return false;
    }
    auto opt = Optimize(e.program, *analysis);
    uint64_t s2 = NowNs();
    if (!opt.ok()) {
      r.Check(false, "load: staged optimize of " + e.program.name);
      return false;
    }
    auto iprog = Instrument(opt->program, opt->analysis, layout, KieOptions{}, &opt->plan);
    uint64_t s3 = NowNs();
    if (!iprog.ok()) {
      r.Check(false, "load: staged instrument of " + e.program.name);
      return false;
    }
    iprog->concurrency = AnalyzeConcurrency(opt->program, &opt->analysis);
    uint64_t s4 = NowNs();
    JitCompileResult jit = JitCompile(*iprog, jo, env);
    uint64_t s5 = NowNs();

    uint64_t req = tracer.NextReq();
    int32_t root = tracer.Add(n_root, req, -1, s0, s5);
    tracer.Add(n_verify, req, root, s0, s1);
    tracer.Add(n_opt, req, root, s1, s2);
    tracer.Add(n_kie, req, root, s2, s3);
    tracer.Add(n_conc, req, root, s3, s4);
    tracer.Add(n_jit, req, root, s4, s5);
    t.verify += s1 - s0;
    t.opt += s2 - s1;
    t.kie += s3 - s2;
    t.conc += s4 - s3;
    t.jit += s5 - s4;
    t.explored += analysis->explored_insns;
    if (jit.program == nullptr) {
      t.fallbacks++;
    } else {
      t.code_bytes += jit.program->stats.code_bytes;
    }
    if (compare != nullptr) {
      // The staged pipeline must produce what Runtime::Load installed.
      ExtensionId id = static_cast<ExtensionId>(i + 1);
      const InstrumentedProgram& real = compare->instrumented(id);
      EngineInfo info = compare->engine_info(id);
      r.Check(real.program.insns.size() == iprog->program.insns.size() &&
                  real.stats.guards_emitted == iprog->stats.guards_emitted &&
                  real.concurrency.safety == iprog->concurrency.safety &&
                  (jit.program == nullptr ||
                   info.stats.code_bytes == jit.program->stats.code_bytes),
              "load: staged pipeline differs from Runtime::Load for " + e.program.name);
    }
  }
  return true;
}

int RoundsFor(const RunConfig& cfg) { return cfg.smoke ? 2 : 3; }

}  // namespace

void RunLoadCatalog(const RunConfig& cfg, Report& r, Tracer* tracer, double share) {
  uint64_t refused = 0;
  if (tracer == nullptr) {
    E2e e2e;
    std::vector<uint32_t> lat;
    for (int round = 0; round < RoundsFor(cfg); round++) {
      uint64_t t0 = NowNs();
      Catalog c;
      if (!BuildCatalog(c, r) || !LoadPass(c, nullptr, nullptr, refused, r)) {
        return;
      }
      e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      uint64_t deadline =
          NowNs() + static_cast<uint64_t>(cfg.seconds / RoundsFor(cfg) * 1e9);
      uint64_t passes = 0;
      while (NowNs() < deadline || passes == 0) {
        uint64_t p0 = NowNs();
        bool ok = LoadPass(c, &lat, nullptr, refused, r);
        uint64_t p1 = NowNs();
        passes++;
        r.attempted += ok ? c.entries.size() : 1;
        if (!ok) {
          break;
        }
        e2e.chunk_ops_per_s.push_back(static_cast<double>(c.entries.size()) * 1e9 /
                                      static_cast<double>(p1 - p0));
      }
      // One latency sample per set-up: every Load call of its passes.
      if (!lat.empty()) {
        e2e.chunk_p50_us.push_back(Quantile(lat, 0.50) / 1000.0);
        e2e.chunk_p99_us.push_back(Quantile(lat, 0.99) / 1000.0);
        lat.clear();
      }
      if (round == RoundsFor(cfg) - 1) {
        SmokeEquivalence(c, r);
      }
    }
    r.failed += refused;
    e2e.Publish(r);
    return;
  }

  Catalog c;
  if (!BuildCatalog(c, r) || !LoadPass(c, nullptr, nullptr, refused, r)) {
    return;
  }
  const double budget_ns = cfg.seconds * share * 1e9;
  // Tracing overhead: untraced and traced Load passes alternate, so drift
  // hits both alike; a pass's time includes the fresh runtime's teardown.
  const double quota = static_cast<double>(tracer->capacity()) * share;
  tracer->SetQuota(static_cast<size_t>(quota * 0.3));
  std::vector<double> plain_pass_ns, traced_pass_ns, load_pass_us;
  const uint64_t u0 = NowNs();
  for (uint64_t p = 0; NowNs() - u0 < budget_ns * 0.5 || p < 2; p++) {
    const bool traced = p % 2 == 1;
    if (traced && tracer->full()) {
      break;
    }
    std::vector<uint32_t> lat;
    uint64_t p0 = NowNs();
    if (!LoadPass(c, &lat, traced ? tracer : nullptr, refused, r)) {
      break;
    }
    uint64_t p1 = NowNs();
    r.attempted += c.entries.size();
    (traced ? traced_pass_ns : plain_pass_ns).push_back(static_cast<double>(p1 - p0));
    if (traced) {
      uint64_t sum = 0;
      for (uint32_t v : lat) {
        sum += v;
      }
      load_pass_us.push_back(static_cast<double>(sum) / 1000.0);
    }
  }
  if (!plain_pass_ns.empty() && !traced_pass_ns.empty()) {
    r.SetIfAbsent(kTraceRatio, Median(traced_pass_ns) / Median(plain_pass_ns), "ratio");
  }

  // Stage ledger: per-pass stage totals, medianed over passes. The first
  // staged pass is compared against a real Runtime::Load of the catalogue.
  std::vector<double> verify, opt, kie, conc, jit;
  StageTotals last;
  auto compare = std::make_unique<Runtime>(RuntimeOptions{1});
  bool compare_ok = MakeMaps(compare->maps(), nullptr).ok();
  std::vector<ExtensionId> cids;
  for (const Entry& e : c.entries) {
    auto id = compare->Load(e.program, OptionsFor(e, cids));
    compare_ok = compare_ok && id.ok();
    cids.push_back(id.ok() ? *id : 0);
  }
  r.Check(compare_ok, "load: comparison load failed");
  tracer->SetQuota(static_cast<size_t>(quota * 0.7));
  uint64_t s0 = NowNs();
  for (uint64_t p = 0; (NowNs() - s0 < budget_ns * 0.4 || p == 0) && !tracer->full(); p++) {
    StageTotals t;
    bool ok = StagedPass(c, *tracer, t, r, p == 0 && compare_ok ? compare.get() : nullptr);
    compare.reset();
    if (!ok) {
      break;
    }
    verify.push_back(static_cast<double>(t.verify) / 1000.0);
    opt.push_back(static_cast<double>(t.opt) / 1000.0);
    kie.push_back(static_cast<double>(t.kie) / 1000.0);
    conc.push_back(static_cast<double>(t.conc) / 1000.0);
    jit.push_back(static_cast<double>(t.jit) / 1000.0);
    last = t;
  }
  r.SetIfAbsent("verifier.verify_us", Median(verify), "us");
  r.SetIfAbsent("verifier.opt_us", Median(opt), "us");
  r.SetIfAbsent("verifier.concurrency_us", Median(conc), "us");
  r.SetIfAbsent("verifier.explored_insns", static_cast<double>(last.explored), "count");
  r.SetIfAbsent("kie.instrument_us", Median(kie), "us");
  r.SetIfAbsent("jit.compile_us", Median(jit), "us");
  r.SetIfAbsent("jit.code_bytes", static_cast<double>(last.code_bytes), "count");
  r.SetIfAbsent("jit.fallbacks", static_cast<double>(last.fallbacks), "count");
  r.SetIfAbsent("runtime.load_us", Median(load_pass_us), "us");
  SmokeEquivalence(c, r);
  r.failed += refused;
}

}  // namespace wallbench
