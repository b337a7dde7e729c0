// Katran-style L4 load balancer (docs/scenarios.md): consistent hashing over
// a host-built rendezvous ring, backend health in an array map, 5-tuple flow
// affinity in the kernel hash map. One spin lock covers every shared access
// (flow map, health map values, heap counters), so the concurrency analysis
// certifies kLockProtected and the sharded dispatcher replicates the
// extension; RSS-style 5-tuple steering keeps a flow on one shard, so the
// per-replica lock is uncontended on the hot path.
#include "src/apps/netfn/netfn.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/dsl/emit.h"
#include "src/ebpf/assembler.h"
#include "src/kernel/packet.h"
#include "src/uapi/user_heap.h"

namespace kflex {

namespace {

using L = LbLayout;

// Locked heap-counter bump at a constant offset. Clobbers R4, R5.
void EmitCounterBump(Assembler& a, uint64_t off) {
  a.LoadHeapAddr(R4, off);
  a.Ldx(BPF_DW, R5, R4, 0);
  a.AddImm(R5, 1);
  a.Stx(BPF_DW, R4, 0, R5);
}

}  // namespace

StatusOr<LbBuild> BuildL4LoadBalancer(MapRegistry& maps, uint32_t num_backends,
                                      uint64_t flow_capacity) {
  if (num_backends == 0 || num_backends > L::kMaxBackends) {
    return InvalidArgument("lb: num_backends must be in [1, 16]");
  }
  auto flow = maps.CreateHash(8, 8, flow_capacity);
  if (!flow.ok()) {
    return flow.status();
  }
  auto health = maps.CreateArray(4, 8, L::kMaxBackends);
  if (!health.ok()) {
    return health.status();
  }

  Assembler a;
  a.Mov(R6, R1);
  // Flow hash over the 5-tuple: ip | (sport<<32) | (dport<<48), proto mixed
  // in, then the splitmix finalizer. R8 keeps the hash for ring probes.
  a.Ldx(BPF_W, R2, R6, kOffSrcIp);
  a.Ldx(BPF_H, R3, R6, kOffSrcPort);
  a.LshImm(R3, 32);
  a.Or(R2, R3);
  a.Ldx(BPF_H, R3, R6, kOffDstPort);
  a.LshImm(R3, 48);
  a.Or(R2, R3);
  a.Ldx(BPF_B, R3, R6, kOffProto);
  a.Xor(R2, R3);
  EmitHashFinalize(a, R2, R3);
  a.Mov(R8, R2);
  a.Stx(BPF_DW, R10, -16, R8);  // flow-map key

  a.LoadHeapAddr(R1, L::kLockOff);
  a.Call(kHelperKflexSpinLock);
  a.MovImm(R7, static_cast<int32_t>(L::kMaxBackends));  // sentinel: unchosen

  // Flow affinity: an established flow sticks to its backend even across
  // ring rebuilds.
  a.LoadMapPtr(R1, flow->id);
  a.Mov(R2, R10);
  a.AddImm(R2, -16);
  a.Call(kHelperMapLookupElem);
  {
    auto hit = a.IfImm(BPF_JNE, R0, 0);
    a.Ldx(BPF_DW, R7, R0, 0);
    a.AndImm(R7, static_cast<int32_t>(L::kMaxBackends - 1));
    EmitCounterBump(a, L::kAffinityHitsOff);
    a.Else(hit);
    EmitCounterBump(a, L::kAffinityMissOff);
    a.EndIf(hit);
  }

  // Consistent-hash ring probes (unrolled): re-finalize hash+i, mask into
  // the ring, take the first backend the health map marks up.
  for (int probe = 0; probe < L::kProbes; probe++) {
    auto need = a.IfImm(BPF_JEQ, R7, static_cast<int32_t>(L::kMaxBackends));
    a.Mov(R2, R8);
    a.AddImm(R2, probe);
    EmitHashFinalize(a, R2, R3);
    a.AndImm(R2, L::kRingSlots - 1);
    a.LshImm(R2, 3);
    a.LoadHeapAddr(R9, L::kRingOff);
    a.Add(R9, R2);
    a.Ldx(BPF_DW, R9, R9, 0);  // candidate backend from the ring
    a.AndImm(R9, static_cast<int32_t>(L::kMaxBackends - 1));
    a.Stx(BPF_W, R10, -24, R9);
    a.LoadMapPtr(R1, health->id);
    a.Mov(R2, R10);
    a.AddImm(R2, -24);
    a.Call(kHelperMapLookupElem);
    {
      auto present = a.IfImm(BPF_JNE, R0, 0);
      a.Ldx(BPF_DW, R3, R0, 0);
      {
        auto healthy = a.IfImm(BPF_JEQ, R3, 1);
        a.Mov(R7, R9);
        a.EndIf(healthy);
      }
      a.EndIf(present);
    }
    a.EndIf(need);
  }

  // Every probe hit a down backend: count and drop.
  {
    auto none = a.IfImm(BPF_JEQ, R7, static_cast<int32_t>(L::kMaxBackends));
    EmitCounterBump(a, L::kNoBackendOff);
    a.LoadHeapAddr(R1, L::kLockOff);
    a.Call(kHelperKflexSpinUnlock);
    a.MovImm(R0, static_cast<int32_t>(kXdpDrop));
    a.Exit();
    a.EndIf(none);
  }

  // Refresh flow affinity and per-backend stats.
  a.Stx(BPF_DW, R10, -32, R7);
  a.LoadMapPtr(R1, flow->id);
  a.Mov(R2, R10);
  a.AddImm(R2, -16);
  a.Mov(R3, R10);
  a.AddImm(R3, -32);
  a.MovImm(R4, 0);
  a.Call(kHelperMapUpdateElem);
  a.Mov(R2, R7);
  a.LshImm(R2, 3);
  a.LoadHeapAddr(R3, L::kStatsOff);
  a.Add(R3, R2);
  a.Ldx(BPF_DW, R4, R3, 0);
  a.AddImm(R4, 1);
  a.Stx(BPF_DW, R3, 0, R4);

  // Chosen backend back to the caller in the response area.
  a.Stx(BPF_DW, R6, kOffResp, R7);
  a.StImm(BPF_B, R6, kOffRespFlag, 1);
  a.StImm(BPF_H, R6, kOffValLen, 8);
  a.LoadHeapAddr(R1, L::kLockOff);
  a.Call(kHelperKflexSpinUnlock);
  a.MovImm(R0, static_cast<int32_t>(kXdpTx));
  a.Exit();

  auto program = a.Finish("netfn_lb", Hook::kXdp, ExtensionMode::kKflex,
                          kLbHeapSize);
  if (!program.ok()) {
    return program.status();
  }
  LbBuild build;
  build.program = std::move(program).value();
  build.static_bytes = L::kStaticBytes;
  build.flow_map_id = flow->id;
  build.health_map_id = health->id;
  build.num_backends = num_backends;
  return build;
}

std::vector<uint64_t> BuildLbRing(const std::vector<uint8_t>& healthy) {
  std::vector<uint64_t> ring(L::kRingSlots, 0);
  for (int slot = 0; slot < L::kRingSlots; slot++) {
    uint64_t best_weight = 0;
    uint64_t best_backend = 0;
    bool any = false;
    for (size_t b = 0; b < healthy.size(); b++) {
      if (healthy[b] == 0) {
        continue;
      }
      uint64_t w = Mix64((static_cast<uint64_t>(slot) << 16) ^
                         ((b + 1) * kGoldenGamma));
      if (!any || w > best_weight) {
        any = true;
        best_weight = w;
        best_backend = b;
      }
    }
    ring[slot] = best_backend;
  }
  return ring;
}

bool InstallLbRing(ExtensionHeap* heap, const std::vector<uint64_t>& ring) {
  if (heap == nullptr) {
    return false;
  }
  UserHeapView view(heap);
  for (size_t i = 0; i < ring.size(); i++) {
    if (!view.Store(view.AddrOf(L::kRingOff + i * 8), ring[i])) {
      return false;
    }
  }
  return true;
}

Status SetLbBackendHealth(MapRegistry& maps, const LbBuild& build,
                          uint32_t backend, bool healthy) {
  Map* health = maps.Find(build.health_map_id);
  if (health == nullptr || backend >= L::kMaxBackends) {
    return InvalidArgument("lb: bad health map or backend index");
  }
  uint64_t flag = healthy ? 1 : 0;
  if (health->Update(reinterpret_cast<const uint8_t*>(&backend),
                     reinterpret_cast<const uint8_t*>(&flag)) != 0) {
    return Internal("lb: health map update failed");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<L4LoadBalancerDriver>> L4LoadBalancerDriver::Create(
    MockKernel& kernel, uint32_t num_backends, const KieOptions& kie,
    const EngineChoice& engine) {
  auto build = BuildL4LoadBalancer(kernel.runtime().maps(), num_backends);
  if (!build.ok()) {
    return build.status();
  }
  LoadOptions lo = LoadOptionsFor(engine);
  lo.kie = kie;
  lo.heap_static_bytes = build->static_bytes;
  auto id = kernel.runtime().Load(build->program, lo);
  if (!id.ok()) {
    return id.status();
  }
  std::vector<uint8_t> healthy(num_backends, 1);
  for (uint32_t b = 0; b < num_backends; b++) {
    Status s = SetLbBackendHealth(kernel.runtime().maps(), *build, b, true);
    if (!s.ok()) {
      return s;
    }
  }
  if (!InstallLbRing(kernel.runtime().heap(*id), BuildLbRing(healthy))) {
    return Internal("lb: ring install failed");
  }
  Status attached = kernel.Attach(*id);
  if (!attached.ok()) {
    return attached;
  }
  return std::unique_ptr<L4LoadBalancerDriver>(new L4LoadBalancerDriver(
      kernel, std::move(build).value(), *id, std::move(healthy)));
}

L4LoadBalancerDriver::Decision L4LoadBalancerDriver::Route(
    int cpu, uint32_t src_ip, uint16_t src_port, uint16_t dst_port,
    uint8_t proto) {
  KvPacket pkt;
  pkt.SetTuple(src_ip, src_port, dst_port);
  pkt.SetProto(proto);
  Decision d;
  d.result = kernel_->Deliver(Hook::kXdp, cpu, pkt.data(), pkt.size());
  if (d.result.attached && !d.result.cancelled &&
      d.result.verdict == kXdpTx && pkt.resp_flag() == 1) {
    std::memcpy(&d.backend, pkt.data() + kOffResp, 8);
  }
  return d;
}

Status L4LoadBalancerDriver::SetHealth(uint32_t backend, bool healthy) {
  if (backend >= healthy_.size()) {
    return InvalidArgument("lb: backend out of range");
  }
  healthy_[backend] = healthy ? 1 : 0;
  Status s = SetLbBackendHealth(kernel_->runtime().maps(), build_, backend,
                                healthy);
  if (!s.ok()) {
    return s;
  }
  if (!InstallLbRing(kernel_->runtime().heap(id_), BuildLbRing(healthy_))) {
    return Internal("lb: ring install failed");
  }
  return OkStatus();
}

uint64_t L4LoadBalancerDriver::ReadCounter(uint64_t off) const {
  UserHeapView view(kernel_->runtime().heap(id_));
  uint64_t v = 0;
  view.Load(view.AddrOf(off), v);
  return v;
}

uint64_t L4LoadBalancerDriver::AffinityHits() const {
  return ReadCounter(L::kAffinityHitsOff);
}
uint64_t L4LoadBalancerDriver::AffinityMisses() const {
  return ReadCounter(L::kAffinityMissOff);
}
uint64_t L4LoadBalancerDriver::NoBackendDrops() const {
  return ReadCounter(L::kNoBackendOff);
}
uint64_t L4LoadBalancerDriver::BackendPackets(uint32_t backend) const {
  return ReadCounter(L::kStatsOff + static_cast<uint64_t>(backend) * 8);
}

}  // namespace kflex
