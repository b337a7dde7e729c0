// DDoS guard (docs/scenarios.md): SYN-flood filtering over the shared
// count-min sketch geometry (src/apps/ds/sketch_params.h) plus a per-source
// token-bucket rate limiter. The arrival timestamp rides in the ctx
// (kOffZScore) instead of a clock helper so every engine replays the same
// refill schedule. One spin lock covers the sketch rows, the bucket table,
// and the verdict counters -> kLockProtected certificate.
#include "src/apps/netfn/netfn.h"

#include "src/apps/ds/sketch_params.h"
#include "src/base/logging.h"
#include "src/dsl/emit.h"
#include "src/ebpf/assembler.h"
#include "src/kernel/packet.h"
#include "src/uapi/user_heap.h"

namespace kflex {

namespace {

using G = GuardLayout;

static_assert(G::kBucketsOff == G::kSketchOff + SketchParams::kTableBytes,
              "guard bucket table must start right after the sketch rows");

// Locked heap-counter bump at a constant offset. Clobbers R4, R5.
void EmitCounterBump(Assembler& a, uint64_t off) {
  a.LoadHeapAddr(R4, off);
  a.Ldx(BPF_DW, R5, R4, 0);
  a.AddImm(R5, 1);
  a.Stx(BPF_DW, R4, 0, R5);
}

}  // namespace

StatusOr<Program> BuildDdosGuard(const GuardConfig& config) {
  if (config.syn_threshold == 0 || config.burst_tokens == 0 ||
      static_cast<uint64_t>(config.burst_tokens) * G::kTokenScale >
          (1ULL << 30)) {
    return InvalidArgument("guard: bad config");
  }
  const int32_t full = static_cast<int32_t>(config.burst_tokens * G::kTokenScale);

  Assembler a;
  a.Mov(R6, R1);
  a.Ldx(BPF_W, R7, R6, kOffSrcIp);  // source key for sketch + bucket
  a.LoadHeapAddr(R1, G::kLockOff);
  a.Call(kHelperKflexSpinLock);

  // Count-min increment for this source; running minimum (the frequency
  // estimate) lands in R8. Same row/seed geometry as the ds sketches.
  a.LoadImm64(R8, ~0ULL);
  for (int row = 0; row < SketchParams::kRows; row++) {
    EmitSketchCounterAddr(a, row, R7, G::kSketchOff, R4);
    a.Ldx(BPF_DW, R5, R4, 0);
    a.AddImm(R5, 1);
    a.Stx(BPF_DW, R4, 0, R5);
    auto smaller = a.IfReg(BPF_JLT, R5, R8);
    a.Mov(R8, R5);
    a.EndIf(smaller);
  }

  // Token-bucket entry for this source -> R9.
  a.Mov(R2, R7);
  EmitHashFinalize(a, R2, R3);
  a.AndImm(R2, static_cast<int32_t>(G::kBucketCount - 1));
  a.LshImm(R2, 4);
  a.LoadHeapAddr(R9, G::kBucketsOff);
  a.Add(R9, R2);

  // Verdict accumulates in R7 (the source key is no longer needed).
  a.MovImm(R7, static_cast<int32_t>(kXdpPass));

  // SYN-flood filter: TCP from a source whose estimate exceeds the
  // threshold is dropped before it costs tokens.
  a.Ldx(BPF_B, R3, R6, kOffProto);
  {
    auto tcp = a.IfImm(BPF_JEQ, R3, kProtoTcp);
    {
      auto over = a.IfImm(BPF_JGT, R8, static_cast<int32_t>(config.syn_threshold));
      a.MovImm(R7, static_cast<int32_t>(kXdpDrop));
      EmitCounterBump(a, G::kSynDropOff);
      a.EndIf(over);
    }
    a.EndIf(tcp);
  }

  // Token bucket: refill from the ctx-carried arrival timestamp, then try
  // to spend one packet's worth of tokens.
  {
    auto still = a.IfImm(BPF_JEQ, R7, static_cast<int32_t>(kXdpPass));
    a.Ldx(BPF_DW, R2, R9, 0);          // tokens (scaled)
    a.Ldx(BPF_DW, R3, R9, 8);          // last refill ns
    a.Ldx(BPF_DW, R4, R6, kOffZScore);  // arrival ns
    {
      auto fresh = a.IfImm(BPF_JEQ, R3, 0);
      a.MovImm(R2, full);  // first sighting: full bucket
      a.Else(fresh);
      a.Mov(R5, R4);
      a.Sub(R5, R3);
      {
        auto skewed = a.IfImm(BPF_JSLT, R5, 0);
        a.MovImm(R5, 0);
        a.EndIf(skewed);
      }
      a.RshImm(R5, G::kRefillShift);
      a.MulImm(R5, static_cast<int32_t>(config.refill_per_tick));
      a.Add(R2, R5);
      {
        auto clamp = a.IfImm(BPF_JGT, R2, full);
        a.MovImm(R2, full);
        a.EndIf(clamp);
      }
      a.EndIf(fresh);
    }
    a.Stx(BPF_DW, R9, 8, R4);  // last = now
    {
      auto enough = a.IfImm(BPF_JGE, R2, static_cast<int32_t>(G::kTokenScale));
      a.SubImm(R2, static_cast<int32_t>(G::kTokenScale));
      a.Else(enough);
      a.MovImm(R7, static_cast<int32_t>(kXdpDrop));
      EmitCounterBump(a, G::kRateDropOff);
      a.EndIf(enough);
    }
    a.Stx(BPF_DW, R9, 0, R2);
    a.EndIf(still);
  }

  {
    auto passed = a.IfImm(BPF_JEQ, R7, static_cast<int32_t>(kXdpPass));
    EmitCounterBump(a, G::kPassOff);
    a.EndIf(passed);
  }

  // Surface the frequency estimate to the caller, release, verdict.
  a.Stx(BPF_DW, R6, kOffResp, R8);
  a.StImm(BPF_B, R6, kOffRespFlag, 1);
  a.StImm(BPF_H, R6, kOffValLen, 8);
  a.LoadHeapAddr(R1, G::kLockOff);
  a.Call(kHelperKflexSpinUnlock);
  a.Mov(R0, R7);
  a.Exit();

  return a.Finish("netfn_guard", Hook::kXdp, ExtensionMode::kKflex,
                  kGuardHeapSize);
}

StatusOr<std::unique_ptr<DdosGuardDriver>> DdosGuardDriver::Create(
    MockKernel& kernel, const GuardConfig& config, const KieOptions& kie,
    const EngineChoice& engine) {
  auto program = BuildDdosGuard(config);
  if (!program.ok()) {
    return program.status();
  }
  LoadOptions lo = LoadOptionsFor(engine);
  lo.kie = kie;
  lo.heap_static_bytes = G::kStaticBytes;
  auto id = kernel.runtime().Load(*program, lo);
  if (!id.ok()) {
    return id.status();
  }
  Status attached = kernel.Attach(*id);
  if (!attached.ok()) {
    return attached;
  }
  return std::unique_ptr<DdosGuardDriver>(new DdosGuardDriver(kernel, *id));
}

InvokeResult DdosGuardDriver::Deliver(int cpu, uint32_t src_ip, uint8_t proto,
                                      uint64_t now_ns) {
  KvPacket pkt;
  pkt.SetTuple(src_ip, 4242, 443);
  pkt.SetProto(proto);
  pkt.SetZScore(now_ns);
  return kernel_->Deliver(Hook::kXdp, cpu, pkt.data(), pkt.size());
}

uint64_t DdosGuardDriver::ReadCounter(uint64_t off) const {
  UserHeapView view(kernel_->runtime().heap(id_));
  uint64_t v = 0;
  view.Load(view.AddrOf(off), v);
  return v;
}

uint64_t DdosGuardDriver::Passed() const { return ReadCounter(G::kPassOff); }
uint64_t DdosGuardDriver::SynDrops() const { return ReadCounter(G::kSynDropOff); }
uint64_t DdosGuardDriver::RateDrops() const {
  return ReadCounter(G::kRateDropOff);
}

}  // namespace kflex
