// Tracing aggregator (docs/scenarios.md): per-kind log2 latency histograms
// on the tracepoint hook, generalizing the single-histogram LatencyTracer
// (src/apps/tracer.h) to kKinds event classes. Every shared-state access is
// an atomic add into a statically-bounded slot, so the concurrency analysis
// certifies kRaceFree and the sharded dispatcher replicates it with no
// ordering at all.
#include "src/apps/netfn/netfn.h"

#include "src/base/logging.h"
#include "src/ebpf/assembler.h"
#include "src/kernel/packet.h"
#include "src/uapi/user_heap.h"

namespace kflex {

namespace {

using T = TraceAggLayout;

static_assert((2 + T::kBuckets) * 8 <= T::kKindStride,
              "kind block must fit count+sum+buckets");

}  // namespace

StatusOr<Program> BuildTraceAggregator() {
  Assembler a;
  a.Mov(R6, R1);
  // Kind block base -> R8 (kind masked, power-of-two stride).
  a.Ldx(BPF_DW, R7, R6, kDsOffOp);
  a.AndImm(R7, T::kKinds - 1);
  a.LshImm(R7, 10);
  a.LoadHeapAddr(R8, T::kBaseOff);
  a.Add(R8, R7);
  // count += 1, sum += value — atomics only (race-free certificate).
  a.MovImm(R5, 1);
  a.AtomicAdd(BPF_DW, R8, static_cast<int16_t>(T::kCountOff), R5);
  a.Ldx(BPF_DW, R4, R6, kDsOffValue);
  a.AtomicAdd(BPF_DW, R8, static_cast<int16_t>(T::kSumOff), R4);
  // bucket = floor(log2(value)), capped at kBuckets-1 (tracer.cc idiom).
  a.Ldx(BPF_DW, R2, R6, kDsOffValue);
  a.MovImm(R3, 0);
  {
    auto loop = a.LoopBegin();
    a.LoopBreakIfImm(loop, BPF_JLE, R2, 1);
    a.LoopBreakIfImm(loop, BPF_JEQ, R3, T::kBuckets - 1);
    a.RshImm(R2, 1);
    a.AddImm(R3, 1);
    a.LoopEnd(loop);
  }
  a.LshImm(R3, 3);
  a.Add(R8, R3);
  a.MovImm(R5, 1);
  a.AtomicAdd(BPF_DW, R8, static_cast<int16_t>(T::kBucketsOff), R5);
  a.StImm(BPF_DW, R6, kDsOffResult, 1);
  a.MovImm(R0, 0);
  a.Exit();
  return a.Finish("netfn_traceagg", Hook::kTracepoint, ExtensionMode::kKflex,
                  kTraceAggHeapSize);
}

StatusOr<std::unique_ptr<TraceAggDriver>> TraceAggDriver::Create(
    MockKernel& kernel, const KieOptions& kie, const EngineChoice& engine) {
  auto program = BuildTraceAggregator();
  if (!program.ok()) {
    return program.status();
  }
  LoadOptions lo = LoadOptionsFor(engine);
  lo.kie = kie;
  lo.heap_static_bytes = T::kStaticBytes;
  auto id = kernel.runtime().Load(*program, lo);
  if (!id.ok()) {
    return id.status();
  }
  Status attached = kernel.Attach(*id);
  if (!attached.ok()) {
    return attached;
  }
  return std::unique_ptr<TraceAggDriver>(new TraceAggDriver(kernel, *id));
}

InvokeResult TraceAggDriver::Record(int cpu, uint32_t kind, uint64_t value_ns) {
  DsCtx ctx;
  ctx.op = kind;
  ctx.value = value_ns;
  return kernel_->Deliver(Hook::kTracepoint, cpu, ctx.bytes(), kDsCtxSize);
}

uint64_t TraceAggDriver::ReadWord(uint64_t off) const {
  UserHeapView view(kernel_->runtime().heap(id_));
  uint64_t v = 0;
  view.Load(view.AddrOf(off), v);
  return v;
}

uint64_t TraceAggDriver::Count(uint32_t kind) const {
  return ReadWord(T::kBaseOff + (kind & (T::kKinds - 1)) * T::kKindStride +
                  T::kCountOff);
}
uint64_t TraceAggDriver::Sum(uint32_t kind) const {
  return ReadWord(T::kBaseOff + (kind & (T::kKinds - 1)) * T::kKindStride +
                  T::kSumOff);
}
uint64_t TraceAggDriver::BucketCount(uint32_t kind, int bucket) const {
  return ReadWord(T::kBaseOff + (kind & (T::kKinds - 1)) * T::kKindStride +
                  T::kBucketsOff + static_cast<uint64_t>(bucket) * 8);
}

}  // namespace kflex
