#include "src/apps/tracer.h"

#include "src/base/logging.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"

namespace kflex {

namespace {
using SF = SyscallFilterLayout;
using LT = LatencyTracerLayout;
}  // namespace

Program BuildSyscallFilterExtension(uint64_t heap_size) {
  Assembler a;
  a.Mov(R6, R1);
  a.Ldx(BPF_DW, R2, R6, 0);  // syscall nr
  auto allow = a.NewLabel();
  a.JmpImm(BPF_JGE, R2, SF::kMaxSyscalls, allow);
  // word = bitmap[nr >> 6] — bounded index, guard elided.
  a.Mov(R3, R2);
  a.RshImm(R3, 6);
  a.LshImm(R3, 3);
  a.LoadHeapAddr(R4, SF::kBitmapOff);
  a.Add(R4, R3);
  a.Ldx(BPF_DW, R5, R4, 0);
  a.AndImm(R2, 63);
  a.Rsh(R5, R2);
  a.AndImm(R5, 1);
  {
    auto denied = a.IfImm(BPF_JEQ, R5, 1);
    a.LoadHeapAddr(R3, SF::kDeniedCountOff);
    a.MovImm(R4, 1);
    a.AtomicAdd(BPF_DW, R3, 0, R4);
    a.LoadImm64(R0, static_cast<uint64_t>(-1));  // -EPERM
    a.Exit();
    a.EndIf(denied);
  }
  a.Bind(allow);
  a.MovImm(R0, 0);
  a.Exit();
  auto p = a.Finish("syscall_filter", Hook::kLsm, ExtensionMode::kKflex, heap_size);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

StatusOr<SyscallFilter> SyscallFilter::Create(MockKernel& kernel) {
  LoadOptions lo;
  lo.heap_static_bytes = SF::kStaticBytes;
  StatusOr<ExtensionId> id = kernel.runtime().Load(BuildSyscallFilterExtension(), lo);
  if (!id.ok()) {
    return id.status();
  }
  KFLEX_RETURN_IF_ERROR(kernel.Attach(*id));
  return SyscallFilter(kernel, *id);
}

int64_t SyscallFilter::Check(int cpu, uint64_t syscall_nr, uint64_t uid) {
  uint64_t ctx[8] = {syscall_nr, uid};
  InvokeResult r =
      kernel_->Deliver(Hook::kLsm, cpu, reinterpret_cast<uint8_t*>(ctx), sizeof(ctx));
  return r.verdict;
}

void SyscallFilter::Deny(uint64_t syscall_nr) {
  KFLEX_CHECK(syscall_nr < SF::kMaxSyscalls);
  uint64_t addr = view_.AddrOf(SF::kBitmapOff + (syscall_nr >> 6) * 8);
  uint64_t word = 0;
  view_.Load(addr, word);
  word |= 1ULL << (syscall_nr & 63);
  view_.Store(addr, word);
}

void SyscallFilter::Allow(uint64_t syscall_nr) {
  KFLEX_CHECK(syscall_nr < SF::kMaxSyscalls);
  uint64_t addr = view_.AddrOf(SF::kBitmapOff + (syscall_nr >> 6) * 8);
  uint64_t word = 0;
  view_.Load(addr, word);
  word &= ~(1ULL << (syscall_nr & 63));
  view_.Store(addr, word);
}

uint64_t SyscallFilter::denied_hits() const {
  uint64_t count = 0;
  view_.Load(view_.AddrOf(SF::kDeniedCountOff), count);
  return count;
}

Program BuildLatencyTracerExtension(uint64_t heap_size) {
  Assembler a;
  a.Mov(R6, R1);
  a.Ldx(BPF_DW, R2, R6, 0);  // latency_ns
  a.Mov(R7, R2);             // keep the original for the sum
  // bucket = floor(log2(latency)), clamped to 63; bounded shift loop.
  a.MovImm(R3, 0);
  {
    auto loop = a.LoopBegin();
    a.LoopBreakIfImm(loop, BPF_JLE, R2, 1);
    a.LoopBreakIfImm(loop, BPF_JEQ, R3, LT::kBuckets - 1);
    a.RshImm(R2, 1);
    a.AddImm(R3, 1);
    a.LoopEnd(loop);
  }
  a.LshImm(R3, 3);
  a.LoadHeapAddr(R4, LT::kBucketsOff);
  a.Add(R4, R3);  // bounded: guard elided
  a.MovImm(R5, 1);
  a.AtomicAdd(BPF_DW, R4, 0, R5);
  a.LoadHeapAddr(R4, LT::kCountOff);
  a.MovImm(R5, 1);
  a.AtomicAdd(BPF_DW, R4, 0, R5);
  a.LoadHeapAddr(R4, LT::kSumOff);
  a.AtomicAdd(BPF_DW, R4, 0, R7);
  a.MovImm(R0, 0);
  a.Exit();
  auto p = a.Finish("latency_tracer", Hook::kTracepoint, ExtensionMode::kKflex, heap_size);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

StatusOr<LatencyTracer> LatencyTracer::Create(MockKernel& kernel) {
  LoadOptions lo;
  lo.heap_static_bytes = LT::kStaticBytes;
  StatusOr<ExtensionId> id = kernel.runtime().Load(BuildLatencyTracerExtension(), lo);
  if (!id.ok()) {
    return id.status();
  }
  KFLEX_RETURN_IF_ERROR(kernel.Attach(*id));
  return LatencyTracer(kernel, *id);
}

void LatencyTracer::Record(int cpu, uint64_t latency_ns) {
  uint64_t ctx[8] = {latency_ns};
  kernel_->Deliver(Hook::kTracepoint, cpu, reinterpret_cast<uint8_t*>(ctx), sizeof(ctx));
}

uint64_t LatencyTracer::BucketCount(int bucket) const {
  uint64_t count = 0;
  view_.Load(view_.AddrOf(LT::kBucketsOff + static_cast<uint64_t>(bucket) * 8), count);
  return count;
}

uint64_t LatencyTracer::TotalCount() const {
  uint64_t count = 0;
  view_.Load(view_.AddrOf(LT::kCountOff), count);
  return count;
}

uint64_t LatencyTracer::TotalSum() const {
  uint64_t sum = 0;
  view_.Load(view_.AddrOf(LT::kSumOff), sum);
  return sum;
}

}  // namespace kflex
