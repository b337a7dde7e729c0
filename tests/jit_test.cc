// Native x86-64 JIT backend: bit-for-bit parity with the interpreter over
// ALU/memory/branch programs, fault and cancellation behaviour (guard zone,
// unpopulated page, C1 terminate loads, clock-sampled fuel), atomics, forced
// fallback, and the engine_info load report.
//
// Every parity test loads the same program into two runtimes — one
// interpreting, one JITed — and compares the full observable state:
// acceptance, verdict, outcome, fault pc/kind, instruction counts, helper
// traces, and heap contents.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/ebpf/text_asm.h"
#include "src/fault/fault.h"
#include "src/jit/codegen.h"
#include "src/jit/trampoline.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/runtime/runtime.h"
#include "src/runtime/spinlock.h"

namespace kflex {
namespace {

constexpr uint64_t kHeapSize = 1 << 20;

Program MustBuild(Assembler& a, uint64_t heap = kHeapSize, Hook hook = Hook::kXdp) {
  auto p = a.Finish("t", hook, ExtensionMode::kKflex, heap);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

struct EngineRun {
  bool loaded = false;
  EngineInfo info;
  InvokeResult result;
  std::vector<std::pair<int32_t, uint64_t>> helper_trace;
  std::vector<uint8_t> heap;
};

EngineRun RunOn(const Program& program, ExecEngine engine, const uint8_t* ctx,
                uint32_t ctx_size, LoadOptions lo = {}, RuntimeOptions ro = {},
                bool cancel_before_invoke = false) {
  EngineRun out;
  ro.num_cpus = 1;
  Runtime rt(ro);
  lo.engine = engine;
  auto id = rt.Load(program, lo);
  out.loaded = id.ok();
  if (!out.loaded) {
    return out;
  }
  out.info = rt.engine_info(*id);
  if (cancel_before_invoke) {
    rt.Cancel(*id);
    // Cancel() unloads nothing by itself; re-arm attachment for the invoke.
    // (Invoke refuses only *unloaded* extensions, so nothing to do.)
  }
  std::vector<uint8_t> ctx_copy(ctx, ctx + ctx_size);
  out.result = rt.Invoke(*id, 0, ctx_copy.data(), ctx_size, &out.helper_trace);
  if (rt.heap(*id) != nullptr) {
    uint64_t n = rt.heap(*id)->size();
    out.heap.assign(rt.heap(*id)->HostAt(0), rt.heap(*id)->HostAt(0) + n);
  }
  return out;
}

// On a differential mismatch this prints everything needed to reproduce the
// failure offline: the program as round-trippable text assembly and the
// native code region the failing engine compiled (hex, 16 bytes per line —
// feed to `objdump -D -b binary -m i386:x86-64` or any disassembler).
void DumpMismatch(const Program& program, LoadOptions lo, ExecEngine jit_engine) {
  StatusOr<std::string> text = ProgramToTextAsm(program);
  std::fprintf(stderr, "=== differential mismatch (%s): program ===\n%s",
               ExecEngineName(jit_engine),
               text.ok() ? text->c_str() : "<ProgramToTextAsm failed>\n");
  Runtime rt;
  lo.engine = jit_engine;
  auto id = rt.Load(program, lo);
  if (!id.ok()) {
    std::fprintf(stderr, "(reload for native dump failed: %s)\n",
                 id.status().ToString().c_str());
    return;
  }
  JitOptions jo = lo.jit;
  jo.v2 = jo.v2 || jit_engine == ExecEngine::kJit2;
  JitCompileEnv env;
  env.helpers = &rt.helpers();
  env.maps = &rt.maps();
  JitCompileResult r = JitCompile(rt.instrumented(*id), jo, env);
  if (r.program == nullptr) {
    std::fprintf(stderr, "(recompile for native dump fell back: %s)\n",
                 r.fallback_reason.c_str());
    return;
  }
  const uint8_t* code = r.program->code.data();
  size_t n = r.program->code.code_size();
  std::fprintf(stderr, "=== native code region (%zu bytes) ===\n", n);
  for (size_t off = 0; off < n; off += 16) {
    std::fprintf(stderr, "%06zx:", off);
    for (size_t i = off; i < off + 16 && i < n; i++) {
      std::fprintf(stderr, " %02x", code[i]);
    }
    std::fprintf(stderr, "\n");
  }
}

// Loads + invokes on both engines and compares everything observable.
// Returns the JIT run for additional assertions.
EngineRun ExpectParity(const Program& program, const uint8_t* ctx, uint32_t ctx_size,
                       LoadOptions lo = {}, RuntimeOptions ro = {},
                       bool cancel_before_invoke = false,
                       ExecEngine jit_engine = ExecEngine::kJit) {
  bool failed_before = ::testing::Test::HasFailure();
  EngineRun interp =
      RunOn(program, ExecEngine::kInterp, ctx, ctx_size, lo, ro, cancel_before_invoke);
  EngineRun jit =
      RunOn(program, jit_engine, ctx, ctx_size, lo, ro, cancel_before_invoke);
  EXPECT_EQ(interp.loaded, jit.loaded);
  if (!interp.loaded || !jit.loaded) {
    return jit;
  }
  EXPECT_EQ(jit.info.used, jit_engine)
      << "unexpected fallback: " << jit.info.fallback_reason;
  EXPECT_EQ(interp.result.attached, jit.result.attached);
  EXPECT_EQ(interp.result.cancelled, jit.result.cancelled);
  EXPECT_EQ(interp.result.verdict, jit.result.verdict);
  EXPECT_EQ(interp.result.outcome, jit.result.outcome)
      << VmOutcomeName(interp.result.outcome) << " vs "
      << VmOutcomeName(jit.result.outcome);
  EXPECT_EQ(interp.result.fault_pc, jit.result.fault_pc);
  EXPECT_EQ(interp.result.fault_kind, jit.result.fault_kind);
  EXPECT_EQ(interp.result.insns, jit.result.insns);
  EXPECT_EQ(interp.result.instr_insns, jit.result.instr_insns);
  EXPECT_EQ(interp.helper_trace, jit.helper_trace);
  EXPECT_EQ(interp.heap.size(), jit.heap.size());
  if (interp.heap.size() == jit.heap.size() && !interp.heap.empty()) {
    EXPECT_EQ(std::memcmp(interp.heap.data(), jit.heap.data(), interp.heap.size()), 0)
        << "heap contents diverged";
  }
  if (!failed_before && ::testing::Test::HasFailure()) {
    DumpMismatch(program, lo, jit_engine);
  }
  return jit;
}

#define SKIP_WITHOUT_JIT()                                     \
  do {                                                         \
    if (!JitHostSupported()) {                                 \
      GTEST_SKIP() << "JIT backend unsupported on this host";  \
    }                                                          \
  } while (0)

TEST(Jit, AluAndBranchParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.Ldx(BPF_DW, R2, R1, 0);     // unknown scalar from ctx
  a.MovImm(R3, 13);
  a.Mov(R4, R2);
  a.Mul(R4, R3);
  a.AluImm(BPF_LSH, R4, 7);
  a.AluReg(BPF_ARSH, R4, R3);
  a.Xor(R4, R2);
  a.AluImm(BPF_OR, R4, 0x5a5a);
  a.Mov32(R5, R4);              // 32-bit mov zero-extends
  a.AluImm(BPF_RSH, R5, 3, /*is64=*/false);
  auto iff = a.IfImm(BPF_JSGT, R5, 1000);
  a.AddImm(R5, 7);
  a.Else(iff);
  a.SubImm(R5, 7);
  a.EndIf(iff);
  a.Mod(R5, R3);
  a.AluImm(BPF_DIV, R4, 10);
  a.Add(R5, R4);
  a.Mov(R0, R5);
  a.Exit();
  Program p = MustBuild(a);

  for (uint64_t seed : {0ull, 1ull, 0xdeadbeefull, 0xffffffffffffffffull,
                        0x8000000000000000ull, 1234567ull}) {
    KvPacket pkt;
    std::memcpy(pkt.data(), &seed, 8);
    ExpectParity(p, pkt.data(), pkt.size());
  }
}

TEST(Jit, DivisionByZeroParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.Ldx(BPF_DW, R2, R1, 0);  // runtime zero the verifier cannot see
  a.MovImm(R3, 77);
  a.AluReg(BPF_DIV, R3, R2);      // 64-bit div by 0 -> 0
  a.MovImm(R4, -5);
  a.AluReg(BPF_MOD, R4, R2);      // 64-bit mod by 0 -> dividend
  a.MovImm(R5, -5);
  a.AluReg(BPF_MOD, R5, R2, /*is64=*/false);  // 32-bit mod 0 -> u32(dividend)
  a.Mov(R0, R3);
  a.Add(R0, R4);
  a.Add(R0, R5);
  a.Exit();
  Program p = MustBuild(a);
  KvPacket pkt;  // ctx zeroed
  ExpectParity(p, pkt.data(), pkt.size());
}

TEST(Jit, ThirtyTwoBitShiftByZeroParity) {
  SKIP_WITHOUT_JIT();
  // rhs shift count 0 must still zero-extend the 32-bit destination.
  Assembler a;
  a.Ldx(BPF_DW, R2, R1, 0);          // 0 at runtime
  a.LoadImm64(R3, 0xffffffff12345678ull);
  a.AluReg(BPF_LSH, R3, R2, /*is64=*/false);
  a.Mov(R0, R3);                     // must be 0x12345678, upper bits gone
  a.Exit();
  Program p = MustBuild(a);
  KvPacket pkt;
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size());
  EXPECT_EQ(jit.result.verdict, 0x12345678);
}

TEST(Jit, HeapAndStackMemoryParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 424242);
  a.StImm(BPF_W, R2, 8, -1);
  a.StImm(BPF_H, R2, 12, 0x7fff);
  a.StImm(BPF_B, R2, 14, 0x80);
  a.Ldx(BPF_DW, R3, R2, 0);
  a.Ldx(BPF_W, R4, R2, 8);     // zero-extends
  a.Ldx(BPF_H, R5, R2, 12);
  a.Ldx(BPF_B, R6, R2, 14);
  a.Stx(BPF_DW, R10, -8, R3);
  a.Stx(BPF_W, R10, -16, R4);
  a.Ldx(BPF_DW, R7, R10, -8);
  a.Ldx(BPF_W, R8, R10, -16);
  a.Mov(R0, R3);
  a.Add(R0, R4);
  a.Add(R0, R5);
  a.Add(R0, R6);
  a.Add(R0, R7);
  a.Add(R0, R8);
  a.Exit();
  Program p = MustBuild(a);
  KvPacket pkt;
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  ExpectParity(p, pkt.data(), pkt.size(), lo);
}

TEST(Jit, CtxLoadParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.Ldx(BPF_W, R2, R1, 4);
  a.Ldx(BPF_B, R3, R1, 1);
  a.Ldx(BPF_H, R4, R1, 2);
  a.Mov(R0, R2);
  a.Add(R0, R3);
  a.Add(R0, R4);
  a.Exit();
  Program p = MustBuild(a);
  KvPacket pkt;
  for (size_t i = 0; i < 16; i++) {
    pkt.data()[i] = static_cast<uint8_t>(0xa0 + i);
  }
  ExpectParity(p, pkt.data(), pkt.size());
}

TEST(Jit, GuardedScatterParity) {
  SKIP_WITHOUT_JIT();
  // The guarded store goes through MOV+SANITIZE: the masked address always
  // lands inside the heap regardless of the untrusted scalar.
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 7777);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  for (uint64_t delta : {uint64_t{0}, uint64_t{8}, kHeapSize * 3, kHeapSize * 7 + 8}) {
    KvPacket pkt;
    std::memcpy(pkt.data(), &delta, 8);
    ExpectParity(p, pkt.data(), pkt.size(), lo);
  }
}

TEST(Jit, UnpopulatedPageFaultParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 1);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  KvPacket pkt;
  uint64_t delta = kHeapSize / 2;  // masked address on an unpopulated page
  std::memcpy(pkt.data(), &delta, 8);
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size(), lo);
  EXPECT_TRUE(jit.result.cancelled);
  EXPECT_EQ(jit.result.fault_kind, MemFaultKind::kNotPresent);
}

TEST(Jit, GuardZoneFaultParity) {
  SKIP_WITHOUT_JIT();
  // KMod baseline (sfi off): the out-of-bounds store is not sanitized, so
  // the computed address walks off the end of the heap into the guard zone.
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 1);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.kie.sfi = false;
  lo.heap_static_bytes = 256;
  KvPacket pkt;
  uint64_t delta = kHeapSize;  // base+64+heap -> 64 bytes into the top guard zone
  std::memcpy(pkt.data(), &delta, 8);
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size(), lo);
  EXPECT_TRUE(jit.result.cancelled);
  EXPECT_EQ(jit.result.outcome, VmResult::Outcome::kFault);
  EXPECT_EQ(jit.result.fault_kind, MemFaultKind::kGuardZone);
}

TEST(Jit, AtomicsParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 100);
  a.MovImm(R3, 5);
  a.AtomicAdd(BPF_DW, R2, 0, R3);                 // mem = 105
  a.MovImm(R4, 7);
  a.AtomicAdd(BPF_DW, R2, 0, R4, /*fetch=*/true); // R4 = 105, mem = 112
  a.MovImm(R5, 999);
  a.AtomicXchg(BPF_DW, R2, 0, R5);                // R5 = 112, mem = 999
  a.MovImm(R0, 999);                              // expected
  a.MovImm(R6, 31337);
  a.AtomicCmpXchg(BPF_DW, R2, 0, R6);             // R0 = 999, mem = 31337
  a.StImm(BPF_W, R2, 16, 50);
  a.MovImm(R7, 3);
  a.AtomicAdd(BPF_W, R2, 16, R7, /*fetch=*/true); // R7 = 50 (32-bit)
  a.MovImm(R0, 12345);                            // expected mismatch
  a.MovImm(R8, 1);
  a.AtomicCmpXchg(BPF_W, R2, 16, R8);             // R0 = u32(53), mem keeps 53
  a.Add(R0, R4);
  a.Add(R0, R5);
  a.Add(R0, R7);
  a.Exit();
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  KvPacket pkt;
  ExpectParity(p, pkt.data(), pkt.size(), lo);
}

TEST(Jit, HelperCallParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.MovImm(R1, 96);
  a.Call(kHelperKflexMalloc);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Mov(R6, R0);
  a.StImm(BPF_DW, R6, 0, 31337);
  a.Ldx(BPF_DW, R7, R6, 0);
  a.Mov(R0, R7);
  a.Else(iff);
  a.MovImm(R0, 0);
  a.EndIf(iff);
  a.Exit();
  Program p = MustBuild(a);
  KvPacket pkt;
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size());
  EXPECT_EQ(jit.result.verdict, 31337);
  EXPECT_FALSE(jit.helper_trace.empty());
}

TEST(Jit, UnknownHelperFaultParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.MovImm(R0, 0);
  a.Call(123456);  // not registered
  a.Exit();
  auto p = a.Finish("t", Hook::kXdp, ExtensionMode::kKflex, kHeapSize);
  if (!p.ok()) {
    GTEST_SKIP() << "verifier rejects unknown helpers: " << p.status().ToString();
  }
  KvPacket pkt;
  ExpectParity(*p, pkt.data(), pkt.size());
}

TEST(Jit, BoundedLoopParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.Ldx(BPF_DW, R2, R1, 0);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R2, 0);
  a.AddImm(R0, 3);
  a.SubImm(R2, 1);
  a.LoopEnd(loop);
  a.Exit();
  Program p = MustBuild(a);
  for (uint64_t n : {0ull, 1ull, 17ull, 1000ull}) {
    KvPacket pkt;
    std::memcpy(pkt.data(), &n, 8);
    ExpectParity(p, pkt.data(), pkt.size());
  }
}

TEST(Jit, PreArmedCancellationParity) {
  SKIP_WITHOUT_JIT();
  // C1 terminate load: the runtime zeroes the terminate slot; the second
  // load of the pair dereferences VA 0 and faults. Both engines must fault
  // at the same instrumented pc with the same kind.
  Assembler a;
  a.MovImm(R0, 0);
  auto head = a.NewLabel();
  a.Bind(head);
  a.AddImm(R0, 1);
  a.Jmp(head);
  Program p = MustBuild(a);
  KvPacket pkt;
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size(), {}, {},
                               /*cancel_before_invoke=*/true);
  EXPECT_TRUE(jit.result.cancelled);
  EXPECT_LT(jit.result.insns, 64u);
}

TEST(Jit, ClockSampledFuelParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.MovImm(R0, 0);
  auto head = a.NewLabel();
  a.Bind(head);
  a.AddImm(R0, 1);
  a.Jmp(head);
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.kie.cancellation_mode = CancellationMode::kClockSampled;
  RuntimeOptions ro;
  ro.fuel_quantum_insns = 10'000;
  KvPacket pkt;
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size(), lo, ro);
  EXPECT_TRUE(jit.result.cancelled);
  EXPECT_EQ(jit.result.fault_kind, MemFaultKind::kTerminate);
  EXPECT_GT(jit.result.insns, 9'000u);
  EXPECT_LT(jit.result.insns, 12'000u);
}

TEST(Jit, WatchdogCancelsRunawayJitCode) {
  SKIP_WITHOUT_JIT();
  RuntimeOptions opts;
  opts.num_cpus = 2;
  opts.quantum_ns = 20'000'000;  // 20 ms
  MockKernel kernel{opts};
  Assembler a;
  a.MovImm(R0, 0);
  auto head = a.NewLabel();
  a.Bind(head);
  a.AddImm(R0, 1);
  a.Jmp(head);
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.engine = ExecEngine::kJit;
  auto id = kernel.runtime().Load(p, lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(kernel.runtime().engine_info(*id).used, ExecEngine::kJit)
      << kernel.runtime().engine_info(*id).fallback_reason;
  ASSERT_TRUE(kernel.Attach(*id).ok());
  kernel.runtime().StartWatchdog();

  KvPacket pkt;
  auto start = std::chrono::steady_clock::now();
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  auto elapsed = std::chrono::steady_clock::now() - start;
  kernel.runtime().StopWatchdog();

  EXPECT_TRUE(r.cancelled);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 15);
  EXPECT_TRUE(kernel.runtime().IsUnloaded(*id));
}

TEST(Jit, ObjectTableUnwindReleasesLockFromJitFault) {
  SKIP_WITHOUT_JIT();
  MockKernel kernel;
  Assembler a;
  a.LoadHeapAddr(R1, 64);
  a.Call(kHelperKflexSpinLock);
  a.MovImm(R0, 0);
  auto head = a.NewLabel();
  a.Bind(head);
  a.AddImm(R0, 1);
  a.Jmp(head);
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.engine = ExecEngine::kJit;
  auto id = kernel.runtime().Load(p, lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(kernel.runtime().engine_info(*id).used, ExecEngine::kJit)
      << kernel.runtime().engine_info(*id).fallback_reason;
  ASSERT_TRUE(kernel.Attach(*id).ok());

  kernel.runtime().Cancel(*id);
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(SpinLockOps::IsHeld(kernel.runtime().heap(*id)->HostAt(64)))
      << "lock must be force-released when the JITed code faults";
  auto stats = kernel.runtime().GetStats(*id);
  EXPECT_EQ(stats.resources_released_on_cancel, 1u);
}

TEST(Jit, MapAccessParity) {
  SKIP_WITHOUT_JIT();
  // Array-map value access (lookup helper + direct value deref) exercises
  // the flat VA-window translation cache shared between the engines.
  auto run = [&](ExecEngine engine) {
    EngineRun out;
    Runtime rt;
    auto desc = rt.maps().CreateArray(4, 8, 16);
    EXPECT_TRUE(desc.ok());
    Assembler a;
    a.LoadMapPtr(R1, desc->id);
    a.StImm(BPF_W, R10, -4, 3);
    a.Mov(R2, R10);
    a.AddImm(R2, -4);
    a.Call(kHelperMapLookupElem);
    auto iff = a.IfImm(BPF_JNE, R0, 0);
    a.StImm(BPF_DW, R0, 0, 11);
    a.Ldx(BPF_DW, R0, R0, 0);
    a.EndIf(iff);
    a.Exit();
    auto p = a.Finish("m", Hook::kXdp, ExtensionMode::kEbpf, /*heap=*/0);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    LoadOptions lo;
    lo.engine = engine;
    auto id = rt.Load(*p, lo);
    out.loaded = id.ok();
    if (!out.loaded) {
      return out;
    }
    out.info = rt.engine_info(*id);
    KvPacket pkt;
    out.result = rt.Invoke(*id, 0, pkt.data(), pkt.size(), &out.helper_trace);
    return out;
  };
  EngineRun interp = run(ExecEngine::kInterp);
  EngineRun jit = run(ExecEngine::kJit);
  ASSERT_TRUE(interp.loaded);
  ASSERT_TRUE(jit.loaded);
  EXPECT_EQ(jit.info.used, ExecEngine::kJit) << jit.info.fallback_reason;
  EXPECT_EQ(interp.result.verdict, jit.result.verdict);
  EXPECT_EQ(interp.result.outcome, jit.result.outcome);
  EXPECT_EQ(interp.result.insns, jit.result.insns);
  EXPECT_EQ(jit.result.verdict, 11);
}

TEST(Jit, ForcedFallbackRunsOnInterpreter) {
  // Works on every host: force_fallback must yield a working interpreter
  // extension and a populated fallback reason.
  Assembler a;
  a.MovImm(R0, 55);
  a.Exit();
  Program p = MustBuild(a);
  Runtime rt;
  LoadOptions lo;
  lo.engine = ExecEngine::kJit;
  lo.jit.force_fallback = true;
  auto id = rt.Load(p, lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EngineInfo info = rt.engine_info(*id);
  EXPECT_EQ(info.requested, ExecEngine::kJit);
  EXPECT_EQ(info.used, ExecEngine::kInterp);
  EXPECT_FALSE(info.fallback_reason.empty());
  KvPacket pkt;
  InvokeResult r = rt.Invoke(*id, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 55);
}

TEST(Jit, EngineInfoReportsCompileStats) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 1);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustBuild(a);
  Runtime rt;
  LoadOptions lo;
  lo.engine = ExecEngine::kJit;
  lo.heap_static_bytes = 256;
  auto id = rt.Load(p, lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EngineInfo info = rt.engine_info(*id);
  ASSERT_EQ(info.used, ExecEngine::kJit) << info.fallback_reason;
  EXPECT_GT(info.stats.code_bytes, 0u);
  EXPECT_GT(info.stats.insns_compiled, 0u);
  EXPECT_GT(info.stats.mem_sites, 0u);
  EXPECT_GT(info.stats.inline_fast_paths, 0u);
  EXPECT_GT(info.stats.compile_ns, 0u);
}

TEST(Jit, InterpreterEngineNeverCompiles) {
  Assembler a;
  a.MovImm(R0, 1);
  a.Exit();
  Program p = MustBuild(a);
  Runtime rt;
  auto id = rt.Load(p, LoadOptions{});
  ASSERT_TRUE(id.ok());
  EngineInfo info = rt.engine_info(*id);
  EXPECT_EQ(info.requested, ExecEngine::kInterp);
  EXPECT_EQ(info.used, ExecEngine::kInterp);
  EXPECT_EQ(info.stats.code_bytes, 0u);
}

// ---- JIT v2: linear-scan regalloc, guard hoisting, helper inlining ----
//
// Every v2 pass is independently disableable (JitOptions::regalloc /
// hoist_guards / inline_helpers) so a differential mismatch bisects to a
// single pass; the knob sweeps below run each configuration against the
// interpreter.

LoadOptions V2Load(bool regalloc, bool hoist, bool inline_helpers) {
  LoadOptions lo;
  lo.jit.regalloc = regalloc;
  lo.jit.hoist_guards = hoist;
  lo.jit.inline_helpers = inline_helpers;
  return lo;
}

// Loop storing through an untrusted invariant base. Kie instruments each
// access cluster as `mov r11, r2; sanitize r11; <accesses via r11>`; with the
// base invariant across the loop that pair hoists into the preheader, and the
// two constant-offset accesses off the sanitized scratch get a per-loop
// translation cache held in a dead callee-saved register.
Program GuardedScatterLoop() {
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);  // untrusted delta from ctx
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);             // invariant untrusted base
  a.MovImm(R0, 0);
  a.MovImm(R4, 50);          // trip count
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R2, 0, 7);
  a.Ldx(BPF_DW, R6, R2, 8);
  a.Add(R0, R6);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.Exit();
  return MustBuild(a);
}

TEST(Jit2, GuardedScatterLoopParityAllKnobs) {
  SKIP_WITHOUT_JIT();
  Program p = GuardedScatterLoop();
  for (int knobs = 0; knobs < 8; knobs++) {
    LoadOptions lo = V2Load((knobs & 1) != 0, (knobs & 2) != 0, (knobs & 4) != 0);
    lo.heap_static_bytes = 256;
    // The last delta lands on an unpopulated page: the preheader's presence
    // probe must reject the cache and the slow path must fault exactly like
    // the interpreter (pc, kind, insn counts).
    for (uint64_t delta : {uint64_t{0}, uint64_t{8}, kHeapSize * 3,
                           kHeapSize * 7 + 8, kHeapSize / 2}) {
      KvPacket pkt;
      std::memcpy(pkt.data(), &delta, 8);
      ExpectParity(p, pkt.data(), pkt.size(), lo, {}, false, ExecEngine::kJit2);
    }
  }
}

TEST(Jit2, AtomicsParity) {
  SKIP_WITHOUT_JIT();
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 100);
  a.MovImm(R3, 5);
  a.MovImm(R0, 0);
  a.MovImm(R4, 10);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.AtomicAdd(BPF_DW, R2, 0, R3, /*fetch=*/true);  // R3 = old, mem += 5
  a.Add(R0, R3);
  a.MovImm(R3, 5);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.Exit();
  Program p = MustBuild(a);
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  KvPacket pkt;
  ExpectParity(p, pkt.data(), pkt.size(), lo, {}, false, ExecEngine::kJit2);
}

TEST(Jit2, PreArmedCancellationParity) {
  SKIP_WITHOUT_JIT();
  // C1 terminate loads are excluded from hoisting and caching: the
  // deliberate fault IS the cancellation mechanism and must keep its pc.
  Assembler a;
  a.MovImm(R0, 0);
  auto head = a.NewLabel();
  a.Bind(head);
  a.AddImm(R0, 1);
  a.Jmp(head);
  Program p = MustBuild(a);
  KvPacket pkt;
  EngineRun jit = ExpectParity(p, pkt.data(), pkt.size(), {}, {},
                               /*cancel_before_invoke=*/true, ExecEngine::kJit2);
  EXPECT_TRUE(jit.result.cancelled);
}

TEST(Jit2, EngineInfoReportsOptimizerStats) {
  SKIP_WITHOUT_JIT();
  Program p = GuardedScatterLoop();
  Runtime rt;
  LoadOptions lo;
  lo.engine = ExecEngine::kJit2;
  lo.heap_static_bytes = 256;
  auto id = rt.Load(p, lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EngineInfo info = rt.engine_info(*id);
  ASSERT_EQ(info.used, ExecEngine::kJit2) << info.fallback_reason;
  EXPECT_GT(info.stats.interval_regs, 0u);
  EXPECT_GT(info.stats.interval_pcs, 0u);
  EXPECT_GT(info.stats.hoisted_guards, 0u);
  EXPECT_GT(info.stats.cached_loops, 0u);
  EXPECT_GT(info.stats.cached_accesses, 0u);
  ASSERT_GT(info.stats.spill_sites, 0u);
  EXPECT_LT(info.stats.regs_spilled, info.stats.regs_spilled_v1)
      << "regalloc did not shrink any spill site";
  KvPacket pkt;
  InvokeResult r = rt.Invoke(*id, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
}

// Hash-map lookup inlining: seed a key through the update helper, then look
// it up. The lookup compiles to an inline FNV-1a + open-addressing probe; the
// returned value pointer must match the interpreter's, as must the miss.
TEST(Jit2, HashMapLookupInlineParity) {
  SKIP_WITHOUT_JIT();
  for (bool inline_on : {true, false}) {
    for (uint32_t lookup_key : {5u, 6u}) {  // 5 = hit, 6 = miss
      auto run = [&](ExecEngine engine) {
        EngineRun out;
        Runtime rt;
        auto desc = rt.maps().CreateHash(4, 8, 16);
        EXPECT_TRUE(desc.ok());
        Assembler a;
        a.LoadMapPtr(R1, desc->id);
        a.StImm(BPF_W, R10, -4, 5);  // key 5
        a.Mov(R2, R10);
        a.AddImm(R2, -4);
        a.StImm(BPF_DW, R10, -16, 999);  // value
        a.Mov(R3, R10);
        a.AddImm(R3, -16);
        a.MovImm(R4, 0);
        a.Call(kHelperMapUpdateElem);
        a.LoadMapPtr(R1, desc->id);
        a.StImm(BPF_W, R10, -4, static_cast<int32_t>(lookup_key));
        a.Mov(R2, R10);
        a.AddImm(R2, -4);
        a.Call(kHelperMapLookupElem);
        auto iff = a.IfImm(BPF_JNE, R0, 0);
        a.Ldx(BPF_DW, R0, R0, 0);
        a.EndIf(iff);
        a.Exit();
        auto p = a.Finish("h", Hook::kXdp, ExtensionMode::kEbpf, /*heap=*/0);
        EXPECT_TRUE(p.ok()) << p.status().ToString();
        LoadOptions lo = V2Load(true, true, inline_on);
        lo.engine = engine;
        auto id = rt.Load(*p, lo);
        out.loaded = id.ok();
        if (!out.loaded) {
          return out;
        }
        out.info = rt.engine_info(*id);
        KvPacket pkt;
        // No helper-trace sink: the runtime leaves slow_flags clear, so the
        // inline probe actually runs instead of bailing to the callout.
        out.result = rt.Invoke(*id, 0, pkt.data(), pkt.size());
        return out;
      };
      EngineRun interp = run(ExecEngine::kInterp);
      EngineRun jit = run(ExecEngine::kJit2);
      ASSERT_TRUE(interp.loaded);
      ASSERT_TRUE(jit.loaded);
      ASSERT_EQ(jit.info.used, ExecEngine::kJit2) << jit.info.fallback_reason;
      if (inline_on) {
        EXPECT_EQ(jit.info.stats.inline_helper_sites, 1u);  // lookup, not update
      } else {
        EXPECT_EQ(jit.info.stats.inline_helper_sites, 0u);
      }
      EXPECT_EQ(interp.result.verdict, jit.result.verdict);
      EXPECT_EQ(interp.result.outcome, jit.result.outcome);
      EXPECT_EQ(interp.result.insns, jit.result.insns);
      EXPECT_EQ(interp.result.instr_insns, jit.result.instr_insns);
      EXPECT_EQ(jit.result.verdict, lookup_key == 5 ? 999 : 0);
    }
  }
}

// A chaos point armed *after* the JIT load must still force the inline
// helper fast paths to bail: the trampoline reads armed() on every invoke.
// With helper.ret_err firing on every helper call, the bailed lookup returns
// its documented NULL; an inline probe would have found the seeded value.
TEST(Jit2, FaultArmedAfterLoadForcesInlineBail) {
  SKIP_WITHOUT_JIT();
  Runtime rt;
  auto desc = rt.maps().CreateHash(4, 8, 16);
  ASSERT_TRUE(desc.ok());
  Assembler a;
  a.LoadMapPtr(R1, desc->id);
  a.StImm(BPF_W, R10, -4, 5);
  a.Mov(R2, R10);
  a.AddImm(R2, -4);
  a.StImm(BPF_DW, R10, -16, 999);
  a.Mov(R3, R10);
  a.AddImm(R3, -16);
  a.MovImm(R4, 0);
  a.Call(kHelperMapUpdateElem);
  a.LoadMapPtr(R1, desc->id);
  a.Mov(R2, R10);
  a.AddImm(R2, -4);
  a.Call(kHelperMapLookupElem);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Ldx(BPF_DW, R0, R0, 0);
  a.EndIf(iff);
  a.Exit();
  auto p = a.Finish("h", Hook::kXdp, ExtensionMode::kEbpf, /*heap=*/0);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  LoadOptions lo = V2Load(true, true, true);
  lo.engine = ExecEngine::kJit2;
  auto id = rt.Load(*p, lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EngineInfo info = rt.engine_info(*id);
  ASSERT_EQ(info.used, ExecEngine::kJit2) << info.fallback_reason;
  ASSERT_EQ(info.stats.inline_helper_sites, 1u);
  KvPacket pkt;
  EXPECT_EQ(rt.Invoke(*id, 0, pkt.data(), pkt.size()).verdict, 999);

  ScopedFaultInjection faults{"helper.ret_err:every=1"};
  InvokeResult r = rt.Invoke(*id, 0, pkt.data(), pkt.size());
  EXPECT_EQ(r.verdict, 0) << "inline lookup ignored the armed helper.ret_err";
  // Both helper calls went through the callout, so both hit the point.
  EXPECT_EQ(FaultRegistry::Instance().Point("helper.ret_err").hits(), 2u);
}

// Array-map lookup inlining: statically-known map id + in-range/oob index.
TEST(Jit2, ArrayMapLookupInlineParity) {
  SKIP_WITHOUT_JIT();
  for (int32_t idx : {3, 99}) {  // 99 >= max_entries -> NULL
    auto run = [&](ExecEngine engine) {
      EngineRun out;
      Runtime rt;
      auto desc = rt.maps().CreateArray(4, 8, 16);
      EXPECT_TRUE(desc.ok());
      Assembler a;
      a.LoadMapPtr(R1, desc->id);
      a.StImm(BPF_W, R10, -4, idx);
      a.Mov(R2, R10);
      a.AddImm(R2, -4);
      a.Call(kHelperMapLookupElem);
      auto iff = a.IfImm(BPF_JNE, R0, 0);
      a.StImm(BPF_DW, R0, 0, 4242);
      a.Ldx(BPF_DW, R0, R0, 0);
      a.EndIf(iff);
      a.Exit();
      auto p = a.Finish("arr", Hook::kXdp, ExtensionMode::kEbpf, /*heap=*/0);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      LoadOptions lo;
      lo.engine = engine;
      auto id = rt.Load(*p, lo);
      out.loaded = id.ok();
      if (!out.loaded) {
        return out;
      }
      out.info = rt.engine_info(*id);
      KvPacket pkt;
      out.result = rt.Invoke(*id, 0, pkt.data(), pkt.size());
      return out;
    };
    EngineRun interp = run(ExecEngine::kInterp);
    EngineRun jit = run(ExecEngine::kJit2);
    ASSERT_TRUE(interp.loaded);
    ASSERT_TRUE(jit.loaded);
    ASSERT_EQ(jit.info.used, ExecEngine::kJit2) << jit.info.fallback_reason;
    EXPECT_EQ(jit.info.stats.inline_helper_sites, 1u);
    EXPECT_EQ(interp.result.verdict, jit.result.verdict);
    EXPECT_EQ(interp.result.insns, jit.result.insns);
    EXPECT_EQ(jit.result.verdict, idx == 3 ? 4242 : 0);
  }
}

TEST(Jit, EbpfCompatModeParity) {
  SKIP_WITHOUT_JIT();
  // Stack + ctx only, no heap: the classic eBPF subset.
  Assembler a;
  a.Ldx(BPF_W, R2, R1, 0);
  a.Stx(BPF_W, R10, -4, R2);
  a.Ldx(BPF_W, R0, R10, -4);
  a.AddImm(R0, 9);
  a.Exit();
  auto p = a.Finish("compat", Hook::kXdp, ExtensionMode::kEbpf, 0);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  KvPacket pkt;
  uint32_t v = 0x1000;
  std::memcpy(pkt.data(), &v, 4);
  ExpectParity(*p, pkt.data(), pkt.size());
}

}  // namespace
}  // namespace kflex
