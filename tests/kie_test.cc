// Kie instrumentation: guard emission/elision, cancellation-point insertion,
// jump retargeting, pseudo-instruction concretization, translate-on-store,
// and the SFI masking property (sanitized addresses always land in the heap).
#include "src/kie/kie.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/ebpf/text_asm.h"
#include "src/runtime/heap.h"
#include "src/runtime/vm.h"
#include "src/verifier/verifier.h"

namespace kflex {
namespace {

constexpr uint64_t kHeapSize = 1 << 20;

struct Pipeline {
  Program program;
  Analysis analysis;
  HeapLayout layout;
};

Pipeline VerifyProgram(Assembler& a, uint64_t heap = kHeapSize) {
  auto p = a.Finish("t", Hook::kXdp, ExtensionMode::kKflex, heap);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto analysis = Verify(*p, VerifyOptions{});
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  return Pipeline{std::move(p).value(), std::move(analysis).value(),
                  HeapLayout::ForSize(heap)};
}

size_t CountOpcode(const Program& p, uint8_t opcode) {
  size_t n = 0;
  for (size_t i = 0; i < p.insns.size(); i++) {
    if (p.insns[i].opcode == opcode) {
      n++;
    }
    if (p.insns[i].IsLdImm64()) {
      i++;
    }
  }
  return n;
}

TEST(Kie, ElidedAccessGetsNoGuard) {
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 42);
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  EXPECT_EQ(CountOpcode(ip->program, kKieSanitizeOpcode), 0u);
}

TEST(Kie, UnprovenAccessGetsGuard) {
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 42);
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  EXPECT_EQ(ip->stats.guards_emitted, 1u);
  size_t sanitizes = 0;
  for (const Insn& insn : ip->program.insns) {
    if (insn.opcode == kKieSanitizeOpcode) {
      sanitizes++;
    }
  }
  EXPECT_EQ(sanitizes, 1u);
}

TEST(Kie, ElisionDisabledGuardsEverything) {
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 42);
  a.Ldx(BPF_DW, R0, R2, 8);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  KieOptions opts;
  opts.elide_guards = false;
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, opts);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.guards_emitted, 2u);
  EXPECT_EQ(ip->stats.guards_elided, 0u);
}

TEST(Kie, PerformanceModeSkipsReadGuards) {
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.Ldx(BPF_DW, R0, R2, 0);   // unproven read
  a.Stx(BPF_DW, R2, 8, R0);   // unproven write
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  KieOptions pm;
  pm.performance_mode = true;
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, pm);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.guards_emitted, 1u);  // only the store
}

TEST(Kie, SfiDisabledEmitsNothing) {
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.Stx(BPF_DW, R2, 0, R3);
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  KieOptions kmod;
  kmod.sfi = false;
  kmod.cancellation = false;
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, kmod);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.guards_emitted, 0u);
  EXPECT_EQ(ip->program.insns.size(), pl.program.insns.size());
}

TEST(Kie, CancellationBackEdgeGetsTerminateLoad) {
  Assembler a;
  a.Ldx(BPF_DW, R2, R1, 0);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R2, 0);
  a.SubImm(R2, 2);
  a.LoopEnd(loop);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  ASSERT_EQ(pl.analysis.cancellation_back_edges.size(), 1u);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.cancellation_points, 1u);
  EXPECT_EQ(ip->terminate_load_pcs.size(), 1u);
  // The loop must still execute correctly after retargeting.
  VmEnv env;
  uint8_t ctx[2048] = {0};
  ctx[0] = 10;  // R2 = 10 -> 5 iterations
  env.ctx = ctx;
  env.ctx_size = sizeof(ctx);
  HeapSpec spec;
  spec.size = kHeapSize;
  auto heap = ExtensionHeap::Create(spec);
  ASSERT_TRUE(heap.ok());
  env.heap = heap.value().get();
  VmResult r = VmRun(ip->program.insns, env);
  EXPECT_EQ(r.outcome, VmResult::Outcome::kOk);
}

TEST(Kie, HeapVarConcretizedToAbsoluteVa) {
  Assembler a;
  a.LoadHeapAddr(R2, 128);
  a.Ldx(BPF_DW, R0, R2, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok());
  const Insn& lo = ip->program.insns[0];
  ASSERT_TRUE(lo.IsLdImm64());
  EXPECT_EQ(lo.src, kPseudoNone);
  EXPECT_EQ(LdImm64Value(lo, ip->program.insns[1]), pl.layout.kernel_base + 128);
}

TEST(Kie, TranslateOnStoreRewritesHeapPointerStores) {
  Assembler a;
  a.MovImm(R1, 64);
  a.Call(kHelperKflexMalloc);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.LoadHeapAddr(R2, 64);
  a.Stx(BPF_DW, R2, 0, R0);  // store heap pointer -> translate
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  KieOptions opts;
  opts.translate_on_store = true;
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, opts);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.translations, 1u);
  size_t translates = 0;
  for (const Insn& insn : ip->program.insns) {
    if (insn.opcode == kKieTranslateOpcode) {
      translates++;
    }
  }
  EXPECT_EQ(translates, 1u);
}

TEST(Kie, ObjectTablesRemapToInstrumentedPcs) {
  Assembler a;
  // Acquire a socket, then touch the heap (C2 Cp) while holding it.
  a.Mov(R7, R1);  // save ctx: R1-R5 are clobbered by the call
  a.StImm(BPF_W, R10, -16, 1);
  a.StImm(BPF_W, R10, -12, 2);
  a.Mov(R2, R10);
  a.AddImm(R2, -16);
  a.MovImm(R3, 8);
  a.MovImm(R4, 0);
  a.MovImm(R5, 0);
  a.Call(kHelperSkLookupUdp);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Mov(R6, R0);
  a.MovImm(R0, 0);
  a.Ldx(BPF_DW, R3, R7, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 5);  // guarded heap access while socket held
  a.Mov(R1, R6);
  a.Call(kHelperSkRelease);
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok());
  ASSERT_FALSE(ip->object_tables.empty());
  for (const auto& [pc, table] : ip->object_tables) {
    ASSERT_LT(pc, ip->program.insns.size());
    const Insn& insn = ip->program.insns[pc];
    EXPECT_TRUE(insn.IsStore() || insn.IsLoad() || insn.IsCall() || insn.IsAtomic())
        << "pc " << pc << " is " << InsnToString(insn);
  }
}

TEST(Kie, DeadHandlePrunedFromObjectTable) {
  // The socket handle is copied into R6 (never used again: dead at the Cp)
  // and R8 (used for the release: live at the Cp). Liveness-driven entry
  // selection must record the live alias only -- the old location policy
  // would have picked the first alias in register order (R6).
  Assembler a;
  a.Mov(R7, R1);  // save ctx: R1-R5 are clobbered by the call
  a.StImm(BPF_W, R10, -16, 1);
  a.StImm(BPF_W, R10, -12, 2);
  a.Mov(R2, R10);
  a.AddImm(R2, -16);
  a.MovImm(R3, 8);
  a.MovImm(R4, 0);
  a.MovImm(R5, 0);
  a.Call(kHelperSkLookupUdp);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Mov(R6, R0);  // dead alias
  a.Mov(R8, R0);  // live alias
  a.MovImm(R0, 0);
  a.Ldx(BPF_DW, R3, R7, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 5);  // guarded heap access (C2 Cp) while socket held
  a.Mov(R1, R8);
  a.Call(kHelperSkRelease);
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);

  EXPECT_GE(pl.analysis.pruned_object_entries, 1u);
  bool saw_socket_entry = false;
  for (const auto& [pc, table] : pl.analysis.object_tables) {
    for (const ObjectTableEntry& e : table) {
      if (e.kind == ResourceKind::kSocket) {
        saw_socket_entry = true;
        EXPECT_EQ(e.reg, R8) << "entry must use the live alias, not dead R6/R0";
      }
    }
  }
  EXPECT_TRUE(saw_socket_entry);

  // The pruning is accounting-only: instrumentation still succeeds and the
  // surviving entry remaps like any other.
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  EXPECT_EQ(ip->stats.pruned_object_entries, pl.analysis.pruned_object_entries);
}

TEST(Kie, GuardAndTranslateComposeWithTwoScratchRegisters) {
  // Store of a heap pointer through an UNPROVEN base: needs both the
  // translate (src -> RAX) and the guard (base -> RBX).
  Assembler a;
  a.Mov(R6, R1);  // save ctx across the call
  a.MovImm(R1, 64);
  a.Call(kHelperKflexMalloc);
  auto null = a.IfImm(BPF_JEQ, R0, 0);
  a.MovImm(R0, 0);
  a.Exit();
  a.EndIf(null);
  a.Ldx(BPF_DW, R3, R6, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);             // unproven base
  a.Stx(BPF_DW, R2, 0, R0);  // store heap pointer
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  KieOptions opts;
  opts.translate_on_store = true;
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, opts);
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  bool used_rbx = false;
  for (const Insn& insn : ip->program.insns) {
    if (insn.opcode == kKieSanitizeOpcode && insn.dst == RBX) {
      used_rbx = true;
    }
  }
  EXPECT_TRUE(used_rbx) << "combined guard+translate must use the second scratch register";
  EXPECT_EQ(ip->stats.translations, 1u);
  EXPECT_GE(ip->stats.guards_emitted, 1u);
}

TEST(Kie, ClockSampledModeEmitsFuelChecks) {
  Assembler a;
  a.Ldx(BPF_DW, R2, R1, 0);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R2, 0);
  a.SubImm(R2, 2);
  a.LoopEnd(loop);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  KieOptions opts;
  opts.cancellation_mode = CancellationMode::kClockSampled;
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, opts);
  ASSERT_TRUE(ip.ok());
  size_t fuel = 0;
  for (const Insn& insn : ip->program.insns) {
    if (insn.opcode == kKieFuelCheckOpcode) {
      fuel++;
    }
  }
  EXPECT_EQ(fuel, 1u);
  EXPECT_EQ(ip->stats.cancellation_points, 1u);
  // One pseudo-insn instead of the 4-slot terminate sequence.
  auto ip_term = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip_term.ok());
  EXPECT_LT(ip->program.insns.size(), ip_term->program.insns.size());
}

TEST(Kie, InstrumentationMaskCoversOnlyInsertedInsns) {
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 1);  // guarded
  a.MovImm(R0, 0);
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok());
  ASSERT_EQ(ip->instrumentation_mask.size(), ip->program.insns.size());
  size_t marked = 0;
  for (size_t i = 0; i < ip->instrumentation_mask.size(); i++) {
    if (ip->instrumentation_mask[i] != 0) {
      marked++;
      const Insn& insn = ip->program.insns[i];
      EXPECT_TRUE(insn.opcode == kKieSanitizeOpcode || insn.opcode == kKieTranslateOpcode ||
                  insn.opcode == kKieFuelCheckOpcode ||
                  (insn.IsAlu() && insn.AluOpField() == BPF_MOV) || insn.IsLdImm64() ||
                  insn.opcode == 0 /* ld_imm64 hi slot */ || insn.IsLoad())
          << InsnToString(insn);
    }
  }
  EXPECT_EQ(marked, 2u);  // MOV + SANITIZE for the one guard
}

// Property: for random addresses, executing SANITIZE always yields an
// address within the heap window, and in-heap addresses are unchanged.
TEST(Kie, SanitizePropertySweep) {
  HeapSpec spec;
  spec.size = kHeapSize;
  auto heap = ExtensionHeap::Create(spec);
  ASSERT_TRUE(heap.ok());
  const HeapLayout& layout = heap.value()->layout();
  Rng rng(4242);
  for (int i = 0; i < 10000; i++) {
    uint64_t addr = rng.Next();
    uint64_t sanitized = layout.kernel_base + (addr & layout.mask());
    ASSERT_GE(sanitized, layout.kernel_base);
    ASSERT_LT(sanitized, layout.kernel_end());
    uint64_t inside = layout.kernel_base + (rng.Next() & layout.mask());
    uint64_t sanitized_inside = layout.kernel_base + (inside & layout.mask());
    ASSERT_EQ(sanitized_inside, inside);
  }
}

TEST(Kie, StatsMatchAnalysis) {
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 1);   // elided
  a.Ldx(BPF_DW, R3, R2, 8);    // elided load
  a.Ldx(BPF_DW, R0, R3, 0);    // formation guard
  a.Exit();
  Pipeline pl = VerifyProgram(a);
  auto ip = Instrument(pl.program, pl.analysis, pl.layout, KieOptions{});
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.pointer_guard_sites, 2u);
  EXPECT_EQ(ip->stats.guards_elided, 2u);
  EXPECT_EQ(ip->stats.formation_guards, 1u);
  EXPECT_EQ(pl.analysis.elided_guards, 2u);
  EXPECT_EQ(pl.analysis.formation_guards, 1u);
}

}  // namespace
}  // namespace kflex
