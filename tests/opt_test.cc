// Bytecode optimizer (src/verifier/opt.h): one test block per pass.
//
//  * SCCP: constant ALU folding, decided-branch folding, infeasible-code
//    removal — all on the verifier's own tnum + bounds lattice.
//  * Available-guard analysis: dominated SANITIZEs are skipped, including
//    the sharp cases — §5.4 formation guards are never elided, availability
//    dies at base redefinitions, helper calls, and C1 cancellation points.
//  * Dead stack-store elimination, including the unwinder's object-table
//    slot protection.
//  * The register def/use model every pass reads (InsnRegEffects), checked
//    against the reference interpreter.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "src/base/rng.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/kie/kie.h"
#include "src/runtime/runtime.h"
#include "src/runtime/vm.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/opt.h"
#include "src/verifier/verifier.h"

namespace kflex {
namespace {

constexpr uint64_t kHeap = 1 << 20;

Program MustFinish(Assembler& a, ExtensionMode mode, uint64_t heap_size) {
  auto p = a.Finish("opt_test", Hook::kXdp, mode, heap_size);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

struct Optimized {
  Program program;
  Analysis analysis;
  OptResult opt;
};

Optimized MustOptimize(const Program& p) {
  auto analysis = Verify(p, VerifyOptions{});
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString() << "\n" << ProgramToString(p);
  auto opt = Optimize(p, *analysis);
  EXPECT_TRUE(opt.ok()) << opt.status().ToString();
  return {p, std::move(analysis).value(), std::move(opt).value()};
}

// ---- SCCP -------------------------------------------------------------------

TEST(SccpTest, ConstantAluChainsFoldToMovImm) {
  Assembler a;
  a.MovImm(R2, 5);
  a.AluImm(BPF_ADD, R2, 3);   // r2 = 8
  a.AluImm(BPF_LSH, R2, 4);   // r2 = 128
  a.Mov(R3, R2);              // r3 = 128, breaks the dependency
  a.AluReg(BPF_ADD, R3, R2);  // r3 = 256
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  Optimized o = MustOptimize(p);
  EXPECT_EQ(o.opt.plan.stats.alu_folded, 4u);
  EXPECT_EQ(o.opt.program.insns[1], MovImmInsn(R2, 8));
  EXPECT_EQ(o.opt.program.insns[2], MovImmInsn(R2, 128));
  EXPECT_EQ(o.opt.program.insns[3], MovImmInsn(R3, 128));
  EXPECT_EQ(o.opt.program.insns[4], MovImmInsn(R3, 256));
  // Layout is preserved: same instruction count as the input.
  EXPECT_EQ(o.opt.program.insns.size(), p.insns.size());
}

TEST(SccpTest, UntrackedOperandsNeverFold) {
  Assembler a;
  a.Ldx(BPF_W, R2, R1, 0);   // ctx load: unknown at compile time
  a.AluImm(BPF_ADD, R2, 3);  // must stay an ADD
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  Optimized o = MustOptimize(p);
  EXPECT_EQ(o.opt.plan.stats.alu_folded, 0u);
  EXPECT_EQ(o.opt.program.insns[1], p.insns[1]);
}

TEST(SccpTest, DecidedBranchFoldsAndDeadSideIsRemoved) {
  Assembler a;
  a.MovImm(R2, 7);
  auto iff = a.IfImm(BPF_JEQ, R2, 7);  // always the then-branch
  a.MovImm(R0, 1);
  a.Else(iff);
  a.MovImm(R0, 2);  // infeasible
  a.EndIf(iff);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  Optimized o = MustOptimize(p);
  EXPECT_EQ(o.opt.plan.stats.const_branches_folded, 1u);
  EXPECT_GE(o.opt.plan.stats.unreachable_removed, 1u);
  size_t removed = 0;
  for (uint8_t r : o.opt.plan.removed) {
    removed += r;
  }
  EXPECT_GE(removed, 1u);

  // End to end through the default (optimizing) runtime: verdict 1.
  Runtime rt{RuntimeOptions{1}};
  auto id = rt.Load(p, LoadOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // The instrumented program physically shrank.
  EXPECT_LT(rt.instrumented(*id).program.insns.size(), p.insns.size());
  uint8_t ctx[64] = {0};
  InvokeResult r = rt.Invoke(*id, 0, ctx, sizeof(ctx));
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 1);
}

TEST(SccpTest, RangeDisjointnessDecidesNonConstBranches) {
  Assembler a;
  a.Ldx(BPF_B, R2, R1, 0);  // unknown, but provably in [0, 255]
  auto iff = a.IfImm(BPF_JGT, R2, 300);  // never true
  a.MovImm(R0, 1);
  a.Else(iff);
  a.MovImm(R0, 2);
  a.EndIf(iff);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  Optimized o = MustOptimize(p);
  EXPECT_EQ(o.opt.plan.stats.const_branches_folded, 1u);
}

// ---- Dominated guards -------------------------------------------------------

// Base pointer with an unprovable offset: guard required at every access.
// R7 = heap_base + (unknown 32-bit ctx value).
void EmitUnprovenBase(Assembler& a, Reg base) {
  a.Ldx(BPF_W, R6, R1, 0);
  a.LoadHeapAddr(base, 0);
  a.Add(base, R6);
}

TEST(DominatedGuardTest, StraightLineRunOfAccessesKeepsOneGuard) {
  Assembler a;
  a.MovImm(R2, 1);
  EmitUnprovenBase(a, R7);
  size_t s1 = a.CurrentPc();
  a.Stx(BPF_DW, R7, 0, R2);   // guard emitted
  size_t s2 = a.CurrentPc();
  a.Stx(BPF_DW, R7, 8, R2);   // dominated
  size_t s3 = a.CurrentPc();
  a.Ldx(BPF_DW, R3, R7, 16);  // dominated (load through the same base)
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  Optimized o = MustOptimize(p);
  EXPECT_FALSE(o.opt.plan.dominated[s1]);
  EXPECT_TRUE(o.opt.plan.dominated[s2]);
  EXPECT_TRUE(o.opt.plan.dominated[s3]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 2u);

  HeapLayout layout = HeapLayout::ForSize(kHeap);
  auto with_plan = Instrument(o.opt.program, o.opt.analysis, layout, KieOptions{}, &o.opt.plan);
  ASSERT_TRUE(with_plan.ok());
  EXPECT_EQ(with_plan->stats.guards_emitted, 1u);
  EXPECT_EQ(with_plan->stats.guards_dominated, 2u);

  auto without = Instrument(p, o.analysis, layout, KieOptions{});
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->stats.guards_emitted, 3u);
  EXPECT_EQ(without->stats.guards_dominated, 0u);
  // Dominated sites drop their MOV+SANITIZE pair: two instructions each.
  EXPECT_EQ(without->program.insns.size(), with_plan->program.insns.size() + 4);
}

TEST(DominatedGuardTest, OptimizedAndUnoptimizedAgreeAtRuntime) {
  Assembler a;
  a.MovImm(R2, 0x2A);
  EmitUnprovenBase(a, R7);
  a.Stx(BPF_DW, R7, 0, R2);
  a.Stx(BPF_DW, R7, 8, R2);
  a.Ldx(BPF_DW, R0, R7, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  LoadOptions lo;
  lo.heap_static_bytes = 4096;
  LoadOptions lo_noopt = lo;
  lo_noopt.optimize = false;

  Runtime rt_opt{RuntimeOptions{1}};
  Runtime rt_ref{RuntimeOptions{1}};
  auto id_opt = rt_opt.Load(p, lo);
  auto id_ref = rt_ref.Load(p, lo_noopt);
  ASSERT_TRUE(id_opt.ok() && id_ref.ok());
  EXPECT_GT(rt_opt.instrumented(*id_opt).stats.guards_dominated, 0u);
  EXPECT_EQ(rt_ref.instrumented(*id_ref).stats.guards_dominated, 0u);

  uint8_t ctx[64] = {0};  // offset 0: lands in the populated statics area
  InvokeResult ro = rt_opt.Invoke(*id_opt, 0, ctx, sizeof(ctx));
  InvokeResult rr = rt_ref.Invoke(*id_ref, 0, ctx, sizeof(ctx));
  EXPECT_FALSE(ro.cancelled);
  EXPECT_FALSE(rr.cancelled);
  EXPECT_EQ(ro.verdict, 0x2A);
  EXPECT_EQ(rr.verdict, 0x2A);
  EXPECT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0), rt_ref.heap(*id_ref)->HostAt(0),
                           kHeap));
  // The dominated guard saves executed instructions.
  EXPECT_LT(ro.insns, rr.insns);
}

TEST(DominatedGuardTest, FormationGuardsAreNeverDominated) {
  Assembler a;
  a.MovImm(R2, 1);
  a.Ldx(BPF_DW, R6, R1, 0);  // untrusted scalar from ctx
  size_t f1 = a.CurrentPc();
  a.Stx(BPF_DW, R6, 0, R2);  // formation guard (§5.4)
  size_t f2 = a.CurrentPc();
  a.Stx(BPF_DW, R6, 8, R2);  // still a formation guard: never dominated
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  Optimized o = MustOptimize(p);
  ASSERT_TRUE(o.analysis.mem[f1].formation);
  ASSERT_TRUE(o.analysis.mem[f2].formation);
  EXPECT_FALSE(o.opt.plan.dominated[f1]);
  EXPECT_FALSE(o.opt.plan.dominated[f2]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 0u);

  auto ip = Instrument(o.opt.program, o.opt.analysis, HeapLayout::ForSize(kHeap), KieOptions{},
                       &o.opt.plan);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.formation_guards, 2u);
}

TEST(DominatedGuardTest, BaseRedefinitionKillsAvailability) {
  Assembler a;
  a.MovImm(R2, 1);
  EmitUnprovenBase(a, R7);
  a.Stx(BPF_DW, R7, 0, R2);
  a.AddImm(R7, 8);  // base changed: RAX no longer matches sanitize(r7)
  size_t s2 = a.CurrentPc();
  a.Stx(BPF_DW, R7, 0, R2);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  Optimized o = MustOptimize(p);
  EXPECT_FALSE(o.opt.plan.dominated[s2]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 0u);
}

TEST(DominatedGuardTest, HelperCallKillsAvailability) {
  Assembler a;
  a.MovImm(R2, 1);
  EmitUnprovenBase(a, R7);
  a.Stx(BPF_DW, R7, 0, R2);
  a.Call(kHelperKtimeGetNs);
  size_t s2 = a.CurrentPc();
  a.Stx(BPF_DW, R7, 0, R0);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  Optimized o = MustOptimize(p);
  EXPECT_FALSE(o.opt.plan.dominated[s2]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 0u);
}

TEST(DominatedGuardTest, OnlyJoinOfGuardedPathsDominates) {
  // Guard on one branch arm only: the meet over paths must not claim
  // availability at the join point.
  Assembler a;
  a.MovImm(R2, 1);
  EmitUnprovenBase(a, R7);
  a.Ldx(BPF_W, R3, R1, 4);
  auto iff = a.IfImm(BPF_JEQ, R3, 0);
  a.Stx(BPF_DW, R7, 0, R2);  // guard only on this arm
  a.EndIf(iff);
  size_t s2 = a.CurrentPc();
  a.Stx(BPF_DW, R7, 8, R2);  // join point: not dominated
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  Optimized o = MustOptimize(p);
  EXPECT_FALSE(o.opt.plan.dominated[s2]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 0u);
}

// The sharp cancellation-point pair. Identical loops over a guarded store;
// the only difference is the loop bound (constant vs. ctx-loaded). The
// bounded loop needs no cancellation point, so availability flows around the
// back edge and both the in-loop and after-loop stores are dominated by the
// pre-loop guard. The unbounded loop gets a C1 Cp on its back edge, whose
// terminate-load sequence clobbers the scratch register on both outgoing
// paths — availability dies, every store pays its own guard.
struct LoopSites {
  Program program;
  size_t pre, in_loop, after;
};

LoopSites BuildLoopProgram(bool bounded) {
  Assembler a;
  a.MovImm(R2, 1);
  EmitUnprovenBase(a, R7);
  if (bounded) {
    a.MovImm(R8, 4);
  } else {
    a.Ldx(BPF_W, R8, R1, 4);
  }
  LoopSites s;
  s.pre = a.CurrentPc();
  a.Stx(BPF_DW, R7, 0, R2);  // pre-loop guard: generates availability
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R8, 0);
  s.in_loop = a.CurrentPc();
  a.Stx(BPF_DW, R7, 8, R2);
  a.SubImm(R8, 1);
  a.LoopEnd(loop);
  s.after = a.CurrentPc();
  a.Stx(BPF_DW, R7, 16, R2);
  a.MovImm(R0, 0);
  a.Exit();
  s.program = MustFinish(a, ExtensionMode::kKflex, kHeap);
  return s;
}

TEST(DominatedGuardTest, BoundedLoopCarriesAvailabilityAroundBackEdge) {
  LoopSites s = BuildLoopProgram(/*bounded=*/true);
  Optimized o = MustOptimize(s.program);
  ASSERT_TRUE(o.analysis.cancellation_back_edges.empty());
  EXPECT_FALSE(o.opt.plan.dominated[s.pre]);
  EXPECT_TRUE(o.opt.plan.dominated[s.in_loop]);
  EXPECT_TRUE(o.opt.plan.dominated[s.after]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 2u);
}

TEST(DominatedGuardTest, CancellationPointKillsAvailability) {
  LoopSites s = BuildLoopProgram(/*bounded=*/false);
  Optimized o = MustOptimize(s.program);
  ASSERT_FALSE(o.analysis.cancellation_back_edges.empty());
  EXPECT_FALSE(o.opt.plan.dominated[s.pre]);
  EXPECT_FALSE(o.opt.plan.dominated[s.in_loop]);
  EXPECT_FALSE(o.opt.plan.dominated[s.after]);
  EXPECT_EQ(o.opt.plan.stats.guards_dominated, 0u);
}

TEST(DominatedGuardTest, PlanIsIgnoredUnderMismatchedKieOptions) {
  Assembler a;
  a.MovImm(R2, 1);
  EmitUnprovenBase(a, R7);
  a.Stx(BPF_DW, R7, 0, R2);
  a.Stx(BPF_DW, R7, 8, R2);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kKflex, kHeap);

  Optimized o = MustOptimize(p);
  ASSERT_EQ(o.opt.plan.stats.guards_dominated, 1u);

  // Translate-on-store and performance mode change which instructions write
  // the scratch register: the availability model no longer holds and Kie
  // must fall back to full guards.
  KieOptions translate;
  translate.translate_on_store = true;
  auto ip = Instrument(o.opt.program, o.opt.analysis, HeapLayout::ForSize(kHeap), translate,
                       &o.opt.plan);
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->stats.guards_dominated, 0u);
  EXPECT_EQ(ip->stats.guards_emitted, 2u);

  KieOptions perf;
  perf.performance_mode = true;
  auto ip2 = Instrument(o.opt.program, o.opt.analysis, HeapLayout::ForSize(kHeap), perf,
                        &o.opt.plan);
  ASSERT_TRUE(ip2.ok());
  EXPECT_EQ(ip2->stats.guards_dominated, 0u);
}

// ---- Dead stack stores ------------------------------------------------------

TEST(DeadStoreTest, UnreadSlotIsRemovedLiveSlotIsKept) {
  Assembler a;
  a.MovImm(R2, 42);
  size_t d1 = a.CurrentPc();
  a.Stx(BPF_DW, R10, -8, R2);   // never read
  size_t d2 = a.CurrentPc();
  a.Stx(BPF_DW, R10, -16, R2);  // read back below
  a.Ldx(BPF_DW, R0, R10, -16);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  Optimized o = MustOptimize(p);
  EXPECT_TRUE(o.opt.plan.removed[d1]);
  EXPECT_FALSE(o.opt.plan.removed[d2]);
  EXPECT_EQ(o.opt.plan.stats.dead_stores_removed, 1u);

  // Runs identically without the dead store.
  Runtime rt{RuntimeOptions{1}};
  auto id = rt.Load(p, LoadOptions{});
  ASSERT_TRUE(id.ok());
  uint8_t ctx[64] = {0};
  EXPECT_EQ(rt.Invoke(*id, 0, ctx, sizeof(ctx)).verdict, 42);
}

TEST(DeadStoreTest, StoreBeforeHelperCallStaysLive) {
  // Helpers may read any stack slot (they receive pointers into the frame),
  // so liveness keeps stores ahead of calls.
  Assembler a;
  a.MovImm(R2, 42);
  size_t d1 = a.CurrentPc();
  a.Stx(BPF_DW, R10, -8, R2);
  a.Call(kHelperKtimeGetNs);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  Optimized o = MustOptimize(p);
  EXPECT_FALSE(o.opt.plan.removed[d1]);
  EXPECT_EQ(o.opt.plan.stats.dead_stores_removed, 0u);
}

TEST(DeadStoreTest, ObjectTableSlotsAreProtected) {
  // The cancellation unwinder reads resource handles from stack slots named
  // by object tables (runtime.cc Unwind); a store into such a slot must
  // survive DSE even when the bytecode itself never reads it back.
  Assembler a;
  a.MovImm(R2, 42);
  size_t d1 = a.CurrentPc();
  a.Stx(BPF_DW, R10, -8, R2);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, ExtensionMode::kEbpf, 0);

  auto analysis = Verify(p, VerifyOptions{});
  ASSERT_TRUE(analysis.ok());
  const int slot = Liveness::SlotForOffset(-8);
  ASSERT_GE(slot, 0);

  // Without a table entry the store is dead.
  auto plain = Optimize(p, *analysis);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->plan.removed[d1]);

  // With a table entry naming the slot it must be preserved.
  Analysis guarded = *analysis;
  ObjectTableEntry entry;
  entry.kind = ResourceKind::kSocket;
  entry.destructor = kHelperSkRelease;
  entry.stack_slot = slot;
  guarded.object_tables[d1].insert(entry);
  auto kept = Optimize(p, guarded);
  ASSERT_TRUE(kept.ok());
  EXPECT_FALSE(kept->plan.removed[d1]);
  EXPECT_EQ(kept->plan.stats.dead_stores_removed, 0u);
}

// ---- Register def/use model ---------------------------------------------------

using RegFile = std::array<uint64_t, kNumRegs>;

// One instance of every ALU/ALU32 form, ld_imm64, stack LDX/ST/STX at every
// width and every stack atomic the verifier accepts, on random registers
// R0-R9 (ld_imm64 as its two-slot pair).
std::vector<std::vector<Insn>> RegEffectsForms(Rng& rng) {
  auto reg = [&] { return static_cast<Reg>(rng.NextBounded(10)); };
  auto slot = [&] { return static_cast<int16_t>(-8 * static_cast<int>(1 + rng.NextBounded(16))); };
  std::vector<std::vector<Insn>> forms;
  for (bool is64 : {true, false}) {
    for (AluOp op : {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_OR, BPF_AND, BPF_LSH, BPF_RSH,
                     BPF_MOD, BPF_XOR, BPF_MOV, BPF_ARSH}) {
      bool shift = op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH;
      int32_t imm = static_cast<int32_t>(shift ? rng.NextBounded(is64 ? 64 : 32) : rng.Next());
      forms.push_back({AluImmInsn(op, reg(), imm, is64)});
      forms.push_back({AluRegInsn(op, reg(), reg(), is64)});
    }
    forms.push_back({NegInsn(reg(), is64)});
  }
  uint64_t imm64 = rng.Next();
  forms.push_back({LdImm64Insn(reg(), imm64), LdImm64HiInsn(imm64)});
  for (MemSize size : {BPF_B, BPF_H, BPF_W, BPF_DW}) {
    forms.push_back({LdxInsn(size, reg(), R10, slot())});
    forms.push_back({StxInsn(size, R10, slot(), reg())});
    forms.push_back({StImmInsn(size, R10, slot(), static_cast<int32_t>(rng.Next()))});
  }
  for (MemSize size : {BPF_W, BPF_DW}) {
    for (int32_t aop : {BPF_ATOMIC_ADD, BPF_ATOMIC_ADD | BPF_ATOMIC_FETCH, BPF_ATOMIC_XCHG,
                        BPF_ATOMIC_CMPXCHG}) {
      forms.push_back({AtomicInsn(size, R10, slot(), reg(), aop)});
    }
  }
  return forms;
}

// Runs `form` in the reference interpreter with R0-R9 = `regs` and the given
// stack contents; returns the final register file.
RegFile RunForm(const std::vector<Insn>& form, const RegFile& regs,
                const std::vector<uint8_t>& stack) {
  std::vector<Insn> prog;
  for (int r = R0; r <= R9; r++) {
    prog.push_back(LdImm64Insn(static_cast<Reg>(r), regs[r]));
    prog.push_back(LdImm64HiInsn(regs[r]));
  }
  prog.insert(prog.end(), form.begin(), form.end());
  prog.push_back(ExitInsn());
  VmEnv env;
  std::memcpy(env.stack, stack.data(), kStackSize);
  VmResult result = VmRun(prog, env);
  EXPECT_EQ(result.outcome, VmResult::Outcome::kOk) << InsnToString(form[0]);
  RegFile out{};
  std::copy(std::begin(env.regs), std::end(env.regs), out.begin());
  return out;
}

// (a) every register outside `defs` keeps its value; (b) re-randomizing
// every register outside `uses` leaves every `defs` result unchanged. R10 is
// the read-only frame pointer and is never re-randomized.
TEST(InsnRegEffects, AgreesWithReferenceInterpreter) {
  Rng rng(0x5EEDULL);
  for (int round = 0; round < 16; round++) {
    for (const std::vector<Insn>& form : RegEffectsForms(rng)) {
      RegEffects effects = InsnRegEffects(form[0]);
      std::vector<uint8_t> stack(kStackSize);
      for (uint8_t& b : stack) {
        b = static_cast<uint8_t>(rng.Next());
      }
      RegFile regs{};
      for (int r = R0; r <= R9; r++) {
        regs[r] = rng.Next();
      }
      RegFile first = RunForm(form, regs, stack);
      for (int r = R0; r <= R9; r++) {
        if (((effects.defs >> r) & 1) == 0) {
          EXPECT_EQ(first[r], regs[r]) << InsnToString(form[0]) << ": r" << r << " not in defs";
        }
      }
      RegFile other = regs;
      for (int r = R0; r <= R9; r++) {
        if (((effects.uses >> r) & 1) == 0) {
          other[r] = rng.Next();
        }
      }
      RegFile second = RunForm(form, other, stack);
      ForEachReg(effects.defs, [&](int r) {
        EXPECT_EQ(second[r], first[r]) << InsnToString(form[0]) << ": r" << r
                                       << " depends on a register outside uses";
      });
    }
  }
}

}  // namespace
}  // namespace kflex
