// Assembler: encoding, label resolution, structured control flow.
#include "src/ebpf/assembler.h"

#include <gtest/gtest.h>

#include "src/ebpf/helper_ids.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/program.h"
#include "src/ebpf/text_asm.h"

namespace kflex {
namespace {

Program MustFinish(Assembler& a, const char* name = "t") {
  auto p = a.Finish(name, Hook::kXdp, ExtensionMode::kKflex, 0);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(Assembler, ForwardJumpResolves) {
  Assembler a;
  auto done = a.NewLabel();
  a.MovImm(R0, 1);
  a.JmpImm(BPF_JEQ, R0, 1, done);
  a.MovImm(R0, 2);
  a.Bind(done);
  a.Exit();
  Program p = MustFinish(a);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.insns[1].off, 1);  // skip one instruction
}

TEST(Assembler, BackwardJumpIsNegative) {
  Assembler a;
  auto head = a.NewLabel();
  a.Bind(head);
  a.MovImm(R0, 0);
  a.Jmp(head);
  Program p = MustFinish(a);
  EXPECT_EQ(p.insns[1].off, -2);
}

TEST(Assembler, UnboundLabelFails) {
  Assembler a;
  auto l = a.NewLabel();
  a.Jmp(l);
  a.Exit();
  auto p = a.Finish("bad", Hook::kXdp, ExtensionMode::kKflex, 0);
  EXPECT_FALSE(p.ok());
}

TEST(Assembler, LoadImm64TakesTwoSlots) {
  Assembler a;
  a.LoadImm64(R1, 0xDEADBEEFCAFEF00DULL);
  a.Exit();
  Program p = MustFinish(a);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_TRUE(p.insns[0].IsLdImm64());
  EXPECT_EQ(LdImm64Value(p.insns[0], p.insns[1]), 0xDEADBEEFCAFEF00DULL);
}

TEST(Assembler, HeapAddrCarriesPseudo) {
  Assembler a;
  a.LoadHeapAddr(R2, 128);
  a.Exit();
  Program p = MustFinish(a);
  EXPECT_EQ(p.insns[0].src, kPseudoHeapVar);
  EXPECT_EQ(LdImm64Value(p.insns[0], p.insns[1]), 128u);
}

TEST(Assembler, IfElseShape) {
  Assembler a;
  a.MovImm(R0, 0);
  auto iff = a.IfImm(BPF_JEQ, R1, 0);  // then when R1 == 0
  a.MovImm(R0, 1);
  a.Else(iff);
  a.MovImm(R0, 2);
  a.EndIf(iff);
  a.Exit();
  Program p = MustFinish(a);
  // mov; jne->else; mov(then); ja end; mov(else); exit
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p.insns[1].AluOpField(), BPF_JNE);  // inverted condition
  EXPECT_EQ(p.insns[1].off, 2);                 // to else
  EXPECT_EQ(p.insns[3].off, 1);                 // then jumps past else
}

TEST(Assembler, LoopShape) {
  Assembler a;
  a.MovImm(R1, 10);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R1, 0);
  a.SubImm(R1, 1);
  a.LoopEnd(loop);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a);
  // mov; jeq->done; sub; ja head; mov; exit
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p.insns[3].off, -3);  // back edge to the break check
}

TEST(Assembler, DisassemblesWithoutCrashing) {
  Assembler a;
  a.MovImm(R0, 7);
  a.LoadHeapAddr(R2, 64);
  a.Ldx(BPF_DW, R3, R2, 0);
  a.Stx(BPF_W, R2, 8, R3);
  a.StImm(BPF_B, R2, 1, 9);
  a.AtomicAdd(BPF_DW, R2, 0, R3, /*fetch=*/true);
  a.Call(kHelperKtimeGetNs);
  a.Exit();
  Program p = MustFinish(a);
  std::string text = ProgramToString(p);
  EXPECT_NE(text.find("call 4"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
}

TEST(Assembler, FinishResetsState) {
  Assembler a;
  a.Exit();
  Program p1 = MustFinish(a, "one");
  a.MovImm(R0, 0);
  a.Exit();
  Program p2 = MustFinish(a, "two");
  EXPECT_EQ(p1.size(), 1u);
  EXPECT_EQ(p2.size(), 2u);
}

TEST(Insn, FieldAccessors) {
  Insn l = LdxInsn(BPF_W, R1, R2, 16);
  EXPECT_TRUE(l.IsLoad());
  EXPECT_EQ(l.AccessSize(), 4);
  Insn s = StxInsn(BPF_DW, R1, -8, R2);
  EXPECT_TRUE(s.IsStore());
  EXPECT_EQ(s.AccessSize(), 8);
  Insn atomic = AtomicInsn(BPF_W, R1, 0, R2, BPF_ATOMIC_ADD);
  EXPECT_TRUE(atomic.IsAtomic());
  EXPECT_FALSE(atomic.IsLoad());
  Insn call = CallInsn(12);
  EXPECT_TRUE(call.IsCall());
  Insn exit = ExitInsn();
  EXPECT_TRUE(exit.IsExit());
  Insn ja = JmpAlwaysInsn(-4);
  EXPECT_TRUE(ja.IsUncondJmp());
  EXPECT_FALSE(ja.IsCondJmp());
  Insn jlt = JmpImmInsn(BPF_JLT, R3, 100, 2);
  EXPECT_TRUE(jlt.IsCondJmp());
}

}  // namespace
}  // namespace kflex
