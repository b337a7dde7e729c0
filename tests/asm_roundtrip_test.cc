// Round-trip property test for the text assembly writer/parser pair.
//
// The property: for any program P the Assembler can produce,
//   ParseTextProgram(ProgramToTextAsm(P)) == P   (instruction-exact),
//   ProgramToTextAsm(parse result) re-renders byte for byte, and
//   the listing is the same syntax: ParseTextProgram(ProgramToString(P))
//   has P's instructions, and each non-jump, non-ld_imm64 instruction parses
//   back from InsnToString(insn) alone.
// It is checked two ways: a handwritten program exercising every expressible
// instruction form, and a replay of the exact differential-fuzz corpus (same
// Rng seed and generator parameters as FuzzDifferential, 1100 programs) so
// the writer is tested against everything the fuzz pipeline can emit.

#include "src/ebpf/text_asm.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/program.h"
#include "tests/program_generator.h"

namespace kflex {
namespace {

// Renders, re-parses, and re-renders `p`, asserting instruction-exact
// equality and writer fixpoint. Returns the rendered text for inspection.
std::string ExpectRoundTrips(const Program& p) {
  auto text = ProgramToTextAsm(p);
  EXPECT_TRUE(text.ok()) << text.status().message();
  if (!text.ok()) {
    return "";
  }
  auto reparsed = ParseTextProgram(*text);
  EXPECT_TRUE(reparsed.ok()) << reparsed.status().message() << "\n--- text ---\n" << *text;
  if (!reparsed.ok()) {
    return *text;
  }
  const Program& p2 = *reparsed;
  EXPECT_EQ(p.name, p2.name);
  EXPECT_EQ(p.hook, p2.hook);
  EXPECT_EQ(static_cast<int>(p.mode), static_cast<int>(p2.mode));
  EXPECT_EQ(p.heap_size, p2.heap_size);
  EXPECT_EQ(p.insns.size(), p2.insns.size()) << "--- text ---\n" << *text;
  if (p.insns.size() != p2.insns.size()) {
    return *text;
  }
  for (size_t i = 0; i < p.insns.size(); i++) {
    EXPECT_EQ(p.insns[i], p2.insns[i])
        << "insn " << i << ": " << InsnToString(p.insns[i]) << " vs "
        << InsnToString(p2.insns[i]) << "\n--- text ---\n"
        << *text;
  }
  auto text2 = ProgramToTextAsm(p2);
  EXPECT_TRUE(text2.ok()) << text2.status().message();
  if (text2.ok()) {
    EXPECT_EQ(*text, *text2) << "writer is not a fixpoint of the parser";
  }

  const std::string listing = ProgramToString(p);
  auto from_listing = ParseTextProgram(listing);
  EXPECT_TRUE(from_listing.ok()) << from_listing.status().message() << "\n--- listing ---\n"
                                 << listing;
  if (from_listing.ok()) {
    EXPECT_EQ(from_listing->insns, p.insns) << "--- listing ---\n" << listing;
  }
  for (size_t i = 0; i < p.insns.size(); i++) {
    const Insn& insn = p.insns[i];
    if (insn.IsLdImm64()) {
      i++;  // and its data slot
      continue;
    }
    if (insn.IsCondJmp() || insn.IsUncondJmp()) {
      continue;
    }
    const std::string line = InsnToString(insn);
    auto one = ParseTextProgram(line);
    EXPECT_TRUE(one.ok()) << "insn " << i << ": '" << line << "': " << one.status().message();
    if (one.ok()) {
      EXPECT_EQ(one->insns, std::vector<Insn>{insn}) << "insn " << i << ": '" << line << "'";
    }
  }
  return *text;
}

// One handwritten program touching every instruction form the text grammar
// can express: all ALU64/ALU32 ops in both operand forms, negation in both
// widths, every ld_imm64 pseudo, every memory size for loads/stores/atomics,
// negative offsets, every comparison in JMP and JMP32, calls, and labels.
TEST(AsmRoundTrip, FullInstructionSurface) {
  Assembler a;
  constexpr AluOp kAluOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_MOD, BPF_AND,
                               BPF_OR,  BPF_XOR, BPF_LSH, BPF_RSH, BPF_ARSH};
  for (AluOp op : kAluOps) {
    a.AluImm(op, R2, 7);
    a.AluReg(op, R3, R4);
    a.AluImm(op, R2, 7, /*is64=*/false);
    a.AluReg(op, R3, R4, /*is64=*/false);
  }
  a.MovImm(R5, -123);
  a.Mov(R5, R6);
  a.AluImm(BPF_MOV, R5, 99, /*is64=*/false);
  a.AluReg(BPF_MOV, R5, R6, /*is64=*/false);
  a.Neg(R7);
  a.Neg(R7, /*is64=*/false);
  a.LoadImm64(R2, 0xDEADBEEFCAFEF00DULL);
  a.LoadImm64(R2, 5);  // small imm64 must stay an ld_imm64, not collapse to mov
  a.LoadHeapAddr(R9, 4096);
  a.LoadMapPtr(R8, 3);
  for (MemSize size : {BPF_B, BPF_H, BPF_W, BPF_DW}) {
    a.Ldx(size, R2, R9, 16);
    a.Stx(size, R9, -16, R2);
    a.StImm(size, R9, 0, 42);
  }
  a.AtomicAdd(BPF_DW, R9, 8, R3);
  a.AtomicAdd(BPF_W, R9, 8, R3);
  a.AtomicAdd(BPF_DW, R9, 8, R3, /*fetch=*/true);
  a.AtomicAdd(BPF_W, R9, 8, R3, /*fetch=*/true);
  a.AtomicXchg(BPF_DW, R9, 16, R4);
  a.AtomicXchg(BPF_W, R9, 16, R4);
  a.AtomicCmpXchg(BPF_DW, R9, 24, R5);
  a.AtomicCmpXchg(BPF_W, R9, 24, R5);
  constexpr JmpOp kCondOps[] = {BPF_JEQ, BPF_JNE, BPF_JGT, BPF_JGE,  BPF_JLT, BPF_JLE,
                                BPF_JSGT, BPF_JSGE, BPF_JSLT, BPF_JSLE, BPF_JSET};
  Assembler::Label out = a.NewLabel();
  for (JmpOp op : kCondOps) {
    a.JmpImm(op, R2, 11, out);
    a.JmpReg(op, R2, R3, out);
    a.JmpImm(op, R2, 11, out, /*is64=*/false);
    a.JmpReg(op, R2, R3, out, /*is64=*/false);
  }
  Assembler::Label back = a.NewLabel();
  a.Bind(back);
  a.Call(kHelperKtimeGetNs);
  a.JmpImm(BPF_JEQ, R0, 0, back);  // backward edge
  a.Jmp(out);
  a.Bind(out);
  a.MovImm(R0, 0);
  a.Exit();
  auto p = a.Finish("surface", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);
  ASSERT_TRUE(p.ok()) << p.status().message();
  ExpectRoundTrips(*p);
}

// Programs with no heap and eBPF mode render a minimal header.
TEST(AsmRoundTrip, EbpfModeWithoutHeap) {
  Assembler a;
  a.MovImm(R0, 1);
  a.Exit();
  auto p = a.Finish("plain", Hook::kXdp, ExtensionMode::kEbpf, 0);
  ASSERT_TRUE(p.ok());
  std::string text = ExpectRoundTrips(*p);
  EXPECT_EQ(text.find(".heap"), std::string::npos);
}

// A jump to the end of the program needs a trailing label.
TEST(AsmRoundTrip, JumpToEndOfProgram) {
  Assembler a;
  Assembler::Label end = a.NewLabel();
  a.JmpImm(BPF_JEQ, R1, 0, end);
  a.MovImm(R0, 7);
  a.Bind(end);
  a.Exit();
  auto p = a.Finish("tail", Hook::kXdp, ExtensionMode::kEbpf, 0);
  ASSERT_TRUE(p.ok());
  ExpectRoundTrips(*p);
}

// Kie pseudo-instructions (and anything else outside the user ISA) must be
// rejected by the writer, not silently mangled.
TEST(AsmRoundTrip, KieInstrumentationIsNotExpressible) {
  Program p;
  p.name = "kie";
  p.insns = {KieSanitizeInsn(R2), ExitInsn()};
  auto text = ProgramToTextAsm(p);
  EXPECT_FALSE(text.ok());

  Program translate;
  translate.name = "kie2";
  translate.insns = {KieTranslateInsn(R3), ExitInsn()};
  EXPECT_FALSE(ProgramToTextAsm(translate).ok());

  Program fuel;
  fuel.name = "kie3";
  fuel.insns = {KieFuelCheckInsn(), ExitInsn()};
  EXPECT_FALSE(ProgramToTextAsm(fuel).ok());

  // So is anything whose text would not parse back: an ld_imm64 into a
  // reserved register, a name `.name` cannot carry.
  Program reserved;
  reserved.name = "kie4";
  reserved.insns = {LdImm64Insn(RAX, 7), LdImm64HiInsn(7), ExitInsn()};
  EXPECT_FALSE(ProgramToTextAsm(reserved).ok());
  Program blank;
  blank.name = " lead";
  blank.insns = {ExitInsn()};
  EXPECT_FALSE(ProgramToTextAsm(blank).ok());

  // The listing still shows them, by name.
  EXPECT_NE(ProgramToString(p).find("sanitize r2"), std::string::npos) << ProgramToString(p);
  EXPECT_NE(ProgramToString(translate).find("translate r3"), std::string::npos);
  EXPECT_NE(ProgramToString(fuel).find("fuelcheck"), std::string::npos);
}

// Replays the exact differential-fuzz corpus (same seed, same generator
// parameters as FuzzDifferential) through the writer/parser pair. Every
// program the fuzz pipeline can produce must round-trip instruction-exactly.
TEST(AsmRoundTrip, DifferentialFuzzCorpusRoundTrips) {
  Rng rng(0x0B7C0DEULL);
  constexpr int kPrograms = 1100;
  for (int n = 0; n < kPrograms; n++) {
    bool kflex = n % 4 != 3;  // mostly KFlex, some strict eBPF
    ProgramGenerator gen(rng, kflex, /*resources=*/false, /*helper_calls=*/true);
    Program p = gen.Generate();
    SCOPED_TRACE("program " + std::to_string(n));
    ExpectRoundTrips(p);
    if (::testing::Test::HasFailure()) {
      break;  // one broken program is enough to debug; don't spam 1100 diffs
    }
  }
}

// The new 32-bit and atomic grammar also has to survive a text-first trip:
// parse handwritten source, render, and re-parse.
TEST(AsmRoundTrip, TextFirstGrammarForms) {
  constexpr const char* kSource = R"(.name grammar
.hook xdp
.mode kflex
.heap 4096

w2 = 7
w3 = w2
w2 += 5
w3 *= w2
w2 = -w2
r4 = heap 64
r5 = lock_fetch_add *(u64*)(r4 + 0)
r6 = lock_xchg *(u32*)(r4 + 8)
r0 = 1
r7 = lock_cmpxchg *(u64*)(r4 + 16)
lock *(u64*)(r4 + 0) += r5
if w2 == 7 goto out
if w2 s< w3 goto out
r0 = 0
out:
exit
)";
  auto p = ParseTextProgram(kSource);
  ASSERT_TRUE(p.ok()) << p.status().message();
  // Spot-check the encodings the new grammar selects.
  const Program& prog = *p;
  EXPECT_EQ(prog.insns[0], AluImmInsn(BPF_MOV, R2, 7, /*is64=*/false));
  EXPECT_EQ(prog.insns[1], AluRegInsn(BPF_MOV, R3, R2, /*is64=*/false));
  EXPECT_EQ(prog.insns[2], AluImmInsn(BPF_ADD, R2, 5, /*is64=*/false));
  EXPECT_EQ(prog.insns[4], NegInsn(R2, /*is64=*/false));
  EXPECT_EQ(prog.insns[7],
            AtomicInsn(BPF_DW, R4, 0, R5, BPF_ATOMIC_ADD | BPF_ATOMIC_FETCH));
  EXPECT_EQ(prog.insns[8], AtomicInsn(BPF_W, R4, 8, R6, BPF_ATOMIC_XCHG));
  EXPECT_EQ(prog.insns[10], AtomicInsn(BPF_DW, R4, 16, R7, BPF_ATOMIC_CMPXCHG));
  EXPECT_EQ(prog.insns[11], AtomicInsn(BPF_DW, R4, 0, R5, BPF_ATOMIC_ADD));
  EXPECT_EQ(prog.insns[12].Class(), BPF_JMP32);
  ExpectRoundTrips(prog);
}

}  // namespace
}  // namespace kflex
