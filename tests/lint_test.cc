// Lint pass registry and the built-in passes (src/verifier/lint.h): each
// detects its crafted negative program, and none fires on clean programs
// (zero false positives).
#include "src/verifier/lint.h"

#include <gtest/gtest.h>

#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/ebpf/text_asm.h"
#include "src/verifier/verifier.h"

namespace kflex {
namespace {

Program MustFinish(Assembler& a, uint64_t heap_size = 0) {
  auto p = a.Finish("lint_test", Hook::kTracepoint, ExtensionMode::kKflex, heap_size);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

std::vector<Finding> MustLint(const Program& p, const Analysis* analysis = nullptr) {
  auto findings = RunLint(p, analysis);
  EXPECT_TRUE(findings.ok()) << findings.status().ToString();
  return findings.ok() ? *findings : std::vector<Finding>{};
}

size_t CountPass(const std::vector<Finding>& findings, const std::string& pass,
                 LintSeverity min_severity = LintSeverity::kNote) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.pass == pass && f.severity >= min_severity) {
      n++;
    }
  }
  return n;
}

TEST(LintRegistry, HasAllFourBuiltinPasses) {
  const auto& passes = LintPasses();
  ASSERT_GE(passes.size(), 4u);
  auto has = [&](const std::string& name) {
    for (const LintPass& p : passes) {
      if (name == p.name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("dead-code"));
  EXPECT_TRUE(has("lock-order"));
  EXPECT_TRUE(has("ref-leak"));
  EXPECT_TRUE(has("helper-contract"));
}

// ---- dead-code --------------------------------------------------------------

TEST(LintDeadCode, DetectsDeadStore) {
  Assembler a;
  size_t dead_pc = a.CurrentPc();
  a.MovImm(R2, 5);  // overwritten before any read
  a.MovImm(R2, 7);
  a.Mov(R0, R2);
  a.Exit();
  Program p = MustFinish(a);

  std::vector<Finding> findings = MustLint(p);
  ASSERT_EQ(CountPass(findings, "dead-code"), 1u);
  for (const Finding& f : findings) {
    if (f.pass == "dead-code") {
      EXPECT_EQ(f.pc, dead_pc);
      EXPECT_EQ(f.severity, LintSeverity::kWarning);
    }
  }
}

TEST(LintDeadCode, DetectsUnreachableCode) {
  Assembler a;
  a.MovImm(R0, 0);
  a.Exit();
  size_t dead_pc = a.CurrentPc();
  a.MovImm(R0, 1);
  a.Exit();
  Program p = MustFinish(a);

  std::vector<Finding> findings = MustLint(p);
  bool found = false;
  for (const Finding& f : findings) {
    if (f.pass == "dead-code" && f.pc == dead_pc &&
        f.message.find("unreachable") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintDeadCode, DetectsDeadStackStore) {
  Assembler a;
  a.MovImm(R6, 1);
  size_t dead_pc = a.CurrentPc();
  a.Stx(BPF_DW, R10, -8, R6);  // never read back, no helper call follows
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a);

  std::vector<Finding> findings = MustLint(p);
  bool found = false;
  for (const Finding& f : findings) {
    found |= f.pass == "dead-code" && f.pc == dead_pc;
  }
  EXPECT_TRUE(found);
}

// ---- lock-order -------------------------------------------------------------

TEST(LintLockOrder, DetectsInversionAcrossBranches) {
  Assembler a;
  a.MovImm(R6, 0);
  auto iff = a.IfImm(BPF_JEQ, R6, 0);
  a.LoadHeapAddr(R1, 0);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 8);
  a.Call(kHelperKflexSpinLock);  // acquires 8 while holding 0
  a.LoadHeapAddr(R1, 8);
  a.Call(kHelperKflexSpinUnlock);
  a.LoadHeapAddr(R1, 0);
  a.Call(kHelperKflexSpinUnlock);
  a.Else(iff);
  a.LoadHeapAddr(R1, 8);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 0);
  a.Call(kHelperKflexSpinLock);  // acquires 0 while holding 8: inversion
  a.LoadHeapAddr(R1, 0);
  a.Call(kHelperKflexSpinUnlock);
  a.LoadHeapAddr(R1, 8);
  a.Call(kHelperKflexSpinUnlock);
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  std::vector<Finding> findings = MustLint(p);
  EXPECT_EQ(CountPass(findings, "lock-order", LintSeverity::kError), 1u);
  bool mentions_inversion = false;
  for (const Finding& f : findings) {
    mentions_inversion |= f.pass == "lock-order" &&
                          f.message.find("inversion") != std::string::npos;
  }
  EXPECT_TRUE(mentions_inversion);
}

TEST(LintLockOrder, DetectsReacquireDeadlock) {
  Assembler a;
  a.LoadHeapAddr(R1, 16);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 16);
  size_t reacquire_pc = a.CurrentPc();
  a.Call(kHelperKflexSpinLock);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  std::vector<Finding> findings = MustLint(p);
  bool found = false;
  for (const Finding& f : findings) {
    found |= f.pass == "lock-order" && f.pc == reacquire_pc &&
             f.severity == LintSeverity::kError;
  }
  EXPECT_TRUE(found);
}

// Both lock pointers are set in the entry block and only moved into R1 in
// the branches, as in tests/kasm/lock_cycle_demo.kasm: the lock identities
// must be carried across blocks for the inversion to be seen.
TEST(LintLockOrder, DetectsInversionWithLocksSetInEntryBlock) {
  Assembler a;
  a.LoadHeapAddr(R6, 64);   // lock A
  a.LoadHeapAddr(R7, 128);  // lock B
  a.Ldx(BPF_DW, R2, R1, 0);
  auto iff = a.IfImm(BPF_JEQ, R2, 0);
  a.Mov(R1, R6);
  a.Call(kHelperKflexSpinLock);
  a.Mov(R1, R7);
  size_t ab_pc = a.CurrentPc();
  a.Call(kHelperKflexSpinLock);  // acquires B while holding A
  a.Mov(R1, R7);
  a.Call(kHelperKflexSpinUnlock);
  a.Mov(R1, R6);
  a.Call(kHelperKflexSpinUnlock);
  a.Else(iff);
  a.Mov(R1, R7);
  a.Call(kHelperKflexSpinLock);
  a.Mov(R1, R6);
  a.Call(kHelperKflexSpinLock);  // acquires A while holding B: inversion
  a.Mov(R1, R6);
  a.Call(kHelperKflexSpinUnlock);
  a.Mov(R1, R7);
  a.Call(kHelperKflexSpinUnlock);
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  std::vector<Finding> findings = MustLint(p);
  ASSERT_EQ(CountPass(findings, "lock-order"), 1u);
  for (const Finding& f : findings) {
    if (f.pass == "lock-order") {
      EXPECT_EQ(f.pc, ab_pc);
      EXPECT_EQ(f.severity, LintSeverity::kError);
      EXPECT_NE(f.message.find("inversion"), std::string::npos) << f.message;
      ASSERT_FALSE(f.path.empty());
      EXPECT_EQ(f.path.back().pc, ab_pc);
    }
  }
}

// Every acquiring pc that re-takes a held lock is its own finding, even when
// both re-acquire the same lock.
TEST(LintLockOrder, ReportsEachReacquisitionPc) {
  Assembler a;
  a.LoadHeapAddr(R1, 16);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 16);
  size_t first_pc = a.CurrentPc();
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 16);
  size_t second_pc = a.CurrentPc();
  a.Call(kHelperKflexSpinLock);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  std::vector<Finding> findings = MustLint(p);
  std::vector<size_t> pcs;
  for (const Finding& f : findings) {
    if (f.pass == "lock-order") {
      EXPECT_EQ(f.severity, LintSeverity::kError);
      EXPECT_NE(f.message.find("re-acquired"), std::string::npos) << f.message;
      pcs.push_back(f.pc);
    }
  }
  EXPECT_EQ(pcs, (std::vector<size_t>{first_pc, second_pc}));
}

TEST(LintLockOrder, ConsistentNestingIsClean) {
  Assembler a;
  a.LoadHeapAddr(R1, 0);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 8);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 8);
  a.Call(kHelperKflexSpinUnlock);
  a.LoadHeapAddr(R1, 0);
  a.Call(kHelperKflexSpinUnlock);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  EXPECT_EQ(CountPass(MustLint(p), "lock-order"), 0u);
}

// ---- ref-leak ---------------------------------------------------------------

TEST(LintRefLeak, DetectsLeakOnExitPath) {
  Assembler a;
  a.Call(kHelperSkLookupUdp);  // acquires (argument typing is not lint's job)
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.MovImm(R0, 0);  // non-null branch: exits WITHOUT releasing
  a.Exit();
  a.EndIf(iff);
  a.MovImm(R0, 0);  // null branch: nothing to release
  a.Exit();
  Program p = MustFinish(a);

  std::vector<Finding> findings = MustLint(p);
  EXPECT_EQ(CountPass(findings, "ref-leak", LintSeverity::kError), 1u);
}

TEST(LintRefLeak, ProperReleaseIsClean) {
  Assembler a;
  a.Call(kHelperSkLookupUdp);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Mov(R1, R0);
  a.Call(kHelperSkRelease);
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a);

  EXPECT_EQ(CountPass(MustLint(p), "ref-leak"), 0u);
}

TEST(LintRefLeak, TracksHandleThroughSpillAndFill) {
  Assembler a;
  a.Call(kHelperSkLookupUdp);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Stx(BPF_DW, R10, -8, R0);   // spill handle
  a.Ldx(BPF_DW, R1, R10, -8);   // fill into R1
  a.Call(kHelperSkRelease);
  a.EndIf(iff);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a);

  EXPECT_EQ(CountPass(MustLint(p), "ref-leak"), 0u);
}

// ---- helper-contract --------------------------------------------------------

TEST(LintHelperContract, DetectsOversizedMalloc) {
  Assembler a;
  a.MovImm(R1, 8192);  // heap is only 4096 bytes
  size_t call_pc = a.CurrentPc();
  a.Call(kHelperKflexMalloc);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  std::vector<Finding> findings = MustLint(p);
  bool found = false;
  for (const Finding& f : findings) {
    found |= f.pass == "helper-contract" && f.pc == call_pc &&
             f.severity == LintSeverity::kError;
  }
  EXPECT_TRUE(found);
}

TEST(LintHelperContract, DetectsMisalignedAndOutOfBoundsLock) {
  Assembler a;
  a.LoadHeapAddr(R1, 13);  // misaligned
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R1, 13);
  a.Call(kHelperKflexSpinUnlock);
  a.LoadHeapAddr(R1, 8192);  // outside the 4096-byte heap
  a.Call(kHelperKflexSpinLock);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a, /*heap_size=*/4096);

  std::vector<Finding> findings = MustLint(p);
  EXPECT_GE(CountPass(findings, "helper-contract", LintSeverity::kWarning), 2u);
  EXPECT_GE(CountPass(findings, "helper-contract", LintSeverity::kError), 1u);
}

TEST(LintHelperContract, DetectsSizeArgumentOutOfRange) {
  Assembler a;
  a.MovImm(R3, 600);  // sk_lookup size argument exceeds the 512-byte stack
  size_t call_pc = a.CurrentPc();
  a.Call(kHelperSkLookupUdp);
  a.Mov(R1, R0);
  a.Call(kHelperSkRelease);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a);

  std::vector<Finding> findings = MustLint(p);
  bool found = false;
  for (const Finding& f : findings) {
    found |= f.pass == "helper-contract" && f.pc == call_pc &&
             f.severity == LintSeverity::kError;
  }
  EXPECT_TRUE(found);
}

// ---- zero false positives on clean extensions -------------------------------

TEST(Lint, SeedCounterExampleIsClean) {
  // Mirror of examples/counter.kasm (the seed example extension).
  const char* kSrc = R"(
.name  saturating_counter
.hook  tracepoint
.mode  kflex
.heap  1048576
  r2 = *(u64*)(r1 + 0)
  if r2 != 0 goto have_amount
  r2 = 1
have_amount:
  r3 = heap 64
  r4 = *(u64*)(r3 + 0)
  r4 += r2
  if r4 <= 100 goto store
  r4 = 100
store:
  *(u64*)(r3 + 0) = r4
  r0 = r4
  exit
)";
  auto p = ParseTextProgram(kSrc);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto analysis = Verify(*p, VerifyOptions{});
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  std::vector<Finding> findings = MustLint(*p, &*analysis);
  for (const Finding& f : findings) {
    ADD_FAILURE() << "false positive: pc " << f.pc << " [" << f.pass << "] " << f.message;
  }
}

TEST(Lint, WorksWithoutAnalysisOnRejectedProgram) {
  // Verifier rejects this (ref leak), lint must still run and explain why.
  Assembler a;
  a.Call(kHelperSkLookupUdp);
  a.MovImm(R0, 0);
  a.Exit();
  Program p = MustFinish(a);
  auto analysis = Verify(p, VerifyOptions{});
  EXPECT_FALSE(analysis.ok());

  std::vector<Finding> findings = MustLint(p, nullptr);
  EXPECT_GE(CountPass(findings, "ref-leak", LintSeverity::kError), 1u);
}

}  // namespace
}  // namespace kflex
