// Soundness fuzzing: the framework's end-to-end safety property.
//
// For randomly generated programs:
//  * KFlex mode: every program the verifier ACCEPTS must, after Kie
//    instrumentation, either run to completion or be cancelled cleanly
//    (unpopulated page / guard zone / terminate). It must NEVER fault with
//    kBadAddress or kSmap — that would mean the range analysis elided a
//    guard for an access that escaped the heap, i.e., a kernel-memory
//    corruption in the real system.
//  * strict eBPF mode: every accepted program must run to completion with no
//    fault at all (classic eBPF soundness).
// The verifier itself must never crash on arbitrary generated input.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "tests/program_generator.h"
#include "src/ebpf/assembler.h"
#include "src/fault/fault.h"
#include "src/ebpf/helper_ids.h"
#include "src/ebpf/text_asm.h"
#include "src/jit/codegen.h"
#include "src/kernel/kernel.h"
#include "src/runtime/runtime.h"
#include "src/verifier/lint.h"
#include "src/verifier/verifier.h"

namespace kflex {
namespace {

// The shared generator lives in program_generator.h; kHeap is its heap size.
constexpr uint64_t kHeap = kFuzzHeap;

class FuzzSoundness : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSoundness, AcceptedKflexProgramsNeverEscapeTheHeap) {
  Rng rng(0xF00D + static_cast<uint64_t>(GetParam()) * 7919);
  int accepted = 0;
  constexpr int kPrograms = 120;
  for (int n = 0; n < kPrograms; n++) {
    ProgramGenerator gen(rng, /*kflex=*/true);
    Program p = gen.Generate();
    auto lint = RunLint(p, nullptr);  // every fuzz program must lint cleanly
    ASSERT_TRUE(lint.ok()) << lint.status().ToString() << "\n" << ProgramToString(p);
    Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
    LoadOptions lo;
    lo.kie.performance_mode = rng.NextBounded(2) == 0;
    lo.heap_static_bytes = 4096;
    auto id = runtime.Load(p, lo);
    if (!id.ok()) {
      continue;  // rejection is fine; crashes are not
    }
    accepted++;
    for (int run = 0; run < 3; run++) {
      uint8_t ctx[2048];
      for (auto& b : ctx) {
        b = static_cast<uint8_t>(rng.Next());
      }
      InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
      if (!r.attached) {
        break;  // previously cancelled: unloaded, nothing more to check
      }
      if (r.cancelled) {
        // Only extension-correctness faults are acceptable; kBadAddress /
        // kSmap would mean an elided access escaped the heap.
        ASSERT_TRUE(r.fault_kind == MemFaultKind::kNotPresent ||
                    r.fault_kind == MemFaultKind::kGuardZone ||
                    r.fault_kind == MemFaultKind::kTerminate ||
                    (lo.kie.performance_mode &&
                     (r.fault_kind == MemFaultKind::kSmap ||
                      r.fault_kind == MemFaultKind::kBadAddress)))
            << "program " << n << " run " << run << " fault kind "
            << static_cast<int>(r.fault_kind) << "\n"
            << ProgramToString(p);
      }
    }
  }
  // The generator is acceptance-biased: a healthy fraction must load.
  EXPECT_GT(accepted, kPrograms / 4) << "generator drifted: too few accepted programs";
}

TEST_P(FuzzSoundness, AcceptedEbpfProgramsAlwaysCompleteCleanly) {
  Rng rng(0xBEEF + static_cast<uint64_t>(GetParam()) * 104729);
  int accepted = 0;
  constexpr int kPrograms = 150;
  for (int n = 0; n < kPrograms; n++) {
    ProgramGenerator gen(rng, /*kflex=*/false);
    Program p = gen.Generate();
    auto lint = RunLint(p, nullptr);
    ASSERT_TRUE(lint.ok()) << lint.status().ToString() << "\n" << ProgramToString(p);
    Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
    auto id = runtime.Load(p, LoadOptions{});
    if (!id.ok()) {
      continue;
    }
    accepted++;
    for (int run = 0; run < 3; run++) {
      uint8_t ctx[2048];
      for (auto& b : ctx) {
        b = static_cast<uint8_t>(rng.Next());
      }
      InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
      ASSERT_FALSE(r.cancelled)
          << "strict eBPF program faulted at runtime:\n" << ProgramToString(p);
      ASSERT_EQ(r.outcome, VmResult::Outcome::kOk);
      ASSERT_LT(r.insns, 100'000u) << "bounded program ran unreasonably long";
    }
  }
  EXPECT_GT(accepted, kPrograms / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoundness, ::testing::Range(0, 6));

// Lint findings must never contradict the verifier's verdict on programs
// exercising kernel resources (locks + socket references): when the verifier
// rejects for a provable deadlock or reference leak, the corresponding lint
// pass must produce an error-severity explanation; when the verifier accepts,
// those passes must stay silent (zero false positives).
TEST(FuzzLintConsistency, LintAgreesWithVerifierOnResourceBugs) {
  Rng rng(0xCAFE);
  size_t leaks_explained = 0;
  size_t deadlocks_explained = 0;
  for (int n = 0; n < 200; n++) {
    ProgramGenerator gen(rng, /*kflex=*/true, /*resources=*/true);
    Program p = gen.Generate();
    auto analysis = Verify(p, VerifyOptions{});
    auto lint = RunLint(p, analysis.ok() ? &*analysis : nullptr);
    ASSERT_TRUE(lint.ok()) << lint.status().ToString() << "\n" << ProgramToString(p);
    size_t ref_leak_errors = 0;
    size_t reacquire_errors = 0;
    for (const Finding& f : *lint) {
      if (f.severity != LintSeverity::kError) {
        continue;
      }
      if (f.pass == "ref-leak") {
        ref_leak_errors++;
      }
      if (f.pass == "lock-order" && f.message.find("re-acquired") != std::string::npos) {
        reacquire_errors++;
      }
    }
    if (analysis.ok()) {
      // Accepted program: no provable leak and no provable self-deadlock.
      EXPECT_EQ(ref_leak_errors, 0u)
          << "ref-leak false positive on verified program:\n" << ProgramToString(p);
      EXPECT_EQ(reacquire_errors, 0u)
          << "lock-order false positive on verified program:\n" << ProgramToString(p);
      continue;
    }
    const std::string why = analysis.status().ToString();
    if (why.find("unreleased kernel reference") != std::string::npos) {
      EXPECT_GE(ref_leak_errors, 1u)
          << "verifier found a leak lint missed: " << why << "\n" << ProgramToString(p);
      leaks_explained++;
    }
    if (why.find("deadlock: lock already held") != std::string::npos) {
      EXPECT_GE(reacquire_errors, 1u)
          << "verifier found a deadlock lint missed: " << why << "\n" << ProgramToString(p);
      deadlocks_explained++;
    }
  }
  // The generator must actually exercise both defect classes.
  EXPECT_GT(leaks_explained, 0u) << "generator drifted: no leaky programs produced";
  EXPECT_GT(deadlocks_explained, 0u) << "generator drifted: no deadlocking programs produced";
}

// Lint on REJECTED programs (LintContext.analysis == nullptr): a slice of
// the fuzz corpus is replayed through RunLint with no verifier analysis at
// all — the rejected-program path every pass must survive. Asserts no
// crash, deterministic finding order across repeated runs, and that the
// dedupe step leaves no two findings with identical (pc, severity, message)
// (the contract-release pass deliberately mirrors ref-leak's message text,
// so without dedupe this would fire constantly).
TEST(FuzzLintConsistency, RejectedProgramsLintWithoutAnalysis) {
  Rng rng(0xD1CE);
  size_t rejected = 0;
  for (int n = 0; n < 200; n++) {
    ProgramGenerator gen(rng, /*kflex=*/true, /*resources=*/true);
    Program p = gen.Generate();
    auto analysis = Verify(p, VerifyOptions{});
    if (analysis.ok()) {
      continue;
    }
    rejected++;
    auto lint = RunLint(p, nullptr);
    ASSERT_TRUE(lint.ok()) << lint.status().ToString() << "\n" << ProgramToString(p);
    auto again = RunLint(p, nullptr);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*lint, *again) << "unstable finding order:\n" << ProgramToString(p);
    for (size_t i = 0; i + 1 < lint->size(); i++) {
      const Finding& a = (*lint)[i];
      for (size_t j = i + 1; j < lint->size(); j++) {
        const Finding& b = (*lint)[j];
        EXPECT_FALSE(a.pc == b.pc && a.severity == b.severity && a.message == b.message)
            << "duplicate finding survived dedupe ([" << a.pass << "] vs [" << b.pass
            << "] at pc " << a.pc << "): " << a.message << "\n"
            << ProgramToString(p);
      }
    }
  }
  EXPECT_GT(rejected, 20u) << "generator drifted: corpus slice has too few rejected programs";
}

// The concurrency passes (lockset, atomicity, lock-cycle) replayed alone over
// the fuzz corpus — accepted and rejected programs alike, with and without
// verifier analysis. Asserts no crash, that only the selected passes emit
// findings with the documented severity mapping (map-value races are errors,
// lock cycles are warnings; heap-class findings are certificate-only and must
// never appear as lint findings), deterministic finding order across repeated
// runs, and that the full-registry dedupe contract still holds with the
// concurrency passes in the mix.
TEST(FuzzLintConcurrency, ConcurrencyPassesSurviveTheCorpus) {
  Rng rng(0x10C5);
  LintRunOptions options;
  options.passes = {"lockset", "atomicity", "lock-cycle"};
  size_t programs_with_findings = 0;
  for (int n = 0; n < 300; n++) {
    const bool resources = (n % 2) == 0;
    ProgramGenerator gen(rng, /*kflex=*/true, resources);
    Program p = gen.Generate();
    auto analysis = Verify(p, VerifyOptions{});
    const Analysis* analysis_ptr = analysis.ok() ? &*analysis : nullptr;
    auto lint = RunLint(p, analysis_ptr, options);
    ASSERT_TRUE(lint.ok()) << lint.status().ToString() << "\n" << ProgramToString(p);
    auto again = RunLint(p, analysis_ptr, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*lint, *again) << "unstable finding order:\n" << ProgramToString(p);
    if (!lint->empty()) {
      programs_with_findings++;
    }
    for (const Finding& f : *lint) {
      EXPECT_TRUE(f.pass == "lockset" || f.pass == "atomicity" || f.pass == "lock-cycle")
          << "unselected pass '" << f.pass << "' emitted a finding:\n" << ProgramToString(p);
      if (f.pass == "lock-cycle") {
        EXPECT_EQ(f.severity, LintSeverity::kWarning) << ProgramToString(p);
      } else {
        EXPECT_EQ(f.severity, LintSeverity::kError)
            << "[" << f.pass << "] " << f.message << "\n" << ProgramToString(p);
        EXPECT_NE(f.message.find("map"), std::string::npos)
            << "heap-class finding leaked into lint (certificate-only contract): ["
            << f.pass << "] " << f.message << "\n" << ProgramToString(p);
      }
    }
    // Full registry with the concurrency passes in the mix: dedupe must leave
    // no two findings with identical (pc, severity, message).
    auto all = RunLint(p, analysis_ptr);
    ASSERT_TRUE(all.ok()) << all.status().ToString() << "\n" << ProgramToString(p);
    for (size_t i = 0; i + 1 < all->size(); i++) {
      const Finding& a = (*all)[i];
      for (size_t j = i + 1; j < all->size(); j++) {
        const Finding& b = (*all)[j];
        EXPECT_FALSE(a.pc == b.pc && a.severity == b.severity && a.message == b.message)
            << "duplicate finding survived dedupe ([" << a.pass << "] vs [" << b.pass
            << "] at pc " << a.pc << "): " << a.message << "\n"
            << ProgramToString(p);
      }
    }
  }
}

// ---- Differential fuzzing: optimizer + JIT equivalence ----------------------
//
// Every generated program is loaded four ways — reference interpreter
// (optimizer off), optimized interpreter, optimized JIT v1, and JIT v2 (the
// regalloc / guard-hoisting / helper-inlining optimizer) — and run on
// identical context bytes and heap seeds. Exit verdicts, outcome kinds, full
// heap contents, and helper-call traces (id, return value) must match
// exactly: the optimizer may only remove work, and the JITs may only change
// execution speed, never behavior. Both JITs run the same instrumented
// stream as the optimized interpreter, so their instruction counts and fault
// pcs must also match bit for bit (the optimizer-off reference executes a
// different stream and is only compared on observable behavior).

// Replaces the wall-clock and shared-thread-local core helpers with
// per-runtime deterministic versions so both pipelines observe the same
// helper return values.
void MakeHelpersDeterministic(Runtime& rt) {
  auto clock = std::make_shared<uint64_t>(0);
  rt.helpers().Register(
      kHelperKtimeGetNs,
      [clock](VmEnv&, const uint64_t*) { return HelperOutcome{*clock += 1000, false, false}; },
      /*virtual_cost=*/4);
  auto prng = std::make_shared<Rng>(0x5EEDu);
  rt.helpers().Register(
      kHelperGetPrandomU32,
      [prng](VmEnv&, const uint64_t*) {
        return HelperOutcome{prng->Next() & 0xFFFFFFFFULL, false, false};
      },
      /*virtual_cost=*/4);
}

TEST(FuzzDifferential, OptimizedPipelineIsObservationallyEquivalent) {
  Rng rng(0x0B7C0DEULL);
  int compared = 0;
  constexpr int kPrograms = 1100;
  for (int n = 0; n < kPrograms; n++) {
    bool kflex = n % 4 != 3;  // mostly KFlex, some strict eBPF
    ProgramGenerator gen(rng, kflex, /*resources=*/false, /*helper_calls=*/true);
    Program p = gen.Generate();

    RuntimeOptions ro{1, 1'000'000'000ULL};
    Runtime rt_opt{ro};
    Runtime rt_ref{ro};
    Runtime rt_jit{ro};
    Runtime rt_jit2{ro};
    MakeHelpersDeterministic(rt_opt);
    MakeHelpersDeterministic(rt_ref);
    MakeHelpersDeterministic(rt_jit);
    MakeHelpersDeterministic(rt_jit2);
    LoadOptions lo;
    lo.heap_static_bytes = 4096;
    LoadOptions lo_ref = lo;
    lo_ref.optimize = false;
    LoadOptions lo_jit = lo;
    lo_jit.engine = ExecEngine::kJit;
    LoadOptions lo_jit2 = lo;
    lo_jit2.engine = ExecEngine::kJit2;
    const bool jit = JitHostSupported();
    auto id_opt = rt_opt.Load(p, lo);
    auto id_ref = rt_ref.Load(p, lo_ref);
    auto id_jit = rt_jit.Load(p, lo_jit);
    auto id_jit2 = rt_jit2.Load(p, lo_jit2);
    // Neither the optimizer nor the engine choice may change whether a
    // program loads.
    ASSERT_EQ(id_opt.ok(), id_ref.ok()) << ProgramToString(p);
    ASSERT_EQ(id_opt.ok(), id_jit.ok()) << ProgramToString(p);
    ASSERT_EQ(id_opt.ok(), id_jit2.ok()) << ProgramToString(p);
    if (!id_opt.ok()) {
      continue;
    }
    if (jit) {
      // The generator emits only constructs the template JIT supports; a
      // fallback here is a compiler regression, not an expected path.
      ASSERT_EQ(rt_jit.engine_info(*id_jit).used, ExecEngine::kJit)
          << rt_jit.engine_info(*id_jit).fallback_reason << "\n" << ProgramToString(p);
      ASSERT_EQ(rt_jit2.engine_info(*id_jit2).used, ExecEngine::kJit2)
          << rt_jit2.engine_info(*id_jit2).fallback_reason << "\n" << ProgramToString(p);
    }
    compared++;
    for (int run = 0; run < 2; run++) {
      uint8_t ctx_opt[2048];
      for (auto& b : ctx_opt) {
        b = static_cast<uint8_t>(rng.Next());
      }
      uint8_t ctx_ref[2048];
      std::memcpy(ctx_ref, ctx_opt, sizeof(ctx_ref));
      uint8_t ctx_jit[2048];
      std::memcpy(ctx_jit, ctx_opt, sizeof(ctx_jit));
      uint8_t ctx_jit2[2048];
      std::memcpy(ctx_jit2, ctx_opt, sizeof(ctx_jit2));

      std::vector<std::pair<int32_t, uint64_t>> trace_opt, trace_ref, trace_jit, trace_jit2;
      InvokeResult a = rt_opt.Invoke(*id_opt, 0, ctx_opt, sizeof(ctx_opt), &trace_opt);
      InvokeResult b = rt_ref.Invoke(*id_ref, 0, ctx_ref, sizeof(ctx_ref), &trace_ref);
      InvokeResult c = rt_jit.Invoke(*id_jit, 0, ctx_jit, sizeof(ctx_jit), &trace_jit);
      InvokeResult d = rt_jit2.Invoke(*id_jit2, 0, ctx_jit2, sizeof(ctx_jit2), &trace_jit2);
      ASSERT_EQ(a.attached, b.attached) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.attached, c.attached) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.attached, d.attached) << "program " << n << "\n" << ProgramToString(p);
      if (!a.attached) {
        break;
      }
      ASSERT_EQ(a.cancelled, b.cancelled) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.outcome, b.outcome) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.verdict, b.verdict) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(trace_opt, trace_ref)
          << "helper traces diverged, program " << n << "\n" << ProgramToString(p);
      // JITs vs optimized interpreter: same instruction stream, so everything
      // must agree — including fault pcs and exact instruction counts.
      for (const InvokeResult* r : {&c, &d}) {
        const char* engine = r == &c ? "jit" : "jit2";
        ASSERT_EQ(a.cancelled, r->cancelled)
            << engine << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.outcome, r->outcome)
            << engine << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.verdict, r->verdict)
            << engine << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.fault_pc, r->fault_pc)
            << engine << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.fault_kind, r->fault_kind)
            << engine << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.insns, r->insns) << engine << " instruction counts diverged, program "
                                     << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.instr_insns, r->instr_insns)
            << engine << " instrumented counts diverged, program " << n << "\n"
            << ProgramToString(p);
      }
      ASSERT_EQ(trace_opt, trace_jit)
          << "JIT helper trace diverged, program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(trace_opt, trace_jit2)
          << "JIT v2 helper trace diverged, program " << n << "\n" << ProgramToString(p);
      if (rt_opt.heap(*id_opt) != nullptr) {
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_ref.heap(*id_ref)->HostAt(0), kHeap))
            << "heap contents diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_jit.heap(*id_jit)->HostAt(0), kHeap))
            << "JIT heap contents diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_jit2.heap(*id_jit2)->HostAt(0), kHeap))
            << "JIT v2 heap contents diverged, program " << n << "\n" << ProgramToString(p);
      }
    }
  }
  // The generator is acceptance-biased: most programs must actually compare.
  EXPECT_GT(compared, kPrograms / 4) << "generator drifted: too few accepted programs";
}

// A corpus slice concentrated on the netfn instruction shapes — the
// consistent-hash ring probe (lb) and the token-bucket debit (guard) — via
// the generator's netfn_bias knob. Same three-way contract as the main
// differential test, with the exact-insn-count comparison between the
// optimized interpreter and the JIT doing the heavy lifting: these are the
// inner loops the scenario suite prices in simulated time, so a single
// retired-count divergence would skew every SLO number.
TEST(FuzzDifferential, NetfnHashAndBucketShapesStayExact) {
  Rng rng(0x7E4F4ULL);
  int compared = 0;
  constexpr int kPrograms = 300;
  for (int n = 0; n < kPrograms; n++) {
    ProgramGenerator gen(rng, /*kflex=*/true, /*resources=*/false,
                         /*helper_calls=*/false, /*netfn_bias=*/true);
    Program p = gen.Generate();

    RuntimeOptions ro{1, 1'000'000'000ULL};
    Runtime rt_opt{ro};
    Runtime rt_ref{ro};
    Runtime rt_jit{ro};
    Runtime rt_jit2{ro};
    LoadOptions lo;
    lo.heap_static_bytes = 4096;
    LoadOptions lo_ref = lo;
    lo_ref.optimize = false;
    LoadOptions lo_jit = lo;
    lo_jit.engine = ExecEngine::kJit;
    LoadOptions lo_jit2 = lo;
    lo_jit2.engine = ExecEngine::kJit2;
    auto id_opt = rt_opt.Load(p, lo);
    auto id_ref = rt_ref.Load(p, lo_ref);
    auto id_jit = rt_jit.Load(p, lo_jit);
    auto id_jit2 = rt_jit2.Load(p, lo_jit2);
    ASSERT_EQ(id_opt.ok(), id_ref.ok()) << ProgramToString(p);
    ASSERT_EQ(id_opt.ok(), id_jit.ok()) << ProgramToString(p);
    ASSERT_EQ(id_opt.ok(), id_jit2.ok()) << ProgramToString(p);
    if (!id_opt.ok()) {
      continue;
    }
    compared++;
    for (int run = 0; run < 2; run++) {
      uint8_t ctx_opt[2048];
      for (auto& byte : ctx_opt) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      uint8_t ctx_ref[2048];
      std::memcpy(ctx_ref, ctx_opt, sizeof(ctx_ref));
      uint8_t ctx_jit[2048];
      std::memcpy(ctx_jit, ctx_opt, sizeof(ctx_jit));
      uint8_t ctx_jit2[2048];
      std::memcpy(ctx_jit2, ctx_opt, sizeof(ctx_jit2));

      InvokeResult a = rt_opt.Invoke(*id_opt, 0, ctx_opt, sizeof(ctx_opt));
      InvokeResult b = rt_ref.Invoke(*id_ref, 0, ctx_ref, sizeof(ctx_ref));
      InvokeResult c = rt_jit.Invoke(*id_jit, 0, ctx_jit, sizeof(ctx_jit));
      InvokeResult d = rt_jit2.Invoke(*id_jit2, 0, ctx_jit2, sizeof(ctx_jit2));
      ASSERT_EQ(a.attached, b.attached) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.attached, c.attached) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.attached, d.attached) << "program " << n << "\n" << ProgramToString(p);
      if (!a.attached) {
        break;
      }
      ASSERT_EQ(a.cancelled, b.cancelled) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.outcome, b.outcome) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.verdict, b.verdict) << "program " << n << "\n" << ProgramToString(p);
      for (const InvokeResult* r : {&c, &d}) {
        ASSERT_EQ(a.cancelled, r->cancelled) << "program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.outcome, r->outcome) << "program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.verdict, r->verdict) << "program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.fault_pc, r->fault_pc) << "program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.fault_kind, r->fault_kind)
            << "program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.insns, r->insns)
            << "instruction counts diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.instr_insns, r->instr_insns)
            << "instrumented counts diverged, program " << n << "\n" << ProgramToString(p);
      }
      if (rt_opt.heap(*id_opt) != nullptr) {
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_ref.heap(*id_ref)->HostAt(0), kHeap))
            << "heap contents diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_jit.heap(*id_jit)->HostAt(0), kHeap))
            << "JIT heap contents diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_jit2.heap(*id_jit2)->HostAt(0), kHeap))
            << "JIT v2 heap contents diverged, program " << n << "\n" << ProgramToString(p);
      }
    }
  }
  EXPECT_GT(compared, kPrograms / 4) << "generator drifted: too few accepted programs";
}

// Regalloc-adversarial four-way differential: the corpus concentrates on the
// shapes JIT v2 rewrites — loop-invariant guarded clusters (preheader
// hoisting + translation caching), high register pressure across helper
// callouts (minimized spill/reload masks), and map lookups with statically
// visible map ids (inline array indexing and the inline hash probe) mixed
// with map updates that mutate the tables mid-run. Run 1 of each program
// passes no helper-trace sink, so the runtime leaves slow_flags clear and
// the inline fast paths genuinely execute (with a sink armed every inline
// site bails to the traced callout). Every observable — verdict, outcome,
// fault pc and kind, exact retired and instrumented instruction counts,
// helper traces, full heap bytes — must agree across all four engines.
TEST(FuzzDifferential, RegallocAdversarialFourWayExact) {
  Rng rng(0xA11C47ULL);
  int compared = 0;
  constexpr int kPrograms = 200;
  for (int n = 0; n < kPrograms; n++) {
    bool kflex = n % 3 != 2;
    RuntimeOptions ro{1, 1'000'000'000ULL};
    Runtime rt_ref{ro};
    Runtime rt_opt{ro};
    Runtime rt_jit{ro};
    Runtime rt_jit2{ro};
    uint32_t array_id = 0;
    uint32_t hash_id = 0;
    for (Runtime* rt : {&rt_ref, &rt_opt, &rt_jit, &rt_jit2}) {
      MakeHelpersDeterministic(*rt);
      // Same creation order in every registry -> same ids everywhere.
      auto arr = rt->maps().CreateArray(4, 8, 16);
      auto hash = rt->maps().CreateHash(4, 8, 16);
      ASSERT_TRUE(arr.ok() && hash.ok());
      array_id = arr->id;
      hash_id = hash->id;
    }
    ProgramGenerator gen(rng, kflex, /*resources=*/false, /*helper_calls=*/true,
                         /*netfn_bias=*/false, /*regalloc_adversarial=*/true);
    gen.EnableMapOps(array_id, hash_id);
    Program p = gen.Generate();

    LoadOptions lo;
    lo.heap_static_bytes = 4096;
    LoadOptions lo_ref = lo;
    lo_ref.optimize = false;
    LoadOptions lo_jit = lo;
    lo_jit.engine = ExecEngine::kJit;
    LoadOptions lo_jit2 = lo;
    lo_jit2.engine = ExecEngine::kJit2;
    auto id_ref = rt_ref.Load(p, lo_ref);
    auto id_opt = rt_opt.Load(p, lo);
    auto id_jit = rt_jit.Load(p, lo_jit);
    auto id_jit2 = rt_jit2.Load(p, lo_jit2);
    ASSERT_EQ(id_opt.ok(), id_ref.ok()) << ProgramToString(p);
    ASSERT_EQ(id_opt.ok(), id_jit.ok()) << ProgramToString(p);
    ASSERT_EQ(id_opt.ok(), id_jit2.ok()) << ProgramToString(p);
    if (!id_opt.ok()) {
      continue;
    }
    if (JitHostSupported()) {
      ASSERT_EQ(rt_jit.engine_info(*id_jit).used, ExecEngine::kJit)
          << rt_jit.engine_info(*id_jit).fallback_reason << "\n" << ProgramToString(p);
      ASSERT_EQ(rt_jit2.engine_info(*id_jit2).used, ExecEngine::kJit2)
          << rt_jit2.engine_info(*id_jit2).fallback_reason << "\n" << ProgramToString(p);
    }
    compared++;
    for (int run = 0; run < 3; run++) {
      const bool traced = run != 1;
      uint8_t ctx[2048];
      for (auto& byte : ctx) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      uint8_t ctx_ref[2048], ctx_jit[2048], ctx_jit2[2048];
      std::memcpy(ctx_ref, ctx, sizeof(ctx_ref));
      std::memcpy(ctx_jit, ctx, sizeof(ctx_jit));
      std::memcpy(ctx_jit2, ctx, sizeof(ctx_jit2));

      std::vector<std::pair<int32_t, uint64_t>> trace_opt, trace_ref, trace_jit, trace_jit2;
      InvokeResult a = rt_opt.Invoke(*id_opt, 0, ctx, sizeof(ctx),
                                     traced ? &trace_opt : nullptr);
      InvokeResult b = rt_ref.Invoke(*id_ref, 0, ctx_ref, sizeof(ctx_ref),
                                     traced ? &trace_ref : nullptr);
      InvokeResult c = rt_jit.Invoke(*id_jit, 0, ctx_jit, sizeof(ctx_jit),
                                     traced ? &trace_jit : nullptr);
      InvokeResult d = rt_jit2.Invoke(*id_jit2, 0, ctx_jit2, sizeof(ctx_jit2),
                                      traced ? &trace_jit2 : nullptr);
      ASSERT_EQ(a.attached, b.attached) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.attached, c.attached) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.attached, d.attached) << "program " << n << "\n" << ProgramToString(p);
      if (!a.attached) {
        break;
      }
      ASSERT_EQ(a.cancelled, b.cancelled) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.outcome, b.outcome) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(a.verdict, b.verdict) << "program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(trace_opt, trace_ref)
          << "helper traces diverged, program " << n << "\n" << ProgramToString(p);
      for (const InvokeResult* r : {&c, &d}) {
        const char* engine = r == &c ? "jit" : "jit2";
        ASSERT_EQ(a.cancelled, r->cancelled)
            << engine << " run " << run << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.outcome, r->outcome)
            << engine << " run " << run << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.verdict, r->verdict)
            << engine << " run " << run << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.fault_pc, r->fault_pc)
            << engine << " run " << run << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.fault_kind, r->fault_kind)
            << engine << " run " << run << " program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(a.insns, r->insns)
            << engine << " instruction counts diverged, run " << run << " program " << n
            << "\n" << ProgramToString(p);
        ASSERT_EQ(a.instr_insns, r->instr_insns)
            << engine << " instrumented counts diverged, run " << run << " program " << n
            << "\n" << ProgramToString(p);
      }
      ASSERT_EQ(trace_opt, trace_jit)
          << "JIT helper trace diverged, program " << n << "\n" << ProgramToString(p);
      ASSERT_EQ(trace_opt, trace_jit2)
          << "JIT v2 helper trace diverged, program " << n << "\n" << ProgramToString(p);
      if (rt_opt.heap(*id_opt) != nullptr) {
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_ref.heap(*id_ref)->HostAt(0), kHeap))
            << "heap contents diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_jit.heap(*id_jit)->HostAt(0), kHeap))
            << "JIT heap contents diverged, program " << n << "\n" << ProgramToString(p);
        ASSERT_EQ(0, std::memcmp(rt_opt.heap(*id_opt)->HostAt(0),
                                 rt_jit2.heap(*id_jit2)->HostAt(0), kHeap))
            << "JIT v2 heap contents diverged, program " << n << "\n" << ProgramToString(p);
      }
    }
  }
  EXPECT_GT(compared, kPrograms / 4) << "generator drifted: too few accepted programs";
}

// ---- Chaos mode: seeded fault injection over the corpus ---------------------
//
// A slice of the differential corpus is run twice on identical context
// bytes: a reference run with the fault registry disarmed and a chaos run
// with seeded probabilistic faults armed on the pager and helper points.
// The schedules are pure functions of (seed, hit index), so each program's
// chaos behaviour is exactly reproducible from the --fault specs printed on
// failure. If the chaos run happened to inject nothing (fail-count delta is
// zero) it must be observationally identical to the reference — verdict,
// outcome, helper trace, and full heap contents. If faults did fire, the
// run must either complete cleanly or cancel with a documented fault kind,
// and the post-fault invariant sweep must be green. Never a diverging heap
// on success, never an unclean error.
TEST(FuzzChaos, SeededFaultsMatchVerdictOrFailCleanly) {
  Rng rng(0xC7A05);
  int injected = 0;
  int equivalent = 0;
  constexpr int kPrograms = 150;
  for (int n = 0; n < kPrograms; n++) {
    ProgramGenerator gen(rng, /*kflex=*/true, /*resources=*/false, /*helper_calls=*/true);
    Program p = gen.Generate();
    RuntimeOptions ro;
    ro.num_cpus = 1;
    Runtime rt_ref{ro};
    Runtime rt_chaos{ro};
    MakeHelpersDeterministic(rt_ref);
    MakeHelpersDeterministic(rt_chaos);
    LoadOptions lo;
    lo.heap_static_bytes = 4096;
    auto id_ref = rt_ref.Load(p, lo);
    auto id_chaos = rt_chaos.Load(p, lo);
    ASSERT_EQ(id_ref.ok(), id_chaos.ok()) << ProgramToString(p);
    if (!id_ref.ok()) {
      continue;
    }

    uint8_t ctx_ref[2048];
    for (auto& byte : ctx_ref) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    uint8_t ctx_chaos[2048];
    std::memcpy(ctx_chaos, ctx_ref, sizeof(ctx_chaos));

    // The reference run is the baseline whatever it does: generated programs
    // may legitimately self-cancel (guard-zone heap arithmetic), and an
    // injection-free chaos run must mirror that exactly.
    std::vector<std::pair<int32_t, uint64_t>> trace_ref, trace_chaos;
    InvokeResult a = rt_ref.Invoke(*id_ref, 0, ctx_ref, sizeof(ctx_ref), &trace_ref);

    const uint64_t seed = 0x9E3779B9ULL + static_cast<uint64_t>(n) * 3;
    const std::string specs[] = {
        "heap.pagein:prob=0.01,seed=" + std::to_string(seed),
        "heap.guard:prob=0.01,seed=" + std::to_string(seed + 1),
        "helper.ret_err:prob=0.05,seed=" + std::to_string(seed + 2),
    };
    const std::string replay = "program " + std::to_string(n) + " --fault=" + specs[0] +
                               " --fault=" + specs[1] + " --fault=" + specs[2];
    ScopedFaultInjection faults{specs[0], specs[1], specs[2]};  // arming resets hit counters
    InvokeResult b = rt_chaos.Invoke(*id_chaos, 0, ctx_chaos, sizeof(ctx_chaos), &trace_chaos);

    uint64_t fired = 0;
    for (const char* point : {"heap.pagein", "heap.guard", "helper.ret_err"}) {
      fired += FaultRegistry::Instance().Find(point)->fails();
    }
    if (fired == 0) {
      // Nothing injected: the armed-but-silent run may not diverge at all.
      equivalent++;
      ASSERT_EQ(a.cancelled, b.cancelled) << replay << "\n" << ProgramToString(p);
      ASSERT_EQ(a.outcome, b.outcome) << replay << "\n" << ProgramToString(p);
      ASSERT_EQ(a.fault_kind, b.fault_kind) << replay << "\n" << ProgramToString(p);
      ASSERT_EQ(a.verdict, b.verdict) << replay << "\n" << ProgramToString(p);
      ASSERT_EQ(trace_ref, trace_chaos) << replay << "\n" << ProgramToString(p);
      if (rt_ref.heap(*id_ref) != nullptr && rt_chaos.heap(*id_chaos) != nullptr) {
        ASSERT_EQ(0, std::memcmp(rt_ref.heap(*id_ref)->HostAt(0),
                                 rt_chaos.heap(*id_chaos)->HostAt(0), kHeap))
            << "heap diverged without any injected fault, " << replay << "\n"
            << ProgramToString(p);
      }
    } else {
      // Faults fired: the run may degrade, but only along documented paths.
      injected++;
      if (b.cancelled) {
        ASSERT_TRUE(b.fault_kind == MemFaultKind::kNotPresent ||
                    b.fault_kind == MemFaultKind::kGuardZone ||
                    b.fault_kind == MemFaultKind::kTerminate)
            << "unclean injected fault kind " << static_cast<int>(b.fault_kind) << ", "
            << replay << "\n" << ProgramToString(p);
      } else {
        ASSERT_EQ(b.outcome, VmResult::Outcome::kOk) << replay << "\n" << ProgramToString(p);
      }
      InvariantReport sweep = rt_chaos.SweepInvariants(*id_chaos);
      ASSERT_TRUE(sweep.ok()) << sweep.ToString() << "\n" << replay << "\n"
                              << ProgramToString(p);
    }
  }
  // The slice must exercise both regimes, or the probabilities have drifted.
  EXPECT_GT(injected, 0) << "chaos corpus never injected a fault";
  EXPECT_GT(equivalent, 0) << "chaos corpus never produced an injection-free run";
}

// The verifier must reject (not crash on) byte-level garbage programs.
TEST(FuzzRobustness, GarbageBytecodeIsRejectedNotCrashed) {
  Rng rng(0xDEAD);
  for (int n = 0; n < 3000; n++) {
    Program p;
    p.mode = rng.NextBounded(2) == 0 ? ExtensionMode::kKflex : ExtensionMode::kEbpf;
    p.heap_size = p.mode == ExtensionMode::kKflex ? kHeap : 0;
    size_t len = 1 + rng.NextBounded(24);
    for (size_t i = 0; i < len; i++) {
      Insn insn;
      insn.opcode = static_cast<uint8_t>(rng.Next());
      insn.dst = static_cast<uint8_t>(rng.NextBounded(16));
      insn.src = static_cast<uint8_t>(rng.NextBounded(16));
      insn.off = static_cast<int16_t>(rng.Next());
      insn.imm = static_cast<int32_t>(rng.Next());
      p.insns.push_back(insn);
    }
    auto r = Verify(p, VerifyOptions{});
    // Garbage may occasionally be valid; it must never crash, and if it is
    // accepted it must also instrument and execute without host faults.
    if (r.ok()) {
      auto ip = Instrument(p, *r, HeapLayout::ForSize(kHeap), KieOptions{});
      ASSERT_TRUE(ip.ok());
      // The JIT must also survive accepted garbage: compile or fall back,
      // never crash. (Unsupported constructs fall back to the interpreter.)
      JitCompileResult jr = JitCompile(*ip, JitOptions{}, JitCompileEnv{});
      if (jr.program == nullptr) {
        ASSERT_FALSE(jr.fallback_reason.empty());
      }
      // Same contract for the v2 optimizer passes (regalloc, hoisting; no
      // compile env here, so helper inlining stays off by construction).
      JitOptions v2;
      v2.v2 = true;
      JitCompileResult jr2 = JitCompile(*ip, v2, JitCompileEnv{});
      if (jr2.program == nullptr) {
        ASSERT_FALSE(jr2.fallback_reason.empty());
      }
    }
  }
}

}  // namespace
}  // namespace kflex
