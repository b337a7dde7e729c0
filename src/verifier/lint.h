// Lint passes over extension bytecode, built on the CFG/dataflow framework
// (cfg.h, dataflow.h). Lint findings are advisory diagnostics — they never
// gate loading — but each pass is engineered for zero false positives: a
// finding only fires when the defect is provable from the whole-program
// structure (must-hold lock sets, constant-folded arguments, liveness). The
// lock and concurrency passes are views over one concurrency report
// (concurrency.h), the contract passes views over one contract audit
// (audit.h). The kflex-lint CLI (tools/kflex_lint.cc) runs every pass and
// reports findings alongside the verifier's elision statistics.
#ifndef SRC_VERIFIER_LINT_H_
#define SRC_VERIFIER_LINT_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/ebpf/program.h"
#include "src/verifier/analysis.h"
#include "src/verifier/audit.h"
#include "src/verifier/cfg.h"
#include "src/verifier/concurrency.h"
#include "src/verifier/dataflow.h"

namespace kflex {

enum class LintSeverity { kNote = 0, kWarning = 1, kError = 2 };

const char* LintSeverityName(LintSeverity severity);

// One diagnostic from one pass, anchored to an instruction pc.
struct Finding {
  size_t pc = 0;
  LintSeverity severity = LintSeverity::kWarning;
  std::string pass;     // registry name of the emitting pass
  std::string message;  // human-readable description
  // Optional entry-to-anchor pc+path witness (the passes over the
  // concurrency report; same encoding as the contract audit). Empty for the
  // other passes.
  std::vector<WitnessStep> path;

  bool operator==(const Finding& other) const = default;
};

// Everything a pass may consult. `analysis` is the verifier's output when
// the program verified, nullptr otherwise — passes must work without it
// (lint runs on rejected programs too, to explain why). The concurrency
// report and the contract audit are computed once, on first use, so a
// caller that also needs them reads them from the context RunLint ran on.
struct LintContext {
  // Builds the CFG and liveness of `prog`, which must outlive the context.
  // Fails only if the program is too malformed to build a CFG for.
  static StatusOr<LintContext> Build(const Program& prog, const Analysis* facts);

  const Program& program;
  Cfg cfg;
  Liveness liveness;
  const Analysis* analysis;

  const ConcurrencyReport& concurrency() const;
  const std::vector<AuditFinding>& audit() const;

 private:
  LintContext(const Program& prog, Cfg graph, Liveness live, const Analysis* facts)
      : program(prog), cfg(std::move(graph)), liveness(std::move(live)), analysis(facts) {}

  mutable std::optional<ConcurrencyReport> concurrency_;
  mutable std::optional<std::vector<AuditFinding>> audit_;
};

struct LintPass {
  const char* name;         // stable identifier, e.g. "dead-code"
  const char* description;  // one-line summary for --help style output
  void (*run)(const LintContext& ctx, std::vector<Finding>& findings);
};

// The fixed pass registry, in run order: "dead-code", "lock-order",
// "ref-leak", "helper-contract", "redundant-guard", the speculative
// contract-audit passes "contract-release" and "contract-check" (audit.h)
// whose findings are path witnesses meant to be confirmed or pruned by chaos
// replay (`kflex-lint --audit`), plus the concurrency passes "lockset",
// "atomicity" and "lock-cycle" (concurrency.h) backing the shard-safety
// certificate (docs/concurrency.md).
const std::vector<LintPass>& LintPasses();

struct LintRunOptions {
  // Names of the passes to run, in registry order; empty = every pass.
  // RunLint fails on a name not present in the registry.
  std::vector<std::string> passes;
};

// Runs the selected passes over `ctx`. Identical findings emitted by
// overlapping passes (same pc, severity and message — e.g. ref-leak and
// contract-release describing the same leaked reference) are deduplicated,
// keeping the copy of the pass listed first. Findings are sorted by (pc,
// pass). Fails only if a selected pass does not exist.
StatusOr<std::vector<Finding>> RunLint(const LintContext& ctx,
                                       const LintRunOptions& options = {});

// Builds the context for `program` and runs the selected passes over it.
// Also fails if the program is too malformed to build a CFG for.
StatusOr<std::vector<Finding>> RunLint(const Program& program,
                                       const Analysis* analysis = nullptr,
                                       const LintRunOptions& options = {});

}  // namespace kflex

#endif  // SRC_VERIFIER_LINT_H_
