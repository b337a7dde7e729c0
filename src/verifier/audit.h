// Contract audit: path-sensitive static analysis of helper-contract
// obligations, with per-finding path witnesses and a distiller that lowers
// each witness into a minimal standalone program the chaos harness can
// replay (src/audit/replay.h).
//
// The shape is ACHyb's hybrid analysis: the static pass deliberately
// explores paths the symbolic verifier prunes as infeasible (it carries no
// value ranges, only lock identities and handle locations), so every
// resource-discipline violation that *could* be a path is flagged — and the
// dynamic replay then confirms real violations or prunes infeasible ones.
//
// Obligations come from the declarative contract table derived from the
// helper catalog (helper_ids.h):
//  * kRelease — a helper that acquires a kernel resource (socket reference,
//    spin lock) obligates every path to reach the releasing helper before
//    the hook exit;
//  * kCheck — a helper returning a nullable pointer (map lookup, heap
//    malloc) obligates a NULL check before the result is dereferenced.
#ifndef SRC_VERIFIER_AUDIT_H_
#define SRC_VERIFIER_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ebpf/helper_ids.h"
#include "src/ebpf/program.h"
#include "src/verifier/analysis.h"
#include "src/verifier/cfg.h"

namespace kflex {

enum class ObligationKind : uint8_t {
  kRelease = 0,  // acquired resource must reach its release helper
  kCheck = 1,    // nullable result must be NULL-checked before dereference
};

const char* ObligationKindName(ObligationKind kind);

// One declarative obligation clause of the contract table.
struct ContractClause {
  int32_t helper = 0;  // helper whose call creates the obligation
  const char* helper_name = "";
  ObligationKind kind = ObligationKind::kRelease;
  // kRelease: the resource acquired and the helper that discharges it.
  ResourceKind resource = ResourceKind::kNone;
  int32_t release_helper = 0;
  // kCheck: the nullable return type that must be checked.
  HelperRetType ret = HelperRetType::kVoid;
};

// The contract table, derived once from AllHelperContracts(): each acquiring
// helper contributes a kRelease clause; each helper returning a nullable
// pointer *without* acquiring contributes a kCheck clause (an acquiring
// helper's NULL result is already handled by the release obligation's
// NULL-edge retirement, mirroring the verifier).
const std::vector<ContractClause>& HelperContractTable();

// One step of a path witness: the pc executed, and — when the instruction is
// a conditional jump — which edge the path took (0 = jump taken, 1 =
// fall-through, -1 = not a conditional).
struct WitnessStep {
  size_t pc = 0;
  int branch = -1;

  bool operator==(const WitnessStep& other) const = default;
};

// A resource whose obligation is open at some point of the witness path,
// with enough location information for the distiller to synthesize a
// release when execution leaves the path.
struct OpenResource {
  ResourceKind kind = ResourceKind::kNone;
  // Locks: constant heap-offset identity, when the audit could track it.
  uint64_t lock_off = 0;
  bool lock_off_known = false;
  // Sockets: where the handle lives at this point (-1/-1 = not locatable).
  int reg = -1;
  int stack_slot = -1;
};

// What must be released if execution diverges from the witness path at the
// conditional recorded at path[step_index].
struct BranchCleanup {
  size_t step_index = 0;
  std::vector<OpenResource> open;
};

struct AuditFinding {
  ObligationKind kind = ObligationKind::kRelease;
  int32_t helper = 0;  // helper whose obligation is unmet
  std::string helper_name;
  size_t source_pc = 0;  // call pc that created the obligation
  size_t sink_pc = 0;    // exit pc (kRelease) or dereference pc (kCheck)
  ResourceKind resource = ResourceKind::kNone;
  uint64_t lock_off = 0;
  bool lock_off_known = false;
  std::string message;
  // Entry through sink; every executed instruction start pc, in order.
  std::vector<WitnessStep> path;
  // One entry per conditional on the path, in step order.
  std::vector<BranchCleanup> cleanups;
  // Resources still open when the path reaches the sink (used by the
  // distiller to exit cleanly after a kCheck dereference).
  std::vector<OpenResource> open_at_sink;
};

// Runs the path-sensitive audit: a DFS bounded at 4096 paths of at most 512
// steps, two visits of one block per path, and 64 findings. `analysis` (the
// verifier's output, may be null for rejected programs) suppresses
// obligations at instructions the symbolic execution proved unreachable.
// Findings are deduplicated by (kind, helper, source_pc, sink_pc), each
// carrying the first witness path found.
std::vector<AuditFinding> RunContractAudit(const Program& program, const Cfg& cfg,
                                           const Analysis* analysis);

// A distilled witness: a standalone program that executes exactly the
// witness path when every branch resolves the way the witness recorded, and
// otherwise *bails out* through a synthesized stub releasing everything held
// at the departure point. Conditional branches are preserved (not
// linearized), so the runtime — possibly steered by injected helper faults —
// decides whether the violating path is actually taken: an infeasible
// witness always bails clean and replays PRUNED.
struct DistilledWitness {
  Program program;
  // Distilled slot index -> original program pc; SIZE_MAX for synthesized
  // bail/cleanup instructions.
  std::vector<size_t> orig_pc;
};

StatusOr<DistilledWitness> DistillWitness(const Program& program,
                                          const AuditFinding& finding);

}  // namespace kflex

#endif  // SRC_VERIFIER_AUDIT_H_
