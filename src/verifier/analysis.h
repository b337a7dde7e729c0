// Per-instruction facts the verifier exports to the instrumentation engine
// (Kie): memory-region classification, guard-elision decisions from range
// analysis, translate-on-store candidates, cancellation back edges, and
// per-cancellation-point object tables (§3.2, §3.3).
#ifndef SRC_VERIFIER_ANALYSIS_H_
#define SRC_VERIFIER_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/ebpf/helper_ids.h"

namespace kflex {

enum class MemRegion : uint8_t {
  kNone = 0,
  kCtx,
  kStack,
  kHeap,      // extension heap, via a verifier-typed heap pointer
  kMapValue,  // kernel-provided map value
};

// Facts about one memory-access instruction, merged over all verifier paths
// reaching it.
struct MemAccessInfo {
  bool visited = false;
  MemRegion region = MemRegion::kNone;
  // Heap access whose bounds could NOT be proven by range analysis on some
  // path: Kie must emit a sanitizing guard.
  bool needs_guard = false;
  // The access dereferences an untrusted scalar (a pointer loaded from the
  // extension heap, which user space may corrupt): the guard "forms a new
  // heap pointer" and must never be elided (§5.4).
  bool formation = false;
  // STX DW storing a verifier-typed heap pointer on every path: candidate
  // for translate-on-store (§3.4).
  bool stores_heap_ptr = false;
  // Conflicting source types across paths: translation must be suppressed.
  bool stores_mixed = false;
};

// One entry of a cancellation-point object table: where a kernel-owned
// resource lives when execution reaches the Cp, and how to destroy it.
struct ObjectTableEntry {
  ResourceKind kind = ResourceKind::kNone;
  HelperId destructor = static_cast<HelperId>(0);
  // Resource handle location: register index, or spilled stack slot.
  int reg = -1;         // >= 0: register holding the handle
  int stack_slot = -1;  // >= 0: 8-byte stack slot index holding the handle
  // For locks: the lock's constant heap offset (identity).
  uint64_t lock_off = 0;

  bool operator==(const ObjectTableEntry& other) const = default;
  bool operator<(const ObjectTableEntry& other) const {
    return std::tie(kind, destructor, reg, stack_slot, lock_off) <
           std::tie(other.kind, other.destructor, other.reg, other.stack_slot, other.lock_off);
  }
};

struct Analysis {
  // Indexed by instruction pc.
  std::vector<MemAccessInfo> mem;
  // Jump pcs that are back edges of loops whose termination could not be
  // proven: Kie inserts the *terminate heap access before these (C1 Cps).
  std::set<size_t> cancellation_back_edges;
  // Object table per potential cancellation point pc (heap accesses and
  // cancellation back edges). Empty table = nothing to release.
  std::map<size_t, std::set<ObjectTableEntry>> object_tables;
  // Per-pc: 1 if symbolic execution reached the instruction. Stronger than
  // CFG reachability (constant-folded branches never push the dead side);
  // lint passes use it to skip code the verifier proved unreachable.
  std::vector<uint8_t> insn_visited;

  // Statistics (feed Table 3 and EXPERIMENTS.md).
  size_t heap_access_insns = 0;   // accesses classified kHeap (incl. formation)
  size_t elided_guards = 0;       // provably-safe accesses needing no guard
  size_t required_guards = 0;     // pointer-manipulation guards Kie must emit
  size_t formation_guards = 0;    // untrusted-scalar guards (never elidable)
  size_t explored_insns = 0;      // total symbolic steps taken
  size_t explored_states = 0;     // states pushed on the exploration stack
  // CFG/liveness refinements (cfg.h, dataflow.h): conservative back-edge
  // marks the natural-loop scoping removed, and object-table entries the
  // pre-liveness location policy would have emitted at a dead location.
  size_t pruned_back_edges = 0;
  size_t pruned_object_entries = 0;
};

// True when the verifier's symbolic execution proved `pc` unreachable (a
// constant-folded branch never pushed the dead side). Resource facts from
// such code are not real: the runtime can never execute it. Always false
// without verifier facts (`analysis` null, e.g. a rejected program).
inline bool VerifierUnreached(const Analysis* analysis, size_t pc) {
  return analysis != nullptr && pc < analysis->insn_visited.size() &&
         analysis->insn_visited[pc] == 0;
}

}  // namespace kflex

#endif  // SRC_VERIFIER_ANALYSIS_H_
