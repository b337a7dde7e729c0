// Concurrency-safety analysis: lockset + atomicity + lock-order over the
// CFG/dataflow framework (cfg.h, dataflow.h) and the helper contracts.
//
// ROADMAP item 1 (the multi-core sharded runtime) needs a *certifiable*
// answer to "is this extension safe to invoke concurrently?". The verifier
// proves memory and termination safety but says nothing about data races;
// this analysis fills the gap in the mold the kernel eBPF ecosystem uses
// (per-CPU maps, bpf_spin_lock regions, atomic instructions) and distills
// the result into a per-program shard-safety certificate:
//
//  * kRaceFree       — every shared-state access is an atomic instruction
//                      (or the program touches no shared state at all):
//                      invocations may run concurrently with no ordering.
//  * kLockProtected  — every shared-state access is atomic or performed
//                      with at least one spin lock definitely held: safe to
//                      shard, at the cost of lock contention.
//  * kSerialOnly     — some shared access is reachable with an empty
//                      lockset: the dispatcher must serialize invocations
//                      of this extension (or refuse to shard it).
//
// "Shared state" is split in two classes with different blast radii:
// kernel map values (shared across extensions and CPUs today — an
// unprotected access is a race outright) and the extension heap (shared
// with user space and future concurrent invocations of the same extension —
// unprotected accesses only downgrade the certificate). The lint layer
// (lint.cc) maps the first class to error findings and the second to notes,
// keeping the shipped single-threaded examples clean while still refusing
// them a concurrency certificate.
//
// Like the contract audit (audit.h), every lock-acquisition-order edge
// carries a pc+path witness (WitnessStep sequence from the entry to the
// acquisition) so a reported deadlock cycle names concrete code paths.
#ifndef SRC_VERIFIER_CONCURRENCY_H_
#define SRC_VERIFIER_CONCURRENCY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ebpf/program.h"
#include "src/verifier/analysis.h"
#include "src/verifier/audit.h"
#include "src/verifier/cfg.h"

namespace kflex {

// The per-program shard-safety certificate consumed by the (future) sharded
// dispatcher as its load-time gate, ordered by decreasing strength.
enum class ShardSafety : uint8_t {
  kRaceFree = 0,
  kLockProtected = 1,
  kSerialOnly = 2,
};

const char* ShardSafetyName(ShardSafety safety);

// One concurrency defect (or advisory) found by the analysis. The lint
// views (lockset / atomicity / lock-order passes in lint.cc) select by kind
// and assign severities; the raw report keeps everything.
struct ConcurrencyFinding {
  enum class Kind : uint8_t {
    kUnlockedMapAccess = 0,  // map value touched with an empty lockset
    kUnlockedHeapAccess,     // extension heap touched with an empty lockset
    kNonAtomicMapRmw,        // load->alu->store on a map value, no lock/atomic
    kNonAtomicHeapRmw,       // load->alu->store on the heap, no lock/atomic
    kLockCycle,              // lock re-acquired while already held (a self-cycle)
  };

  Kind kind = Kind::kUnlockedMapAccess;
  size_t pc = 0;        // anchoring access / acquisition pc
  std::string message;  // human-readable description
  // Entry-to-anchor pc+path witness (same encoding as the contract audit:
  // branch 0 = jump taken, 1 = fall-through, -1 = not a conditional).
  std::vector<WitnessStep> path;

  bool operator==(const ConcurrencyFinding& other) const = default;
};

const char* ConcurrencyFindingKindName(ConcurrencyFinding::Kind kind);

// One edge of the static lock-acquisition graph: lock `to` acquired at `pc`
// while lock `from` (both constant heap offsets) was definitely held, with
// the path witness of one concrete entry-to-acquisition path.
struct LockOrderEdge {
  uint64_t from = 0;
  uint64_t to = 0;
  size_t pc = 0;
  std::vector<WitnessStep> path;

  bool operator==(const LockOrderEdge& other) const = default;
};

// The distilled analysis result stored on InstrumentedProgram and surfaced
// through Runtime::engine_info / kflex_run --concurrency-report.
struct ConcurrencyReport {
  ShardSafety safety = ShardSafety::kRaceFree;

  // Access accounting over reachable memory instructions.
  size_t map_accesses = 0;          // accesses classified as map values
  size_t heap_accesses = 0;         // accesses classified as extension heap
  size_t atomic_accesses = 0;       // of the above, atomic instructions
  size_t locked_accesses = 0;       // of the above, under >= 1 held lock
  size_t unprotected_map_accesses = 0;
  size_t unprotected_heap_accesses = 0;

  // Findings sorted by (pc, kind, message) — deterministic across runs.
  std::vector<ConcurrencyFinding> findings;
  // Acquisition-order edges sorted by (from, to), earliest witness kept.
  std::vector<LockOrderEdge> edges;
};

// Analyzes one program. `analysis` (the verifier's output) is optional:
// when present, memory accesses use the verifier's region classification
// and symbolically-unreached code is skipped; when absent (rejected
// programs, plain lint runs) a self-contained pointer-provenance analysis
// classifies accesses, so the passes still fire on unverified input.
ConcurrencyReport AnalyzeConcurrency(const Program& program, const Cfg& cfg,
                                     const Analysis* analysis);
// Convenience overload building the CFG internally; returns an empty
// (kRaceFree, no findings) report when the program is too malformed for a
// CFG — callers on the load path treat that as "nothing provable".
ConcurrencyReport AnalyzeConcurrency(const Program& program, const Analysis* analysis);

// The cross-program lock-acquisition graph: Runtime builds one per shared
// heap over all loaded extensions' report edges, kflex-lint builds one over
// all files on the command line. Cycles are potential AB/BA deadlocks.
class LockOrderGraph {
 public:
  // Contributes `edges` under the given program name (witnesses are kept).
  void AddEdges(const std::string& program, const std::vector<LockOrderEdge>& edges);

  struct CycleEdge {
    std::string program;  // contributing program name
    LockOrderEdge edge;
  };
  struct Cycle {
    std::vector<CycleEdge> edges;  // rotated to start at the smallest lock
    // Distinct contributing program names, sorted.
    std::vector<std::string> programs;
    // "lock-order cycle: heap offset 64 -> 128 -> 64 (prog_a pc 5, ...)".
    std::string Describe() const;
  };

  // Every elementary cycle in the graph, deduplicated by its lock set and
  // rotation-normalized, sorted by the smallest lock offset then length.
  std::vector<Cycle> FindCycles() const;

  size_t num_edges() const { return edges_.size(); }

 private:
  std::vector<CycleEdge> edges_;
};

}  // namespace kflex

#endif  // SRC_VERIFIER_CONCURRENCY_H_
