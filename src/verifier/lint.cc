#include "src/verifier/lint.h"

#include <algorithm>
#include <deque>
#include <set>
#include <tuple>

#include "src/ebpf/helper_ids.h"
#include "src/verifier/absval.h"
#include "src/verifier/audit.h"
#include "src/verifier/concurrency.h"
#include "src/verifier/opt.h"

namespace kflex {

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

std::string RegName(int reg) { return "r" + std::to_string(reg); }

// Local constant propagation (AbsVal/AbsRegs/AbsStep) and the socket-handle
// tracker (SocketTags) live in absval.h, shared with the contract audit
// (audit.cc). Block entries start unknown, which keeps every derived finding
// provable regardless of path.

// ---- Pass: dead-code --------------------------------------------------------

void DeadCodePass(const LintContext& ctx, std::vector<Finding>& out) {
  const Program& prog = ctx.program;
  for (const BasicBlock& bb : ctx.cfg.blocks()) {
    if (!ctx.cfg.Reachable(bb.id)) {
      out.push_back({bb.start, LintSeverity::kWarning, "dead-code",
                     "unreachable code: no path from the entry reaches this instruction"});
      continue;
    }
    for (size_t pc = bb.start; pc < bb.end; pc = ctx.cfg.NextPc(pc)) {
      const Insn& insn = prog.insns[pc];
      if (insn.IsAlu() || insn.IsLdImm64()) {
        if (!ctx.liveness.RegLiveOut(pc, insn.dst)) {
          out.push_back({pc, LintSeverity::kWarning, "dead-code",
                         "dead store: value written to " + RegName(insn.dst) +
                             " is never read"});
        }
      } else if (insn.IsLoad()) {
        if (!ctx.liveness.RegLiveOut(pc, insn.dst)) {
          out.push_back({pc, LintSeverity::kNote, "dead-code",
                         "load result in " + RegName(insn.dst) + " is never read"});
        }
      } else if (insn.IsStore() && insn.dst == R10 && insn.AccessSize() == 8 &&
                 (insn.off + kStackSize) % 8 == 0) {
        int slot = Liveness::SlotForOffset(insn.off);
        if (slot >= 0 && !ctx.liveness.SlotLiveOut(pc, slot)) {
          out.push_back({pc, LintSeverity::kWarning, "dead-code",
                         "dead store: stack slot at fp" + std::to_string(insn.off) +
                             " is never read"});
        }
      }
    }
  }
}

// ---- Pass: lock-order -------------------------------------------------------
//
// A view over the concurrency analysis's must-hold lockset (concurrency.h):
// locks held on EVERY path reaching a point, with lock identities carried
// across blocks, so acquisition-order facts derived from it are provable,
// never speculative. Re-acquisitions of a held lock are the report's
// kLockCycle findings, one per acquiring pc. An inversion is a pair of
// acquisition-order edges (a, b) and (b, a), reported once at the (a, b)
// edge's pc.

// The report's findings of one kind, as error findings of `pass`.
void ConcurrencyFindingsFor(const LintContext& ctx, ConcurrencyFinding::Kind kind,
                            const char* pass, std::vector<Finding>& out) {
  for (const ConcurrencyFinding& f : ctx.concurrency().findings) {
    if (f.kind == kind) {
      out.push_back({f.pc, LintSeverity::kError, pass, f.message, f.path});
    }
  }
}

void LockOrderPass(const LintContext& ctx, std::vector<Finding>& out) {
  ConcurrencyFindingsFor(ctx, ConcurrencyFinding::Kind::kLockCycle, "lock-order", out);
  const std::vector<LockOrderEdge>& edges = ctx.concurrency().edges;
  for (const LockOrderEdge& e : edges) {
    if (e.from >= e.to) {
      continue;
    }
    auto inverse = std::find_if(edges.begin(), edges.end(), [&](const LockOrderEdge& i) {
      return i.from == e.to && i.to == e.from;
    });
    if (inverse != edges.end()) {
      out.push_back({e.pc, LintSeverity::kError, "lock-order",
                     "lock-order inversion: lock at heap offset " + std::to_string(e.to) +
                         " acquired while holding " + std::to_string(e.from) + ", but insn " +
                         std::to_string(inverse->pc) +
                         " acquires them in the opposite order (deadlock risk)",
                     e.path});
    }
  }
}

// ---- Pass: ref-leak ---------------------------------------------------------
//
// May-leak analysis of acquired kernel references (sockets). SocketTags
// (absval.h) follows handles through moves, spills and fills; a JEQ/JNE null
// check retires the acquisition on the NULL branch exactly like the verifier
// does. A release through an untracked register conservatively clears every
// open acquisition, so a finding means: some path provably reaches this exit
// with the reference still held.

struct RefLeakState {
  bool known = false;
  std::set<size_t> open;  // acquire pcs possibly live
  SocketTags tags;
};

bool MeetRefLeakState(RefLeakState& into, const RefLeakState& from) {
  if (!from.known) {
    return false;
  }
  if (!into.known) {
    into = from;
    return true;
  }
  bool changed = false;
  for (size_t pc : from.open) {
    changed |= into.open.insert(pc).second;
  }
  changed |= into.tags.Meet(from.tags);
  return changed;
}

void RefLeakPass(const LintContext& ctx, std::vector<Finding>& out) {
  const Program& prog = ctx.program;
  const size_t nb = ctx.cfg.num_blocks();
  std::vector<RefLeakState> entry(nb);
  entry[0].known = true;

  auto transfer = [&](const BasicBlock& bb, RefLeakState s,
                      std::vector<Finding>* findings) {
    for (size_t pc = bb.start; pc < bb.end; pc = ctx.cfg.NextPc(pc)) {
      const Insn& insn = prog.insns[pc];
      const HelperContract* contract = insn.IsCall() ? FindHelperContract(insn.imm) : nullptr;
      if (contract != nullptr && contract->releases == ResourceKind::kSocket) {
        size_t tag = s.tags.Release();
        if (tag != 0) {
          s.open.erase(tag - 1);
        } else {
          s.open.clear();  // released an untracked handle: assume any
        }
      }
      s.tags.Step(insn);
      if (contract != nullptr && contract->acquires == ResourceKind::kSocket &&
          !VerifierUnreached(ctx.analysis, pc)) {
        s.open.insert(pc);
        s.tags.reg[R0] = pc + 1;
      }
      if (insn.IsExit() && findings != nullptr && !VerifierUnreached(ctx.analysis, pc)) {
        for (size_t acquire_pc : s.open) {
          findings->push_back({pc, LintSeverity::kError, "ref-leak",
                               "kernel reference acquired at insn " +
                                   std::to_string(acquire_pc) +
                                   " may still be held on this exit path"});
        }
      }
    }
    return s;
  };

  // Null checks retire the acquisition on the NULL edge (succ 0 = taken). A
  // conditional jump is one slot, so it can only be the block's last slot.
  auto edge_state = [&](const BasicBlock& bb, RefLeakState s, size_t succ_index) {
    size_t last = bb.end - 1;
    size_t tag = ctx.cfg.IsInsnStart(last)
                     ? s.tags.RetireNullEdge(prog.insns[last], static_cast<int>(succ_index))
                     : 0;
    if (tag != 0) {
      s.open.erase(tag - 1);
    }
    return s;
  };

  std::deque<size_t> work(ctx.cfg.rpo().begin(), ctx.cfg.rpo().end());
  while (!work.empty()) {
    size_t b = work.front();
    work.pop_front();
    if (!entry[b].known) {
      continue;
    }
    const BasicBlock& bb = ctx.cfg.blocks()[b];
    RefLeakState exit = transfer(bb, entry[b], nullptr);
    for (size_t i = 0; i < bb.succs.size(); i++) {
      if (MeetRefLeakState(entry[bb.succs[i]], edge_state(bb, exit, i))) {
        work.push_back(bb.succs[i]);
      }
    }
  }
  for (size_t b : ctx.cfg.rpo()) {
    if (entry[b].known) {
      transfer(ctx.cfg.blocks()[b], entry[b], &out);
    }
  }
}

// ---- Pass: helper-contract --------------------------------------------------
//
// Flags helper calls whose constant-folded arguments provably violate the
// helper's contract or can never succeed at runtime. Anything not statically
// known is left to the verifier's path-sensitive typing.

void HelperContractPass(const LintContext& ctx, std::vector<Finding>& out) {
  const Program& prog = ctx.program;
  for (const BasicBlock& bb : ctx.cfg.blocks()) {
    if (!ctx.cfg.Reachable(bb.id)) {
      continue;
    }
    AbsRegs regs;
    for (size_t pc = bb.start; pc < bb.end; pc = ctx.cfg.NextPc(pc)) {
      const Insn& insn = prog.insns[pc];
      if (insn.IsCall()) {
        const HelperContract* contract = FindHelperContract(insn.imm);
        if (contract != nullptr) {
          for (int i = 0; i < 5; i++) {
            if (contract->args[i] != HelperArgType::kMemSize) {
              continue;
            }
            const AbsVal& v = regs.r[R1 + i];
            if (v.kind == AbsVal::kConst && (v.v == 0 || v.v > kStackSize)) {
              out.push_back({pc, LintSeverity::kError, "helper-contract",
                             std::string(contract->name) + ": size argument " +
                                 std::to_string(v.v) +
                                 " is outside the valid stack-memory range [1, " +
                                 std::to_string(kStackSize) + "]"});
            }
          }
          const AbsVal& arg1 = regs.r[R1];
          switch (contract->id) {
            case kHelperKflexMalloc:
              if (arg1.kind == AbsVal::kConst) {
                if (arg1.v == 0) {
                  out.push_back({pc, LintSeverity::kWarning, "helper-contract",
                                 "kflex_malloc(0): zero-byte allocation"});
                } else if (prog.heap_size != 0 && arg1.v > prog.heap_size) {
                  out.push_back({pc, LintSeverity::kError, "helper-contract",
                                 "kflex_malloc(" + std::to_string(arg1.v) +
                                     ") can never succeed: request exceeds the " +
                                     std::to_string(prog.heap_size) +
                                     "-byte extension heap"});
                }
              }
              break;
            case kHelperKflexFree:
              if (arg1.kind == AbsVal::kConst && arg1.v == 0) {
                out.push_back({pc, LintSeverity::kWarning, "helper-contract",
                               "kflex_free(NULL) has no effect"});
              }
              break;
            case kHelperKflexSpinLock:
            case kHelperKflexSpinUnlock:
              if (arg1.kind == AbsVal::kHeapOff) {
                if (arg1.v % 8 != 0) {
                  out.push_back({pc, LintSeverity::kWarning, "helper-contract",
                                 std::string(contract->name) +
                                     ": lock address at heap offset " +
                                     std::to_string(arg1.v) + " is not 8-byte aligned"});
                }
                if (prog.heap_size != 0 && arg1.v + 8 > prog.heap_size) {
                  out.push_back({pc, LintSeverity::kError, "helper-contract",
                                 std::string(contract->name) + ": lock at heap offset " +
                                     std::to_string(arg1.v) +
                                     " lies outside the extension heap"});
                }
              }
              break;
            default:
              break;
          }
        }
      }
      AbsStep(prog, pc, regs);
    }
  }
}

// ---- Pass: redundant-guard --------------------------------------------------
//
// Surfaces where the bytecode optimizer's dominated-guard elimination fires:
// a guarded heap access whose base register was already sanitized on every
// path, with no intervening redefinition, call, or cancellation point. These
// are notes, not defects — the optimizer removes the redundancy
// automatically — but they show the developer which access patterns pay for
// repeated SANITIZEs (e.g. re-deriving a pointer instead of reusing it).
// Requires verifier facts; silent on unverified programs.

void RedundantGuardPass(const LintContext& ctx, std::vector<Finding>& out) {
  if (ctx.analysis == nullptr) {
    return;
  }
  StatusOr<OptResult> opt = Optimize(ctx.program, *ctx.analysis);
  if (!opt.ok()) {
    return;
  }
  for (size_t pc = 0; pc < opt->plan.dominated.size(); pc++) {
    if (!opt->plan.dominated[pc]) {
      continue;
    }
    const Insn& insn = ctx.program.insns[pc];
    int base = insn.IsLoad() ? insn.src : insn.dst;
    out.push_back({pc, LintSeverity::kNote, "redundant-guard",
                   "SFI guard on " + RegName(base) +
                       " is dominated by an earlier guard on the same base; the "
                       "optimizer reuses the sanitized address"});
  }
}

// ---- Passes: contract-release / contract-check ------------------------------
//
// Views over the path-sensitive contract audit (audit.h). Unlike the other
// passes these are deliberately speculative: the DFS carries no value
// ranges, so a finding may sit on a path the verifier proved infeasible.
// Each finding carries a path witness, and `kflex-lint --audit` distills and
// chaos-replays it to settle CONFIRMED vs PRUNED. Socket findings reproduce
// the ref-leak message byte for byte so RunLint's deduplication collapses
// the overlap.

void ContractAuditFindings(const LintContext& ctx, ObligationKind want,
                           std::vector<Finding>& out) {
  bool release = want == ObligationKind::kRelease;
  for (const AuditFinding& f : ctx.audit()) {
    if (f.kind == want) {
      out.push_back({f.sink_pc, release ? LintSeverity::kError : LintSeverity::kWarning,
                     release ? "contract-release" : "contract-check", f.message});
    }
  }
}

void ContractReleasePass(const LintContext& ctx, std::vector<Finding>& out) {
  ContractAuditFindings(ctx, ObligationKind::kRelease, out);
}

void ContractCheckPass(const LintContext& ctx, std::vector<Finding>& out) {
  ContractAuditFindings(ctx, ObligationKind::kCheck, out);
}

// ---- Passes: lockset / atomicity / lock-cycle -------------------------------
//
// Views over the concurrency-safety analysis (concurrency.h) that backs the
// shard-safety certificate. Severity mapping (docs/concurrency.md): an
// unprotected or non-atomic-RMW access to a *map value* is an error — maps
// are shared across extensions and CPUs today, so the race is real. The
// same pattern on the *extension heap* is NOT a lint finding: the heap is
// only shared with user space and with future concurrent invocations of the
// same extension, so an unlocked heap access merely downgrades the
// certificate to serial-only (ConcurrencyReport, `kflex_run
// --concurrency-report`) and the shipped single-threaded examples stay
// lint-clean, preserving the zero-false-positive contract. A
// lock-acquisition cycle is a warning: a deadlock needs the cross-order
// paths to actually interleave.

void LocksetPass(const LintContext& ctx, std::vector<Finding>& out) {
  ConcurrencyFindingsFor(ctx, ConcurrencyFinding::Kind::kUnlockedMapAccess, "lockset", out);
}

void AtomicityPass(const LintContext& ctx, std::vector<Finding>& out) {
  ConcurrencyFindingsFor(ctx, ConcurrencyFinding::Kind::kNonAtomicMapRmw, "atomicity", out);
}

// Generalizes the pairwise lock-order inversion check: every elementary
// cycle of the acquisition graph, each edge carrying a pc+path witness.
void LockCyclePass(const LintContext& ctx, std::vector<Finding>& out) {
  const std::vector<LockOrderEdge>& edges = ctx.concurrency().edges;
  if (edges.empty()) {
    return;
  }
  LockOrderGraph graph;
  graph.AddEdges(ctx.program.name.empty() ? "program" : ctx.program.name, edges);
  for (const LockOrderGraph::Cycle& cycle : graph.FindCycles()) {
    const LockOrderEdge& first = cycle.edges.front().edge;
    out.push_back({first.pc, LintSeverity::kWarning, "lock-cycle", cycle.Describe(),
                   first.path});
  }
}

}  // namespace

StatusOr<LintContext> LintContext::Build(const Program& prog, const Analysis* facts) {
  StatusOr<Cfg> graph = Cfg::Build(prog);
  if (!graph.ok()) {
    return graph.status();
  }
  Liveness live = Liveness::Compute(prog, *graph, facts);
  return LintContext(prog, std::move(graph).value(), std::move(live), facts);
}

const ConcurrencyReport& LintContext::concurrency() const {
  if (!concurrency_) {
    concurrency_ = AnalyzeConcurrency(program, cfg, analysis);
  }
  return *concurrency_;
}

const std::vector<AuditFinding>& LintContext::audit() const {
  if (!audit_) {
    audit_ = RunContractAudit(program, cfg, analysis);
  }
  return *audit_;
}

const std::vector<LintPass>& LintPasses() {
  static const std::vector<LintPass>* passes = new std::vector<LintPass>{
      {"dead-code", "dead stores and unreachable basic blocks", DeadCodePass},
      {"lock-order", "lock-order inversions and re-acquisition deadlocks", LockOrderPass},
      {"ref-leak", "kernel references that may leak on an exit path", RefLeakPass},
      {"helper-contract", "helper calls with provably invalid constant arguments",
       HelperContractPass},
      {"redundant-guard", "SFI guards dominated by an earlier guard on the same base",
       RedundantGuardPass},
      {"contract-release", "paths where an acquired resource may miss its release helper",
       ContractReleasePass},
      {"contract-check", "nullable helper results dereferenced without a NULL check",
       ContractCheckPass},
      {"lockset", "map-value accesses reachable with an empty lockset", LocksetPass},
      {"atomicity", "non-atomic unlocked read-modify-write of map values", AtomicityPass},
      {"lock-cycle", "cycles in the static lock-acquisition graph", LockCyclePass},
  };
  return *passes;
}

StatusOr<std::vector<Finding>> RunLint(const LintContext& ctx, const LintRunOptions& options) {
  std::vector<const LintPass*> selected;
  for (const LintPass& pass : LintPasses()) {
    if (options.passes.empty() ||
        std::find(options.passes.begin(), options.passes.end(), pass.name) !=
            options.passes.end()) {
      selected.push_back(&pass);
    }
  }
  for (const std::string& name : options.passes) {
    if (std::none_of(LintPasses().begin(), LintPasses().end(),
                     [&](const LintPass& pass) { return name == pass.name; })) {
      return InvalidArgument("unknown lint pass: " + name);
    }
  }
  std::vector<Finding> findings;
  for (const LintPass* pass : selected) {
    pass->run(ctx, findings);
  }
  // Passes ran in registry order, so keeping the first occurrence of a
  // duplicated (pc, severity, message) attributes it to the earliest pass in
  // the registry (e.g. ref-leak over contract-release).
  std::set<std::tuple<size_t, int, std::string>> seen;
  std::vector<Finding> unique;
  unique.reserve(findings.size());
  for (Finding& f : findings) {
    if (seen.insert({f.pc, static_cast<int>(f.severity), f.message}).second) {
      unique.push_back(std::move(f));
    }
  }
  findings = std::move(unique);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.pc, a.pass, a.message) < std::tie(b.pc, b.pass, b.message);
  });
  return findings;
}

StatusOr<std::vector<Finding>> RunLint(const Program& program, const Analysis* analysis,
                                       const LintRunOptions& options) {
  StatusOr<LintContext> ctx = LintContext::Build(program, analysis);
  if (!ctx.ok()) {
    return ctx.status();
  }
  return RunLint(*ctx, options);
}

}  // namespace kflex
