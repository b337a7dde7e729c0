#include "src/verifier/concurrency.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <set>
#include <tuple>

#include "src/ebpf/helper_ids.h"
#include "src/ebpf/insn.h"
#include "src/verifier/absval.h"

namespace kflex {

const char* ShardSafetyName(ShardSafety safety) {
  switch (safety) {
    case ShardSafety::kRaceFree:
      return "race-free";
    case ShardSafety::kLockProtected:
      return "lock-protected";
    case ShardSafety::kSerialOnly:
      return "serial-only";
  }
  return "unknown";
}

const char* ConcurrencyFindingKindName(ConcurrencyFinding::Kind kind) {
  switch (kind) {
    case ConcurrencyFinding::Kind::kUnlockedMapAccess:
      return "unlocked-map-access";
    case ConcurrencyFinding::Kind::kUnlockedHeapAccess:
      return "unlocked-heap-access";
    case ConcurrencyFinding::Kind::kNonAtomicMapRmw:
      return "non-atomic-map-rmw";
    case ConcurrencyFinding::Kind::kNonAtomicHeapRmw:
      return "non-atomic-heap-rmw";
    case ConcurrencyFinding::Kind::kLockCycle:
      return "lock-cycle";
  }
  return "unknown";
}

namespace {

// Self-contained pointer provenance, so the analysis classifies shared
// accesses even when the verifier rejected the program (analysis == null).
// Conservative: anything not provably a map-value or heap pointer is
// unknown, and unknown never produces a finding.
enum class PtrClass : uint8_t { kUnknown = 0, kMapValue, kHeapPtr, kCtx, kStack };

// The forward fixpoint state: the must-held lockset (meet = intersection;
// lint's lock-order pass is a view over it), pointer provenance per
// register, and constant/lock-identity propagation (AbsRegs) carried ACROSS
// blocks — unlike the block-local lint passes, lock identities loaded once
// in the entry block survive into the branches that acquire them.
struct ConcState {
  bool known = false;
  std::set<uint64_t> held;
  std::array<PtrClass, kNumRegs> cls{};
  AbsRegs regs;
};

bool MeetAbsVal(AbsVal& into, const AbsVal& from) {
  if (into.kind == AbsVal::kUnknown) {
    return false;
  }
  if (into.kind != from.kind || into.v != from.v) {
    into = AbsVal();
    return true;
  }
  return false;
}

bool MeetConcState(ConcState& into, const ConcState& from) {
  if (!from.known) {
    return false;
  }
  if (!into.known) {
    into = from;
    return true;
  }
  bool changed = false;
  for (auto it = into.held.begin(); it != into.held.end();) {
    if (from.held.count(*it) == 0) {
      it = into.held.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  for (size_t i = 0; i < into.cls.size(); i++) {
    if (into.cls[i] != from.cls[i] && into.cls[i] != PtrClass::kUnknown) {
      into.cls[i] = PtrClass::kUnknown;
      changed = true;
    }
  }
  for (size_t i = 0; i < into.regs.r.size(); i++) {
    changed |= MeetAbsVal(into.regs.r[i], from.regs.r[i]);
  }
  return changed;
}

// Region of the memory access at `pc` with base-register class `cls`:
// verifier classification when available, provenance otherwise.
MemRegion AccessRegion(const Analysis* analysis, size_t pc, PtrClass cls) {
  if (analysis != nullptr && pc < analysis->mem.size() && analysis->mem[pc].visited &&
      analysis->mem[pc].region != MemRegion::kNone) {
    return analysis->mem[pc].region;
  }
  switch (cls) {
    case PtrClass::kMapValue:
      return MemRegion::kMapValue;
    case PtrClass::kHeapPtr:
      return MemRegion::kHeap;
    case PtrClass::kCtx:
      return MemRegion::kCtx;
    case PtrClass::kStack:
      return MemRegion::kStack;
    case PtrClass::kUnknown:
      break;
  }
  return MemRegion::kNone;
}

// A block-local load->alu->store candidate: the value register holding a
// loaded shared word that has since been modified in place.
struct RmwCandidate {
  bool valid = false;
  bool modified = false;
  size_t load_pc = 0;
  int base = -1;
  int16_t off = 0;
  uint32_t size = 0;
  MemRegion region = MemRegion::kNone;
};

class ConcurrencyAnalyzer {
 public:
  ConcurrencyAnalyzer(const Program& program, const Cfg& cfg, const Analysis* analysis)
      : prog_(program), cfg_(cfg), analysis_(analysis) {}

  ConcurrencyReport Run() {
    const size_t nb = cfg_.num_blocks();
    // Breadth-first parent of every block reachable from the entry, in
    // successor order: each witness path is the tree path to its block.
    bfs_parent_.assign(nb, -1);
    std::deque<size_t> bfs{0};
    bfs_parent_[0] = 0;
    while (!bfs.empty()) {
      size_t b = bfs.front();
      bfs.pop_front();
      for (size_t succ : cfg_.blocks()[b].succs) {
        if (bfs_parent_[succ] < 0) {
          bfs_parent_[succ] = static_cast<int>(b);
          bfs.push_back(succ);
        }
      }
    }

    entry_.assign(nb, ConcState{});
    entry_[0].known = true;
    entry_[0].cls[R1] = PtrClass::kCtx;
    entry_[0].cls[R10] = PtrClass::kStack;

    std::deque<size_t> work(cfg_.rpo().begin(), cfg_.rpo().end());
    while (!work.empty()) {
      size_t b = work.front();
      work.pop_front();
      if (!entry_[b].known) {
        continue;
      }
      ConcState exit = Transfer(cfg_.blocks()[b], entry_[b], /*collect=*/false);
      for (size_t succ : cfg_.blocks()[b].succs) {
        if (MeetConcState(entry_[succ], exit)) {
          work.push_back(succ);
        }
      }
    }
    for (size_t b : cfg_.rpo()) {
      if (entry_[b].known) {
        Transfer(cfg_.blocks()[b], entry_[b], /*collect=*/true);
      }
    }

    std::sort(report_.findings.begin(), report_.findings.end(),
              [](const ConcurrencyFinding& a, const ConcurrencyFinding& b) {
                return std::tie(a.pc, a.kind, a.message) < std::tie(b.pc, b.kind, b.message);
              });
    for (auto& [key, edge] : edges_) {
      report_.edges.push_back(std::move(edge));
    }
    report_.safety =
        report_.unprotected_map_accesses + report_.unprotected_heap_accesses > 0
            ? ShardSafety::kSerialOnly
        : report_.locked_accesses > 0 ? ShardSafety::kLockProtected
                                      : ShardSafety::kRaceFree;
    return std::move(report_);
  }

 private:
  // Shortest entry-to-anchor path at block granularity, lowered to the
  // contract-audit witness encoding: every executed pc, with the branch
  // decision (0 = jump taken, 1 = fall-through) at each conditional.
  // Read off the BFS tree Run() builds once from block 0.
  std::vector<WitnessStep> WitnessTo(size_t anchor_pc) {
    size_t target = cfg_.BlockOf(anchor_pc);
    if (bfs_parent_[target] < 0) {
      return {};
    }
    std::vector<size_t> chain{target};
    while (chain.back() != 0) {
      chain.push_back(static_cast<size_t>(bfs_parent_[chain.back()]));
    }
    std::reverse(chain.begin(), chain.end());

    std::vector<WitnessStep> path;
    for (size_t i = 0; i < chain.size(); i++) {
      const BasicBlock& bb = cfg_.blocks()[chain[i]];
      for (size_t pc = bb.start; pc < bb.end; pc = cfg_.NextPc(pc)) {
        if (i + 1 == chain.size() && pc > anchor_pc) {
          break;
        }
        int branch = -1;
        const Insn& insn = prog_.insns[pc];
        bool is_terminator = cfg_.NextPc(pc) >= bb.end;
        if (insn.IsCondJmp() && is_terminator && i + 1 < chain.size()) {
          // succs[0] is the jump-taken edge (cfg.h contract).
          branch = !bb.succs.empty() && bb.succs[0] == chain[i + 1] ? 0 : 1;
        }
        path.push_back({pc, branch});
      }
    }
    return path;
  }

  void RecordAccess(size_t pc, MemRegion region, bool atomic, const std::set<uint64_t>& held) {
    if (region == MemRegion::kMapValue) {
      report_.map_accesses++;
    } else if (region == MemRegion::kHeap) {
      report_.heap_accesses++;
    } else {
      return;
    }
    if (atomic) {
      report_.atomic_accesses++;
      return;
    }
    if (!held.empty()) {
      report_.locked_accesses++;
      return;
    }
    if (region == MemRegion::kMapValue) {
      report_.unprotected_map_accesses++;
      report_.findings.push_back({ConcurrencyFinding::Kind::kUnlockedMapAccess, pc,
                                  "shared map value accessed with no lock held: concurrent "
                                  "invocations race on this word",
                                  WitnessTo(pc)});
    } else {
      report_.unprotected_heap_accesses++;
      report_.findings.push_back({ConcurrencyFinding::Kind::kUnlockedHeapAccess, pc,
                                  "extension heap accessed with no lock held: unsafe if "
                                  "invocations of this extension run concurrently",
                                  WitnessTo(pc)});
    }
  }

  // Provenance of the registers `insn` writes, outside the moves and
  // pointer arithmetic Transfer follows: unknown.
  static void ForgetClasses(ConcState& s, const Insn& insn) {
    ForEachReg(InsnRegEffects(insn).defs, [&](int r) { s.cls[r] = PtrClass::kUnknown; });
  }

  void KillCandidatesUsing(std::array<RmwCandidate, kNumRegs>& rmw, int reg) {
    for (auto& c : rmw) {
      if (c.valid && c.base == reg) {
        c.valid = false;
      }
    }
  }

  ConcState Transfer(const BasicBlock& bb, ConcState s, bool collect) {
    std::array<RmwCandidate, kNumRegs> rmw{};
    for (size_t pc = bb.start; pc < bb.end; pc = cfg_.NextPc(pc)) {
      const Insn& insn = prog_.insns[pc];
      bool unreached = VerifierUnreached(analysis_, pc);

      if (insn.IsCall()) {
        const HelperContract* contract = FindHelperContract(insn.imm);
        if (contract != nullptr && contract->acquires == ResourceKind::kLock && !unreached) {
          if (s.regs.r[R1].kind == AbsVal::kHeapOff) {
            uint64_t off = s.regs.r[R1].v;
            if (collect) {
              for (uint64_t outer : s.held) {
                auto key = std::make_pair(outer, off);
                if (edges_.count(key) == 0) {
                  edges_.emplace(key, LockOrderEdge{outer, off, pc, WitnessTo(pc)});
                }
              }
              if (s.held.count(off) != 0) {
                report_.findings.push_back(
                    {ConcurrencyFinding::Kind::kLockCycle, pc,
                     "deadlock: lock at heap offset " + std::to_string(off) +
                         " re-acquired while already held",
                     WitnessTo(pc)});
              }
            }
            s.held.insert(off);
          }
          // Unknown lock identity: must-held set unchanged (conservative).
        } else if (contract != nullptr && contract->releases == ResourceKind::kLock) {
          if (s.regs.r[R1].kind == AbsVal::kHeapOff) {
            s.held.erase(s.regs.r[R1].v);
          } else {
            s.held.clear();  // released *some* lock; drop all must-hold facts
          }
        }
        rmw.fill(RmwCandidate{});  // calls may publish or synchronize
        AbsStep(prog_, pc, s.regs);
        ForgetClasses(s, insn);
        if (contract != nullptr && !unreached) {
          if (contract->ret == HelperRetType::kMapValueOrNull) {
            s.cls[R0] = PtrClass::kMapValue;
          } else if (contract->ret == HelperRetType::kHeapPtrOrNull) {
            s.cls[R0] = PtrClass::kHeapPtr;
          }
        }
        continue;
      }

      if (insn.IsLoad()) {  // LDX through a register
        MemRegion region = AccessRegion(analysis_, pc, s.cls[insn.src]);
        if (collect && !unreached) {
          RecordAccess(pc, region, /*atomic=*/false, s.held);
          KillCandidatesUsing(rmw, insn.dst);
          if ((region == MemRegion::kMapValue || region == MemRegion::kHeap) &&
              s.held.empty() && insn.dst != insn.src) {
            rmw[insn.dst] = {true,       false,    pc,
                             insn.src,   insn.off, static_cast<uint32_t>(insn.AccessSize()),
                             region};
          }
        }
        ForgetClasses(s, insn);
        AbsStep(prog_, pc, s.regs);
        continue;
      }

      if (insn.IsAtomic()) {
        if (collect && !unreached) {
          MemRegion region = AccessRegion(analysis_, pc, s.cls[insn.dst]);
          RecordAccess(pc, region, /*atomic=*/true, s.held);
          KillCandidatesUsing(rmw, insn.dst);
          if (rmw[insn.src].valid) {
            rmw[insn.src].valid = false;
          }
        }
        AbsStep(prog_, pc, s.regs);
        ForgetClasses(s, insn);
        continue;
      }

      if (insn.IsStore()) {
        if (collect && !unreached) {
          MemRegion region = AccessRegion(analysis_, pc, s.cls[insn.dst]);
          RecordAccess(pc, region, /*atomic=*/false, s.held);
          if (insn.Class() == BPF_STX && insn.src < kNumRegs) {
            const RmwCandidate& c = rmw[insn.src];
            if (c.valid && c.modified && c.base == insn.dst && c.off == insn.off &&
                c.size == static_cast<uint32_t>(insn.AccessSize())) {
              const char* what =
                  c.region == MemRegion::kMapValue ? "shared map value" : "extension heap word";
              report_.findings.push_back(
                  {c.region == MemRegion::kMapValue ? ConcurrencyFinding::Kind::kNonAtomicMapRmw
                                                    : ConcurrencyFinding::Kind::kNonAtomicHeapRmw,
                   pc,
                   std::string("read-modify-write of ") + what + " (loaded at insn " +
                       std::to_string(c.load_pc) +
                       ") is neither an atomic instruction nor inside a lock region: "
                       "concurrent updates lose increments",
                   WitnessTo(pc)});
              rmw[insn.src].valid = false;
            }
          }
        }
        AbsStep(prog_, pc, s.regs);
        continue;
      }

      if (insn.IsAlu() || insn.IsLdImm64()) {
        if (collect) {
          KillCandidatesUsing(rmw, insn.dst);
          if (rmw[insn.dst].valid) {
            bool overwrite = insn.IsLdImm64() ||
                             (insn.AluOpField() == BPF_MOV && insn.IsAlu());
            if (overwrite) {
              rmw[insn.dst].valid = false;
            } else {
              rmw[insn.dst].modified = true;
            }
          }
        }
        // Provenance through moves and pointer arithmetic.
        if (insn.IsLdImm64()) {
          s.cls[insn.dst] =
              insn.src == kPseudoHeapVar ? PtrClass::kHeapPtr : PtrClass::kUnknown;
        } else {
          uint8_t op = insn.AluOpField();
          bool is64 = insn.Class() == BPF_ALU64;
          if (op == BPF_MOV && insn.SrcField() == BPF_X && is64) {
            s.cls[insn.dst] = s.cls[insn.src];
          } else if ((op == BPF_ADD || op == BPF_SUB) && is64 &&
                     (insn.SrcField() == BPF_K ||
                      s.cls[insn.src] == PtrClass::kUnknown)) {
            // Pointer +- scalar keeps the provenance class.
          } else {
            s.cls[insn.dst] = PtrClass::kUnknown;
          }
        }
        AbsStep(prog_, pc, s.regs);
        continue;
      }

      AbsStep(prog_, pc, s.regs);
    }
    return s;
  }

  const Program& prog_;
  const Cfg& cfg_;
  const Analysis* analysis_;

  std::vector<int> bfs_parent_;  // -1: unreachable from the entry
  std::vector<ConcState> entry_;
  ConcurrencyReport report_;  // counters and findings; edges fill in at the end
  std::map<std::pair<uint64_t, uint64_t>, LockOrderEdge> edges_;
};

}  // namespace

ConcurrencyReport AnalyzeConcurrency(const Program& program, const Cfg& cfg,
                                     const Analysis* analysis) {
  ConcurrencyAnalyzer analyzer(program, cfg, analysis);
  return analyzer.Run();
}

ConcurrencyReport AnalyzeConcurrency(const Program& program, const Analysis* analysis) {
  auto cfg = Cfg::Build(program);
  if (!cfg.ok()) {
    return ConcurrencyReport{};
  }
  return AnalyzeConcurrency(program, *cfg, analysis);
}

// ---------------------------------------------------------------------------
// LockOrderGraph
// ---------------------------------------------------------------------------

void LockOrderGraph::AddEdges(const std::string& program,
                              const std::vector<LockOrderEdge>& edges) {
  for (const LockOrderEdge& e : edges) {
    edges_.push_back({program, e});
  }
}

std::string LockOrderGraph::Cycle::Describe() const {
  std::string nodes = "lock-acquisition cycle: heap offset ";
  std::string sites;
  for (size_t i = 0; i < edges.size(); i++) {
    nodes += std::to_string(edges[i].edge.from) + " -> ";
    if (!sites.empty()) {
      sites += ", ";
    }
    sites += edges[i].program + " insn " + std::to_string(edges[i].edge.pc);
  }
  nodes += std::to_string(edges.front().edge.from);
  return nodes + " (" + sites + ") - potential deadlock";
}

std::vector<LockOrderGraph::Cycle> LockOrderGraph::FindCycles() const {
  // Deterministic adjacency: edge indices sorted by (from, to, program, pc).
  std::vector<size_t> order(edges_.size());
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const CycleEdge& ea = edges_[a];
    const CycleEdge& eb = edges_[b];
    return std::tie(ea.edge.from, ea.edge.to, ea.program, ea.edge.pc) <
           std::tie(eb.edge.from, eb.edge.to, eb.program, eb.edge.pc);
  });
  std::map<uint64_t, std::vector<size_t>> adj;
  std::set<uint64_t> nodes;
  for (size_t i : order) {
    adj[edges_[i].edge.from].push_back(i);
    nodes.insert(edges_[i].edge.from);
    nodes.insert(edges_[i].edge.to);
  }

  std::vector<Cycle> out;
  std::set<std::vector<uint64_t>> seen;  // canonical node sequences
  constexpr size_t kMaxCycleLen = 16;    // elementary cycles only; tiny graphs

  // Rooted search from each node ascending, visiting only nodes >= root:
  // every elementary cycle is found exactly once, rooted at its smallest
  // lock offset (so the canonical rotation is the discovery order).
  for (uint64_t root : nodes) {
    std::vector<size_t> path;        // edge indices
    std::set<uint64_t> on_path{root};
    // Iterative DFS with explicit frames to keep stack depth bounded.
    struct Frame {
      uint64_t node;
      size_t next = 0;  // next adjacency index to try
    };
    std::vector<Frame> stack{{root}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      const std::vector<size_t>* edges_from = nullptr;
      auto it = adj.find(f.node);
      if (it != adj.end()) {
        edges_from = &it->second;
      }
      if (edges_from == nullptr || f.next >= edges_from->size() ||
          stack.size() > kMaxCycleLen) {
        on_path.erase(f.node);
        stack.pop_back();
        if (!path.empty()) {
          path.pop_back();
        }
        continue;
      }
      size_t ei = (*edges_from)[f.next++];
      const CycleEdge& e = edges_[ei];
      if (e.edge.to == root) {
        std::vector<size_t> cycle_edges = path;
        cycle_edges.push_back(ei);
        std::vector<uint64_t> canon;
        for (size_t idx : cycle_edges) {
          canon.push_back(edges_[idx].edge.from);
        }
        if (seen.insert(canon).second) {
          Cycle c;
          std::set<std::string> progs;
          for (size_t idx : cycle_edges) {
            c.edges.push_back(edges_[idx]);
            progs.insert(edges_[idx].program);
          }
          c.programs.assign(progs.begin(), progs.end());
          out.push_back(std::move(c));
        }
      } else if (e.edge.to > root && on_path.count(e.edge.to) == 0) {
        on_path.insert(e.edge.to);
        path.push_back(ei);
        stack.push_back({e.edge.to});
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Cycle& a, const Cycle& b) {
    return std::make_tuple(a.edges.front().edge.from, a.edges.size(), a.Describe()) <
           std::make_tuple(b.edges.front().edge.from, b.edges.size(), b.Describe());
  });
  return out;
}

}  // namespace kflex
