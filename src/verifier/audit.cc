#include "src/verifier/audit.h"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>
#include <utility>

#include "src/verifier/absval.h"
#include "src/verifier/dataflow.h"

namespace kflex {

const char* ObligationKindName(ObligationKind kind) {
  switch (kind) {
    case ObligationKind::kRelease:
      return "release";
    case ObligationKind::kCheck:
      return "check";
  }
  return "unknown";
}

namespace {

// DFS bounds.
constexpr size_t kMaxPaths = 4096;      // paths explored before giving up
constexpr size_t kMaxPathLen = 512;     // steps per path
constexpr size_t kMaxFindings = 64;
constexpr size_t kMaxBlockVisits = 2;  // per-path visits of one block (loop bound)

bool IsNullableRet(HelperRetType ret) {
  return ret == HelperRetType::kMapValueOrNull || ret == HelperRetType::kHeapPtrOrNull ||
         ret == HelperRetType::kSocketOrNull;
}

std::vector<ContractClause> DeriveContractTable() {
  std::vector<ContractClause> table;
  for (const HelperContract& contract : AllHelperContracts()) {
    ContractClause clause;
    clause.helper = contract.id;
    clause.helper_name = contract.name;
    if (contract.acquires != ResourceKind::kNone) {
      // Acquisition dominates: the NULL-edge retirement of the release
      // obligation already covers the nullable return (a NULL lookup never
      // acquired anything), so no separate check clause is derived.
      clause.kind = ObligationKind::kRelease;
      clause.resource = contract.acquires;
      clause.release_helper = contract.destructor;
      table.push_back(clause);
    } else if (IsNullableRet(contract.ret)) {
      clause.kind = ObligationKind::kCheck;
      clause.ret = contract.ret;
      table.push_back(clause);
    }
  }
  return table;
}

const ContractClause* FindClause(int32_t helper) {
  for (const ContractClause& clause : HelperContractTable()) {
    if (clause.helper == helper) {
      return &clause;
    }
  }
  return nullptr;
}

// ---- The path-sensitive DFS -------------------------------------------------

// One open kRelease obligation on the current path.
struct Obligation {
  const ContractClause* clause = nullptr;
  size_t acquire_pc = 0;
  uint64_t lock_off = 0;
  bool lock_off_known = false;
};

// An unchecked nullable helper result flowing through a register.
struct CheckTag {
  const ContractClause* clause = nullptr;
  size_t acquire_pc = 0;
};

struct PathState {
  AbsRegs regs;
  SocketTags sockets;
  std::array<CheckTag, kNumRegs> chk{};
  std::vector<Obligation> open;
};

class AuditDfs {
 public:
  AuditDfs(const Program& prog, const Cfg& cfg, const Analysis* analysis,
           std::vector<AuditFinding>& out)
      : prog_(prog), cfg_(cfg), analysis_(analysis), out_(out),
        visits_(cfg.num_blocks(), 0) {}

  void Run() {
    if (prog_.insns.empty()) {
      return;
    }
    WalkBlock(cfg_.BlockOf(0), PathState{});
  }

 private:
  void CountPath() {
    if (++paths_explored_ >= kMaxPaths) {
      stop_ = true;
    }
  }

  // Discharges the socket obligation acquired with `tag` (SocketTags
  // encoding), or every socket obligation when `tag` is 0.
  static void DischargeSocket(PathState& st, size_t tag) {
    std::erase_if(st.open, [&](const Obligation& o) {
      return o.clause->resource == ResourceKind::kSocket && (tag == 0 || o.acquire_pc + 1 == tag);
    });
  }

  static void RetireCheck(PathState& st, const CheckTag& tag) {
    for (CheckTag& t : st.chk) {
      if (t.clause == tag.clause && t.acquire_pc == tag.acquire_pc) {
        t = CheckTag{};
      }
    }
  }

  std::vector<OpenResource> Snapshot(const PathState& st) const {
    std::vector<OpenResource> out;
    for (const Obligation& o : st.open) {
      OpenResource r;
      r.kind = o.clause->resource;
      if (r.kind == ResourceKind::kLock) {
        r.lock_off = o.lock_off;
        r.lock_off_known = o.lock_off_known;
      } else {
        size_t tag = o.acquire_pc + 1;
        for (int i = 0; i < kNumRegs && r.reg < 0; i++) {
          if (st.sockets.reg[static_cast<size_t>(i)] == tag) {
            r.reg = i;
          }
        }
        for (int s = 0; s < kStackSlotCount && r.reg < 0 && r.stack_slot < 0; s++) {
          if (st.sockets.slot[static_cast<size_t>(s)] == tag) {
            r.stack_slot = s;
          }
        }
      }
      out.push_back(r);
    }
    return out;
  }

  void Emit(AuditFinding finding, const PathState& st) {
    auto key = std::make_tuple(static_cast<int>(finding.kind), finding.helper,
                               finding.source_pc, finding.sink_pc);
    if (!seen_.insert(key).second) {
      return;
    }
    finding.path = path_;
    finding.cleanups = cleanups_;
    finding.open_at_sink = Snapshot(st);
    out_.push_back(std::move(finding));
    if (out_.size() >= kMaxFindings) {
      stop_ = true;
    }
  }

  void EmitCheckFinding(PathState& st, size_t pc, uint8_t base_reg) {
    CheckTag tag = st.chk[base_reg];
    // One finding per unchecked result per path: retire before emitting so a
    // chain of dereferences reports once.
    RetireCheck(st, tag);
    AuditFinding f;
    f.kind = ObligationKind::kCheck;
    f.helper = tag.clause->helper;
    f.helper_name = tag.clause->helper_name;
    f.source_pc = tag.acquire_pc;
    f.sink_pc = pc;
    f.message = std::string(tag.clause->helper_name) + " result (insn " +
                std::to_string(tag.acquire_pc) + ") may be NULL when dereferenced at insn " +
                std::to_string(pc) + "; add a null check";
    Emit(std::move(f), st);
  }

  void EmitExitFindings(const PathState& st, size_t pc) {
    for (const Obligation& o : st.open) {
      AuditFinding f;
      f.kind = ObligationKind::kRelease;
      f.helper = o.clause->helper;
      f.helper_name = o.clause->helper_name;
      f.source_pc = o.acquire_pc;
      f.sink_pc = pc;
      f.resource = o.clause->resource;
      f.lock_off = o.lock_off;
      f.lock_off_known = o.lock_off_known;
      if (o.clause->resource == ResourceKind::kSocket) {
        // Byte-identical to the ref-leak pass so RunLint's deduplication
        // collapses the overlap.
        f.message = "kernel reference acquired at insn " + std::to_string(o.acquire_pc) +
                    " may still be held on this exit path";
      } else if (o.lock_off_known) {
        f.message = "lock at heap offset " + std::to_string(o.lock_off) +
                    " acquired at insn " + std::to_string(o.acquire_pc) +
                    " may still be held on this exit path";
      } else {
        f.message = "lock acquired at insn " + std::to_string(o.acquire_pc) +
                    " may still be held on this exit path";
      }
      Emit(std::move(f), st);
      if (stop_) {
        return;
      }
    }
  }

  // Applies a helper call's contract effects. Runs before AbsStep so the
  // pre-call argument registers are still visible.
  void HandleCall(PathState& st, size_t pc) {
    const Insn& insn = prog_.insns[pc];
    const HelperContract* contract = FindHelperContract(insn.imm);
    if (contract != nullptr && contract->releases == ResourceKind::kSocket) {
      // A release through an untracked handle (tag 0) conservatively
      // discharges every open socket obligation, as the ref-leak pass does.
      DischargeSocket(st, st.sockets.Release());
    }
    if (contract != nullptr && contract->releases == ResourceKind::kLock) {
      // An unlock through an untracked address discharges every lock.
      const AbsVal& lock = st.regs.r[R1];
      std::erase_if(st.open, [&](const Obligation& o) {
        return o.clause->resource == ResourceKind::kLock &&
               (lock.kind != AbsVal::kHeapOff || (o.lock_off_known && o.lock_off == lock.v));
      });
    }
    st.sockets.Step(insn);
    ForgetCheckTags(st, insn);
    const ContractClause* clause = FindClause(insn.imm);
    if (clause != nullptr && !VerifierUnreached(analysis_, pc)) {
      if (clause->kind == ObligationKind::kRelease) {
        Obligation o;
        o.clause = clause;
        o.acquire_pc = pc;
        if (clause->resource == ResourceKind::kLock &&
            st.regs.r[R1].kind == AbsVal::kHeapOff) {
          o.lock_off = st.regs.r[R1].v;
          o.lock_off_known = true;
        }
        st.open.push_back(o);
        if (clause->resource == ResourceKind::kSocket) {
          st.sockets.reg[R0] = pc + 1;
        }
      } else {
        st.chk[R0] = CheckTag{clause, pc};
      }
    }
  }

  // Forgets the check tag of every register `insn` writes.
  static void ForgetCheckTags(PathState& st, const Insn& insn) {
    ForEachReg(InsnRegEffects(insn).defs, [&](int r) { st.chk[r] = CheckTag{}; });
  }

  // Tag tracking + dereference checks for non-control instructions.
  void HandleDataInsn(PathState& st, size_t pc) {
    const Insn& insn = prog_.insns[pc];
    if (insn.IsLoad() || insn.IsStore() || insn.IsAtomic()) {
      int base = insn.IsLoad() ? insn.src : insn.dst;
      if (base != R10 && st.chk[base].clause != nullptr) {
        EmitCheckFinding(st, pc, base);
      }
    }
    bool mov64 = insn.IsAlu() && insn.AluOpField() == BPF_MOV && insn.SrcField() == BPF_X &&
                 insn.Class() == BPF_ALU64;
    CheckTag moved = mov64 ? st.chk[insn.src] : CheckTag{};
    ForgetCheckTags(st, insn);
    if (mov64) {
      st.chk[insn.dst] = moved;
    }
    st.sockets.Step(insn);
  }

  // Retirements implied by taking one edge of a JMP64 null check (imm 0,
  // JEQ/JNE). edge 0 = jump taken, edge 1 = fall-through.
  static void ApplyEdge(PathState& st, const Insn& insn, int edge) {
    if (!IsNullCheck(insn)) {
      return;
    }
    if (size_t tag = st.sockets.RetireNullEdge(insn, edge); tag != 0) {
      // The handle is NULL on this edge: the acquisition never happened.
      DischargeSocket(st, tag);
    }
    if (st.chk[insn.dst].clause != nullptr) {
      // Either edge of a null check discharges the check obligation.
      RetireCheck(st, st.chk[insn.dst]);
    }
  }

  void WalkBlock(size_t block, PathState st) {
    if (stop_) {
      return;
    }
    if (visits_[block] >= kMaxBlockVisits) {
      CountPath();
      return;
    }
    visits_[block]++;
    const size_t path_mark = path_.size();
    const size_t cleanup_mark = cleanups_.size();
    const BasicBlock& bb = cfg_.blocks()[block];
    bool ended = false;
    for (size_t pc = bb.start; pc < bb.end && !stop_; pc = cfg_.NextPc(pc)) {
      if (path_.size() >= kMaxPathLen) {
        CountPath();
        ended = true;
        break;
      }
      path_.push_back({pc, -1});
      const Insn& insn = prog_.insns[pc];
      if (insn.IsExit()) {
        if (!VerifierUnreached(analysis_, pc)) {
          EmitExitFindings(st, pc);
        }
        CountPath();
        ended = true;
        break;
      }
      if (insn.IsCondJmp()) {
        cleanups_.push_back({path_.size() - 1, Snapshot(st)});
        size_t taken = bb.succs[0];
        size_t fall = bb.succs.size() > 1 ? bb.succs[1] : bb.succs[0];
        for (int edge = 0; edge < 2 && !stop_; edge++) {
          path_.back().branch = edge;
          PathState next = st;
          ApplyEdge(next, insn, edge);
          WalkBlock(edge == 0 ? taken : fall, std::move(next));
        }
        ended = true;
        break;
      }
      if (insn.IsUncondJmp()) {
        WalkBlock(bb.succs[0], std::move(st));
        ended = true;
        break;
      }
      if (insn.IsCall()) {
        HandleCall(st, pc);
      } else {
        HandleDataInsn(st, pc);
      }
      AbsStep(prog_, pc, st.regs);
    }
    if (!ended) {
      if (!bb.succs.empty()) {
        WalkBlock(bb.succs[0], std::move(st));
      } else {
        CountPath();
      }
    }
    path_.resize(path_mark);
    cleanups_.resize(cleanup_mark);
    visits_[block]--;
  }

  const Program& prog_;
  const Cfg& cfg_;
  const Analysis* analysis_;
  std::vector<AuditFinding>& out_;

  std::vector<WitnessStep> path_;
  std::vector<BranchCleanup> cleanups_;
  std::vector<uint8_t> visits_;
  size_t paths_explored_ = 0;
  bool stop_ = false;
  std::set<std::tuple<int, int32_t, size_t, size_t>> seen_;
};

}  // namespace

const std::vector<ContractClause>& HelperContractTable() {
  static const std::vector<ContractClause>* table =
      new std::vector<ContractClause>(DeriveContractTable());
  return *table;
}

std::vector<AuditFinding> RunContractAudit(const Program& program, const Cfg& cfg,
                                           const Analysis* analysis) {
  std::vector<AuditFinding> findings;
  AuditDfs dfs(program, cfg, analysis, findings);
  dfs.Run();
  std::sort(findings.begin(), findings.end(),
            [](const AuditFinding& a, const AuditFinding& b) {
              return std::tie(a.sink_pc, a.source_pc, a.helper) <
                     std::tie(b.sink_pc, b.source_pc, b.helper);
            });
  return findings;
}

// ---- The distiller ----------------------------------------------------------

namespace {

void EmitCleanup(const std::vector<OpenResource>& open, std::vector<Insn>& out,
                 std::vector<size_t>& orig) {
  for (const OpenResource& r : open) {
    if (r.kind == ResourceKind::kLock) {
      if (!r.lock_off_known) {
        continue;  // identity untracked: nothing safe to synthesize
      }
      out.push_back(LdImm64Insn(R1, r.lock_off, kPseudoHeapVar));
      orig.push_back(SIZE_MAX);
      out.push_back(LdImm64HiInsn(r.lock_off));
      orig.push_back(SIZE_MAX);
      out.push_back(CallInsn(kHelperKflexSpinUnlock));
      orig.push_back(SIZE_MAX);
    } else if (r.kind == ResourceKind::kSocket) {
      if (r.reg >= 0) {
        if (r.reg != R1) {
          out.push_back(MovRegInsn(R1, static_cast<Reg>(r.reg)));
          orig.push_back(SIZE_MAX);
        }
      } else if (r.stack_slot >= 0) {
        out.push_back(LdxInsn(BPF_DW, R1, R10,
                              static_cast<int16_t>(r.stack_slot * 8 - kStackSize)));
        orig.push_back(SIZE_MAX);
      } else {
        continue;  // handle location untracked
      }
      // The handle may be NULL before its null check: only release when set.
      out.push_back(JmpImmInsn(BPF_JEQ, R1, 0, 1));
      orig.push_back(SIZE_MAX);
      out.push_back(CallInsn(kHelperSkRelease));
      orig.push_back(SIZE_MAX);
    }
  }
}

}  // namespace

StatusOr<DistilledWitness> DistillWitness(const Program& program,
                                          const AuditFinding& finding) {
  if (finding.path.empty()) {
    return InvalidArgument("witness path is empty");
  }
  for (const WitnessStep& step : finding.path) {
    if (step.pc >= program.insns.size()) {
      return InvalidArgument("witness step pc out of range");
    }
  }

  DistilledWitness dw;
  std::vector<Insn>& out = dw.program.insns;
  std::vector<size_t>& orig = dw.orig_pc;

  // Branch instructions (and the JA companions of taken branches) that must
  // be retargeted at their bail stub once stub addresses are known.
  struct Patch {
    size_t insn_index;
    size_t cleanup_index;
  };
  std::vector<Patch> patches;

  size_t cleanup_cursor = 0;
  for (size_t si = 0; si < finding.path.size(); si++) {
    const WitnessStep& step = finding.path[si];
    const Insn& insn = program.insns[step.pc];
    if (insn.IsCondJmp()) {
      while (cleanup_cursor < finding.cleanups.size() &&
             finding.cleanups[cleanup_cursor].step_index < si) {
        cleanup_cursor++;
      }
      if (cleanup_cursor >= finding.cleanups.size() ||
          finding.cleanups[cleanup_cursor].step_index != si ||
          (step.branch != 0 && step.branch != 1)) {
        return InvalidArgument("witness branch without cleanup record");
      }
      if (step.branch == 0) {
        // Path takes the jump: keep the condition, hop over a JA to the bail
        // stub so a runtime fall-through leaves the path cleanly.
        Insn b = insn;
        b.off = 1;
        out.push_back(b);
        orig.push_back(step.pc);
        patches.push_back({out.size(), cleanup_cursor});
        out.push_back(JmpAlwaysInsn(0));
        orig.push_back(SIZE_MAX);
      } else {
        // Path falls through: the taken edge becomes the bail edge.
        Insn b = insn;
        b.off = 0;
        patches.push_back({out.size(), cleanup_cursor});
        out.push_back(b);
        orig.push_back(step.pc);
      }
      cleanup_cursor++;
    } else if (insn.IsUncondJmp()) {
      // Linearized away: the successor is the next path step.
    } else if (insn.IsLdImm64()) {
      out.push_back(insn);
      orig.push_back(step.pc);
      out.push_back(program.insns[step.pc + 1]);
      orig.push_back(step.pc + 1);
    } else {
      out.push_back(insn);
      orig.push_back(step.pc);
    }
  }

  if (finding.kind == ObligationKind::kCheck) {
    // The sink is a dereference, not an exit: release whatever is still held
    // and return a neutral verdict.
    EmitCleanup(finding.open_at_sink, out, orig);
    out.push_back(MovImmInsn(R0, 0));
    orig.push_back(SIZE_MAX);
    out.push_back(ExitInsn());
    orig.push_back(SIZE_MAX);
  } else if (out.empty() || !out.back().IsExit()) {
    return InvalidArgument("release witness does not end at an exit");
  }

  // Bail stubs, one per conditional on the path, after the terminal exit.
  std::vector<size_t> stub_start(finding.cleanups.size(), 0);
  std::vector<bool> stub_needed(finding.cleanups.size(), false);
  for (const Patch& p : patches) {
    stub_needed[p.cleanup_index] = true;
  }
  for (size_t i = 0; i < finding.cleanups.size(); i++) {
    if (!stub_needed[i]) {
      continue;
    }
    stub_start[i] = out.size();
    EmitCleanup(finding.cleanups[i].open, out, orig);
    out.push_back(MovImmInsn(R0, 0));
    orig.push_back(SIZE_MAX);
    out.push_back(ExitInsn());
    orig.push_back(SIZE_MAX);
  }
  for (const Patch& p : patches) {
    int64_t off = static_cast<int64_t>(stub_start[p.cleanup_index]) -
                  static_cast<int64_t>(p.insn_index) - 1;
    if (off < INT16_MIN || off > INT16_MAX) {
      return InvalidArgument("distilled witness exceeds branch range");
    }
    out[p.insn_index].off = static_cast<int16_t>(off);
  }

  dw.program.name = program.name.empty() ? "witness" : program.name + "-witness";
  dw.program.hook = program.hook;
  dw.program.mode = program.mode;
  dw.program.heap_size = program.heap_size;
  return dw;
}

}  // namespace kflex
