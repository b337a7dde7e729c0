#include "src/verifier/opt.h"

#include <algorithm>
#include <array>
#include <optional>
#include <set>

#include "src/ebpf/insn.h"
#include "src/verifier/cfg.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/state.h"

namespace kflex {

namespace {

// ---- SCCP --------------------------------------------------------------------
//
// Per-register lattice value: RegState with type kScalar is a tracked scalar
// (tnum + min/max bounds, exactly the verifier's lattice); type kNotInit is
// "untracked" — a pointer, an uninitialized register, or anything loaded from
// memory. Untracked is the top element and is deliberately absorbing: a value
// with any pointer in its history never folds, so every SCCP decision remains
// valid even when an SFI guard redirects an out-of-bounds pointer at runtime.

using SccpRegs = std::array<RegState, kNumRegs>;

RegState Untracked() { return RegState::NotInit(); }
bool Tracked(const RegState& r) { return r.type == RegType::kScalar; }

// 32-bit ALU result adjustment, mirroring the verifier's ApplyAlu.
void Cast32(RegState& r) {
  r.var = TnumCast(r.var, 4);
  r.umin = 0;
  r.umax = 0xFFFFFFFFULL;
  r.smin = 0;
  r.smax = 0xFFFFFFFFLL;
  r.DeduceBounds();
}

// Untracked values (pointers, loads, uninitialized registers) still hold
// SOME 64-bit value at runtime — Kie's instrumentation never mutates
// user-visible registers, only its scratch register and the effective access
// address. Lowering untracked to the full-range scalar is therefore sound
// and lets masking recover bounds (e.g. `x & 0xFF` is in [0, 255] whatever
// x was).
RegState AsScalar(const RegState& r) {
  return Tracked(r) ? r : RegState::UnknownScalar();
}

// The abstract value an ALU instruction computes. Never called for non-ALU
// instructions.
RegState EvalAlu(const Insn& insn, const SccpRegs& regs) {
  bool is64 = insn.Class() == BPF_ALU64;
  uint8_t op = insn.AluOpField();

  RegState r;
  if (op == BPF_MOV) {
    if (insn.SrcField() == BPF_K) {
      return RegState::ConstScalar(is64 ? SextImm(insn.imm)
                                        : static_cast<uint32_t>(insn.imm));
    }
    r = AsScalar(regs[insn.src]);
  } else if (op == BPF_NEG) {
    r = ScalarBinop(BPF_SUB, RegState::ConstScalar(0), AsScalar(regs[insn.dst]));
  } else {
    RegState operand = insn.SrcField() == BPF_K
                           ? RegState::ConstScalar(is64 ? SextImm(insn.imm)
                                                        : static_cast<uint32_t>(insn.imm))
                           : AsScalar(regs[insn.src]);
    r = ScalarBinop(static_cast<AluOp>(op), AsScalar(regs[insn.dst]), operand);
  }
  if (!is64) {
    Cast32(r);
  }
  return r;
}

// Applies one instruction's register effects to the SCCP state.
void ApplyInsn(const Program& prog, size_t pc, SccpRegs& regs) {
  const Insn& insn = prog.insns[pc];
  if (insn.IsLdImm64()) {
    regs[insn.dst] = insn.src == kPseudoNone
                         ? RegState::ConstScalar(LdImm64Value(insn, prog.insns[pc + 1]))
                         : Untracked();  // heap var / map fd: a pointer
    return;
  }
  if (insn.IsAlu()) {
    regs[insn.dst] = EvalAlu(insn, regs);
    return;
  }
  if (insn.IsLoad()) {
    // Sub-word loads zero-extend: the result fits the access width.
    regs[insn.dst] = RegState::ScalarMaxBytes(static_cast<int>(insn.AccessSize()));
    return;
  }
  // Atomic results and helper clobbers.
  ForEachReg(InsnRegEffects(insn).defs, [&](int r) { regs[r] = Untracked(); });
}

// Decides a conditional branch from the lattice: true = always taken,
// false = never taken, nullopt = undecidable.
std::optional<bool> EvalCond(const Insn& insn, const SccpRegs& regs) {
  bool is64 = insn.Class() == BPF_JMP;
  JmpOp op = static_cast<JmpOp>(insn.AluOpField());
  RegState a = AsScalar(regs[insn.dst]);
  RegState b = insn.SrcField() == BPF_X
                   ? AsScalar(regs[insn.src])
                   : RegState::ConstScalar(is64 ? SextImm(insn.imm)
                                                : static_cast<uint32_t>(insn.imm));
  if (a.IsConst() && b.IsConst()) {
    return EvalConstCond(op, a.ConstValue(), b.ConstValue(), is64);
  }
  if (!is64) {
    return std::nullopt;  // range reasoning below is 64-bit only
  }
  // Tnum bit reasoning: bits known in both values.
  uint64_t known_both = ~a.var.mask & ~b.var.mask;
  bool bit_conflict = (a.var.value & known_both) != (b.var.value & known_both);
  bool ranges_disjoint = a.umax < b.umin || b.umax < a.umin || a.smax < b.smin ||
                         b.smax < a.smin || bit_conflict;
  switch (op) {
    case BPF_JEQ:
      if (ranges_disjoint) {
        return false;
      }
      break;
    case BPF_JNE:
      if (ranges_disjoint) {
        return true;
      }
      break;
    case BPF_JGT:
      if (a.umin > b.umax) {
        return true;
      }
      if (a.umax <= b.umin) {
        return false;
      }
      break;
    case BPF_JGE:
      if (a.umin >= b.umax) {
        return true;
      }
      if (a.umax < b.umin) {
        return false;
      }
      break;
    case BPF_JLT:
      if (a.umax < b.umin) {
        return true;
      }
      if (a.umin >= b.umax) {
        return false;
      }
      break;
    case BPF_JLE:
      if (a.umax <= b.umin) {
        return true;
      }
      if (a.umin > b.umax) {
        return false;
      }
      break;
    case BPF_JSGT:
      if (a.smin > b.smax) {
        return true;
      }
      if (a.smax <= b.smin) {
        return false;
      }
      break;
    case BPF_JSGE:
      if (a.smin >= b.smax) {
        return true;
      }
      if (a.smax < b.smin) {
        return false;
      }
      break;
    case BPF_JSLT:
      if (a.smax < b.smin) {
        return true;
      }
      if (a.smin >= b.smax) {
        return false;
      }
      break;
    case BPF_JSLE:
      if (a.smax <= b.smin) {
        return true;
      }
      if (a.smin > b.smax) {
        return false;
      }
      break;
    case BPF_JSET:
      // Known-one bits present in both: some tested bit is certainly set.
      if ((a.var.value & b.var.value) != 0) {
        return true;
      }
      // No possibly-one bit in common: the intersection is certainly zero.
      if (((a.var.value | a.var.mask) & (b.var.value | b.var.mask)) == 0) {
        return false;
      }
      break;
    default:
      break;
  }
  return std::nullopt;
}

// Joins `from` into `into`. Returns true if `into` changed. With `widen`,
// changing registers jump straight to the unknown scalar so loop bodies
// converge (the precise envelope join has long chains).
bool JoinRegs(SccpRegs& into, const SccpRegs& from, bool widen) {
  bool changed = false;
  for (int i = 0; i < kNumRegs; i++) {
    RegState& a = into[i];
    const RegState& b = from[i];
    if (a == b) {
      continue;
    }
    RegState joined;
    if (!Tracked(a) || !Tracked(b)) {
      joined = Untracked();
    } else if (widen) {
      joined = RegState::UnknownScalar();
    } else {
      joined = RegState::UnknownScalar();
      joined.var = TnumUnion(a.var, b.var);
      joined.umin = std::min(a.umin, b.umin);
      joined.umax = std::max(a.umax, b.umax);
      joined.smin = std::min(a.smin, b.smin);
      joined.smax = std::max(a.smax, b.smax);
      joined.DeduceBounds();
    }
    if (!(joined == a)) {
      a = joined;
      changed = true;
    }
  }
  return changed;
}

// After this many joins at one block the join starts widening.
constexpr int kWidenJoins = 32;

struct SccpResult {
  std::vector<uint8_t> block_exec;            // block id -> feasibly reachable
  std::vector<std::optional<SccpRegs>> in;    // block id -> entry state
};

SccpResult RunSccp(const Program& prog, const Cfg& cfg) {
  SccpResult r;
  r.block_exec.assign(cfg.num_blocks(), 0);
  r.in.assign(cfg.num_blocks(), std::nullopt);
  std::vector<int> joins(cfg.num_blocks(), 0);

  SccpRegs entry;
  entry.fill(Untracked());
  r.in[0] = entry;
  std::vector<size_t> worklist{0};

  auto propagate = [&](size_t target, const SccpRegs& state) {
    if (!r.in[target].has_value()) {
      r.in[target] = state;
      worklist.push_back(target);
      return;
    }
    joins[target]++;
    if (JoinRegs(*r.in[target], state, joins[target] > kWidenJoins)) {
      worklist.push_back(target);
    }
  };

  while (!worklist.empty()) {
    size_t b = worklist.back();
    worklist.pop_back();
    r.block_exec[b] = 1;
    const BasicBlock& bb = cfg.blocks()[b];
    SccpRegs regs = *r.in[b];
    size_t last = bb.start;
    for (size_t p = bb.start; p < bb.end; p = cfg.NextPc(p)) {
      last = p;
      ApplyInsn(prog, p, regs);
    }
    const Insn& term = prog.insns[last];
    if (term.IsExit()) {
      continue;
    }
    if (term.IsUncondJmp()) {
      propagate(cfg.BlockOf(static_cast<size_t>(
                    static_cast<int64_t>(last) + 1 + term.off)),
                regs);
      continue;
    }
    if (term.IsCondJmp()) {
      size_t taken = cfg.BlockOf(
          static_cast<size_t>(static_cast<int64_t>(last) + 1 + term.off));
      size_t fall = cfg.BlockOf(last + 1);
      std::optional<bool> decided = EvalCond(term, regs);
      if (!decided.has_value() || *decided) {
        propagate(taken, regs);
      }
      if (!decided.has_value() || !*decided) {
        propagate(fall, regs);
      }
      continue;
    }
    // Straight-line block split by a jump target: falls into the next block.
    if (bb.end < prog.insns.size()) {
      propagate(cfg.BlockOf(bb.end), regs);
    }
  }
  return r;
}

// ---- Available-guard analysis ------------------------------------------------
//
// Bit i set before pc means: the Kie scratch register RAX holds
// sanitize(r_i), and r_i is unmodified since the guard that computed it.
// At most one bit is ever set on a feasible path (each guard overwrites RAX),
// but the bit-vector form drops into the generic intersect solver directly.
class AvailGuardProblem : public DataflowProblem {
 public:
  AvailGuardProblem(const Analysis& analysis, const std::vector<uint8_t>& removed)
      : analysis_(analysis), removed_(removed) {}

  size_t NumBits() const override { return kNumRegs; }
  DataflowDirection Direction() const override { return DataflowDirection::kForward; }
  MeetOp Meet() const override { return MeetOp::kIntersect; }
  // Boundary (program entry): nothing available — the default zero vector.

  void Transfer(size_t pc, const Insn& insn, BitVec& v) const override {
    if (removed_[pc]) {
      return;  // deleted at emission; removable insns never write registers
    }
    // C1 cancellation point: the terminate-load sequence Kie inserts before
    // this jump clobbers RAX on both outgoing paths.
    if (analysis_.cancellation_back_edges.count(pc) != 0) {
      v.ClearAll();
    }
    bool is_access = insn.IsLoad() || insn.IsStore() || insn.IsAtomic();
    if (is_access && pc < analysis_.mem.size()) {
      const MemAccessInfo& info = analysis_.mem[pc];
      if (info.visited && info.region == MemRegion::kHeap &&
          (info.needs_guard || info.formation)) {
        // Guarded site: MOV RAX, base; SANITIZE RAX precedes the access, so
        // RAX now holds sanitize(base). Formation guards (§5.4) are executed
        // unconditionally and generate no availability.
        v.ClearAll();
        if (!info.formation) {
          v.Set(insn.IsLoad() ? insn.src : insn.dst);
        }
      }
    }
    // Register redefinitions invalidate the pairing with RAX.
    ForEachReg(InsnRegEffects(insn).defs, [&](int r) { v.Clear(r); });
    if (insn.IsCall()) {
      v.ClearAll();  // helpers may also block or cancel
    }
  }

 private:
  const Analysis& analysis_;
  const std::vector<uint8_t>& removed_;
};

}  // namespace

StatusOr<OptResult> Optimize(const Program& program, const Analysis& analysis) {
  if (analysis.mem.size() != program.insns.size() ||
      analysis.insn_visited.size() != program.insns.size()) {
    return InvalidArgument("analysis does not match program");
  }

  OptResult out;
  out.program = program;
  out.analysis = analysis;
  out.plan.dominated.assign(program.insns.size(), 0);
  out.plan.removed.assign(program.insns.size(), 0);
  OptStats& stats = out.plan.stats;

  StatusOr<Cfg> cfg = Cfg::Build(program);
  if (!cfg.ok()) {
    return cfg.status();
  }

  // Pass 1: SCCP. Rewrite decided branches and constant ALU results, mark
  // infeasible code removable.
  SccpResult sccp = RunSccp(program, *cfg);
  for (size_t b = 0; b < cfg->num_blocks(); b++) {
    const BasicBlock& bb = cfg->blocks()[b];
    if (!sccp.block_exec[b]) {
      for (size_t p = bb.start; p < bb.end; p = cfg->NextPc(p)) {
        out.plan.removed[p] = 1;
        if (program.insns[p].IsLdImm64()) {
          out.plan.removed[p + 1] = 1;
        }
        stats.unreachable_removed++;
      }
      continue;
    }
    SccpRegs regs = *sccp.in[b];
    for (size_t p = bb.start; p < bb.end; p = cfg->NextPc(p)) {
      const Insn& insn = program.insns[p];
      if (insn.IsAlu()) {
        RegState value = EvalAlu(insn, regs);
        if (value.IsConst()) {
          uint64_t v = value.ConstValue();
          bool is64 = insn.Class() == BPF_ALU64;
          int32_t imm = static_cast<int32_t>(v);
          // Rewritable when MOV's immediate semantics reproduce the value
          // (64-bit MOV sign-extends; 32-bit MOV zero-extends).
          if (!is64 || v == SextImm(imm)) {
            Insn folded = MovImmInsn(static_cast<Reg>(insn.dst), imm, is64);
            if (!(folded == insn)) {
              out.program.insns[p] = folded;
              stats.alu_folded++;
            }
          }
        }
      } else if (insn.IsCondJmp()) {
        std::optional<bool> decided = EvalCond(insn, regs);
        if (decided.has_value()) {
          if (*decided) {
            out.program.insns[p] = JmpAlwaysInsn(insn.off);
          } else {
            // Falls through; a zero-offset JA is a semantic no-op that Kie
            // deletes during relayout.
            out.program.insns[p] = JmpAlwaysInsn(0);
            out.plan.removed[p] = 1;
          }
          stats.const_branches_folded++;
        }
      }
      ApplyInsn(program, p, regs);
    }
  }

  // Facts attached to removed instructions no longer apply: a folded-away
  // back edge needs no cancellation point, and an unreachable Cp has no
  // object table for Kie to remap.
  for (auto it = out.analysis.cancellation_back_edges.begin();
       it != out.analysis.cancellation_back_edges.end();) {
    if (out.plan.removed[*it]) {
      out.analysis.object_tables.erase(*it);
      it = out.analysis.cancellation_back_edges.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = out.analysis.object_tables.begin();
       it != out.analysis.object_tables.end();) {
    if (out.plan.removed[it->first]) {
      it = out.analysis.object_tables.erase(it);
    } else {
      ++it;
    }
  }

  // The folded program has different edges (JA where conditional jumps
  // were); the remaining passes run on its CFG.
  StatusOr<Cfg> folded_cfg = Cfg::Build(out.program);
  if (!folded_cfg.ok()) {
    return folded_cfg.status();
  }

  // Pass 3 (before the guard pass only for ordering convenience; the two are
  // independent): dead stack stores. A store through the frame pointer whose
  // slots are all dead-out can be dropped — unless an object table records a
  // resource handle in one of them, which the cancellation unwinder reads.
  Liveness liveness = Liveness::Compute(out.program, *folded_cfg, &out.analysis);
  std::set<int> unwind_slots;
  for (const auto& [pc, table] : out.analysis.object_tables) {
    for (const ObjectTableEntry& entry : table) {
      if (entry.stack_slot >= 0) {
        unwind_slots.insert(entry.stack_slot);
      }
    }
  }
  for (size_t b = 0; b < folded_cfg->num_blocks(); b++) {
    if (!folded_cfg->Reachable(b)) {
      continue;
    }
    const BasicBlock& bb = folded_cfg->blocks()[b];
    for (size_t p = bb.start; p < bb.end; p = folded_cfg->NextPc(p)) {
      const Insn& insn = out.program.insns[p];
      if (out.plan.removed[p] || !insn.IsStore() || insn.dst != R10) {
        continue;
      }
      int first = Liveness::SlotForOffset(insn.off);
      int last = Liveness::SlotForOffset(insn.off + insn.AccessSize() - 1);
      if (first < 0 || last < 0) {
        continue;
      }
      bool dead = true;
      for (int s = first; s <= last; s++) {
        dead = dead && !liveness.SlotLiveOut(p, s) && unwind_slots.count(s) == 0;
      }
      if (dead) {
        out.plan.removed[p] = 1;
        stats.dead_stores_removed++;
      }
    }
  }

  // Pass 2: available sanitized bases -> dominated guards.
  AvailGuardProblem avail(out.analysis, out.plan.removed);
  DataflowSolution solution = SolveDataflow(out.program, *folded_cfg, avail);
  for (size_t b = 0; b < folded_cfg->num_blocks(); b++) {
    if (!folded_cfg->Reachable(b)) {
      continue;  // intersect problems report all-ones for unreachable code
    }
    const BasicBlock& bb = folded_cfg->blocks()[b];
    for (size_t p = bb.start; p < bb.end; p = folded_cfg->NextPc(p)) {
      const Insn& insn = out.program.insns[p];
      if (out.plan.removed[p] ||
          !(insn.IsLoad() || insn.IsStore() || insn.IsAtomic())) {
        continue;
      }
      const MemAccessInfo& info = out.analysis.mem[p];
      if (!info.visited || info.region != MemRegion::kHeap || !info.needs_guard ||
          info.formation) {
        continue;  // only range-unprovable pointer guards can be dominated
      }
      int base = insn.IsLoad() ? insn.src : insn.dst;
      if (solution.At(p).Test(base)) {
        out.plan.dominated[p] = 1;
        stats.guards_dominated++;
      }
    }
  }

  return out;
}

}  // namespace kflex
