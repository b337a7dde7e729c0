#include "src/verifier/verifier.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "src/base/logging.h"
#include "src/ebpf/helper_ids.h"
#include "src/obs/obs.h"
#include "src/runtime/layout.h"
#include "src/verifier/cfg.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/state.h"

namespace kflex {

namespace {

constexpr int64_t kS64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kS64Max = std::numeric_limits<int64_t>::max();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

// Exploration limits.
constexpr size_t kMaxStates = 1 << 20;
constexpr size_t kMaxInsnVisits = 4096;  // per-insn cap before rejection
constexpr size_t kWidenThreshold = 64;   // visits at a prune point before widening

std::string PcMsg(size_t pc, const std::string& msg) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "insn %zu: ", pc);
  return buf + msg;
}

// Atomic result register (InsnRegEffects): the old memory value, a scalar of
// the access width.
void ApplyAtomicResult(VerifierState& st, const Insn& insn) {
  ForEachReg(InsnRegEffects(insn).defs,
             [&](int r) { st.regs[r] = RegState::ScalarMaxBytes(insn.AccessSize()); });
}

// ---- Conditional-branch bound refinement -------------------------------------

// Refines `reg` assuming `reg <op> [lo_other, hi_other]` holds (value operand
// described by its unsigned and signed bounds). Returns false if the refined
// range is empty (dead branch).
bool RefineAgainst(JmpOp op, RegState& reg, uint64_t o_umin, uint64_t o_umax, int64_t o_smin,
                   int64_t o_smax, const Tnum& o_var) {
  switch (op) {
    case BPF_JEQ:
      reg.umin = std::max(reg.umin, o_umin);
      reg.umax = std::min(reg.umax, o_umax);
      reg.smin = std::max(reg.smin, o_smin);
      reg.smax = std::min(reg.smax, o_smax);
      {
        // Intersect tnums; detect contradiction on known bits.
        uint64_t known_both = ~reg.var.mask & ~o_var.mask;
        if ((reg.var.value & known_both) != (o_var.value & known_both)) {
          return false;
        }
        reg.var = TnumIntersect(reg.var, o_var);
      }
      break;
    case BPF_JNE:
      // Only useful when the other side is a constant equal to our constant.
      if (reg.var.IsConst() && o_var.IsConst() && reg.var.value == o_var.value) {
        return false;
      }
      break;
    case BPF_JGT:
      if (o_umin == kU64Max) {
        return false;
      }
      reg.umin = std::max(reg.umin, o_umin + 1);
      break;
    case BPF_JGE:
      reg.umin = std::max(reg.umin, o_umin);
      break;
    case BPF_JLT:
      if (o_umax == 0) {
        return false;
      }
      reg.umax = std::min(reg.umax, o_umax - 1);
      break;
    case BPF_JLE:
      reg.umax = std::min(reg.umax, o_umax);
      break;
    case BPF_JSGT:
      if (o_smin == kS64Max) {
        return false;
      }
      reg.smin = std::max(reg.smin, o_smin + 1);
      break;
    case BPF_JSGE:
      reg.smin = std::max(reg.smin, o_smin);
      break;
    case BPF_JSLT:
      if (o_smax == kS64Min) {
        return false;
      }
      reg.smax = std::min(reg.smax, o_smax - 1);
      break;
    case BPF_JSLE:
      reg.smax = std::min(reg.smax, o_smax);
      break;
    case BPF_JSET:
    default:
      break;  // No refinement.
  }
  return reg.DeduceBounds();
}

// The condition that holds on the fall-through (not-taken) path.
JmpOp NegateJmpOp(JmpOp op) {
  switch (op) {
    case BPF_JEQ:
      return BPF_JNE;
    case BPF_JNE:
      return BPF_JEQ;
    case BPF_JGT:
      return BPF_JLE;
    case BPF_JLE:
      return BPF_JGT;
    case BPF_JGE:
      return BPF_JLT;
    case BPF_JLT:
      return BPF_JGE;
    case BPF_JSGT:
      return BPF_JSLE;
    case BPF_JSLE:
      return BPF_JSGT;
    case BPF_JSGE:
      return BPF_JSLT;
    case BPF_JSLT:
      return BPF_JSGE;
    default:
      return BPF_JSET;  // Sentinel: no refinement possible.
  }
}

// Do two states hold structurally identical resource sets? (Used to pick a
// widening partner.)
bool RefsSameShape(const VerifierState& a, const VerifierState& b) {
  if (a.refs.size() != b.refs.size() || a.locks.size() != b.locks.size()) {
    return false;
  }
  for (size_t i = 0; i < a.refs.size(); i++) {
    if (a.refs[i].kind != b.refs[i].kind || a.refs[i].acquire_pc != b.refs[i].acquire_pc) {
      return false;
    }
  }
  for (size_t i = 0; i < a.locks.size(); i++) {
    if (a.locks[i].heap_off != b.locks[i].heap_off) {
      return false;
    }
  }
  return true;
}

// The mirrored condition: a <op> b  <=>  b <mirror(op)> a.
JmpOp MirrorJmpOp(JmpOp op) {
  switch (op) {
    case BPF_JEQ:
      return BPF_JEQ;
    case BPF_JNE:
      return BPF_JNE;
    case BPF_JGT:
      return BPF_JLT;
    case BPF_JLT:
      return BPF_JGT;
    case BPF_JGE:
      return BPF_JLE;
    case BPF_JLE:
      return BPF_JGE;
    case BPF_JSGT:
      return BPF_JSLT;
    case BPF_JSLT:
      return BPF_JSGT;
    case BPF_JSGE:
      return BPF_JSLE;
    case BPF_JSLE:
      return BPF_JSGE;
    default:
      return BPF_JSET;
  }
}

// ---- Verifier ----------------------------------------------------------------

class VerifierImpl {
 public:
  VerifierImpl(const Program& program, const VerifyOptions& options)
      : prog_(program), opts_(options) {
    heap_size_ = program.heap_size;
    ctx_size_ = DefaultCtxSize(program.hook);
    mode_ = program.mode;
    analysis_.mem.resize(program.insns.size());
    analysis_.insn_visited.assign(program.insns.size(), 0);
    visit_count_.resize(program.insns.size(), 0);
  }

  StatusOr<Analysis> Run();

 private:
  struct Pending {
    size_t pc;
    VerifierState st;
  };

  Status ValidateStructure();
  Status ExplorePath(size_t pc, VerifierState st);

  Status ApplyAlu(VerifierState& st, const Insn& insn, size_t pc);
  Status ApplyLdImm64(VerifierState& st, const Insn& lo, const Insn& hi, size_t pc);
  Status CheckMem(VerifierState& st, const Insn& insn, size_t pc);
  Status CheckCall(VerifierState& st, const Insn& insn, size_t pc);
  Status CheckExit(VerifierState& st, size_t pc);
  Status CheckStackAccess(VerifierState& st, const Insn& insn, size_t pc, const RegState& base,
                          bool is_store, bool is_atomic);
  Status CheckStackMemArg(const VerifierState& st, const RegState& ptr, uint32_t size,
                          size_t pc, const char* what);
  // Handles a conditional jump: refines both branch states, pushes the
  // fall-through state, and advances pc to the taken target. Sets path_done
  // when no live successor continues inline.
  Status HandleCondJmp(VerifierState& st, const Insn& insn, size_t& pc, bool& path_done);
  void MarkNull(VerifierState& st, uint8_t reg_idx);
  static void MarkNonNull(VerifierState& st, uint8_t reg_idx);
  // Registers the back edge at `edge_pc` on the path's active set and
  // records the object table for the state at the edge (the precise held
  // set if the edge later becomes a cancellation point).
  Status FollowBackEdge(VerifierState& st, size_t edge_pc);

  Status RecordMemInfo(size_t pc, MemRegion region, bool needs_guard, bool formation);
  void RecordStoreSource(size_t pc, bool src_is_heap_ptr);
  Status RecordObjectTable(size_t pc, const VerifierState& st);

  // Returns true if the state was pruned.
  enum class PruneResult { kContinue, kPrune, kError };
  PruneResult PruneOrWiden(size_t pc, VerifierState& st, Status& error);

  // A path failed to converge concretely at `converge_pc` with `edges` on
  // its active back-edge set: decide which of them become cancellation
  // points.
  void MarkCancellationEdges(size_t converge_pc, const std::vector<size_t>& edges);

  bool IsValidTarget(size_t pc) const {
    return pc < prog_.insns.size() && valid_start_[pc];
  }

  const MapDescriptor* FindMap(uint32_t id) const {
    for (const MapDescriptor& m : opts_.maps) {
      if (m.id == id) {
        return &m;
      }
    }
    return nullptr;
  }

  const Program& prog_;
  VerifyOptions opts_;
  Analysis analysis_;
  uint64_t heap_size_;
  uint32_t ctx_size_;
  ExtensionMode mode_;

  std::vector<Pending> work_;
  std::vector<bool> valid_start_;
  std::set<size_t> prune_points_;
  std::map<size_t, std::vector<VerifierState>> stored_;
  std::vector<size_t> visit_count_;

  // Whole-program structure (built once after ValidateStructure) used to
  // scope cancellation points to the loops that actually fail to converge
  // and to prune dead object-table entries.
  std::optional<Cfg> cfg_;
  std::optional<Liveness> liveness_;
  // Every back edge the path-sensitive rule would have marked (the
  // pre-refinement, conservative set), for the pruned_back_edges counter.
  std::set<size_t> conservative_edges_;
  // Object-table entries the conservative location policy would have used
  // but liveness replaced with a live alias, per pc.
  std::map<size_t, std::set<ObjectTableEntry>> pruned_entry_candidates_;
};

Status VerifierImpl::ValidateStructure() {
  const auto& insns = prog_.insns;
  if (insns.empty()) {
    return VerificationFailed("empty program");
  }
  valid_start_.assign(insns.size(), true);
  for (size_t pc = 0; pc < insns.size(); pc++) {
    const Insn& insn = insns[pc];
    if (insn.dst >= kNumRegs || insn.src >= kNumRegs) {
      return VerificationFailed(PcMsg(pc, "invalid register number"));
    }
    if (insn.dst > kMaxUserReg || insn.src > kMaxUserReg) {
      return VerificationFailed(PcMsg(pc, "R11 (AX) is reserved for instrumentation"));
    }
    if (insn.IsLdImm64()) {
      if (pc + 1 >= insns.size() || insns[pc + 1].opcode != 0) {
        return VerificationFailed(PcMsg(pc, "truncated ld_imm64"));
      }
      valid_start_[pc + 1] = false;
      pc++;
      continue;
    }
    if (insn.opcode == 0) {
      return VerificationFailed(PcMsg(pc, "invalid opcode 0"));
    }
    if (insn.IsAlu()) {
      uint8_t op = insn.AluOpField();
      bool known = op == BPF_ADD || op == BPF_SUB || op == BPF_MUL || op == BPF_DIV ||
                   op == BPF_OR || op == BPF_AND || op == BPF_LSH || op == BPF_RSH ||
                   op == BPF_NEG || op == BPF_MOD || op == BPF_XOR || op == BPF_MOV ||
                   op == BPF_ARSH;
      if (!known) {
        return VerificationFailed(PcMsg(pc, "unknown ALU op"));
      }
      if (insn.dst == R10) {
        return VerificationFailed(PcMsg(pc, "R10 (frame pointer) is read-only"));
      }
      if (insn.SrcField() == BPF_K) {
        if ((op == BPF_DIV || op == BPF_MOD) && insn.imm == 0) {
          return VerificationFailed(PcMsg(pc, "division by constant zero"));
        }
        int width = insn.Class() == BPF_ALU64 ? 64 : 32;
        if ((op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) &&
            (insn.imm < 0 || insn.imm >= width)) {
          return VerificationFailed(PcMsg(pc, "shift amount out of range"));
        }
      }
      continue;
    }
    if (insn.IsLoad() || insn.IsStore() || insn.IsAtomic()) {
      if (insn.IsAtomic()) {
        int32_t aop = insn.imm;
        bool ok = aop == BPF_ATOMIC_ADD || aop == (BPF_ATOMIC_ADD | BPF_ATOMIC_FETCH) ||
                  aop == BPF_ATOMIC_XCHG || aop == BPF_ATOMIC_CMPXCHG;
        if (!ok) {
          return VerificationFailed(PcMsg(pc, "unknown atomic op"));
        }
        if (insn.SizeField() != BPF_W && insn.SizeField() != BPF_DW) {
          return VerificationFailed(PcMsg(pc, "atomic requires 4- or 8-byte size"));
        }
      }
      continue;
    }
    if (insn.IsJmp()) {
      uint8_t op = insn.AluOpField();
      if (op == BPF_CALL) {
        if (FindHelperContract(insn.imm) == nullptr) {
          return VerificationFailed(PcMsg(pc, "call to unknown helper"));
        }
        continue;
      }
      if (op == BPF_EXIT) {
        continue;
      }
      bool known = op == BPF_JA || op == BPF_JEQ || op == BPF_JGT || op == BPF_JGE ||
                   op == BPF_JSET || op == BPF_JNE || op == BPF_JSGT || op == BPF_JSGE ||
                   op == BPF_JLT || op == BPF_JLE || op == BPF_JSLT || op == BPF_JSLE;
      if (!known) {
        return VerificationFailed(PcMsg(pc, "unknown jump op"));
      }
      continue;
    }
    return VerificationFailed(PcMsg(pc, "unsupported instruction class"));
  }
  // Jump targets must land on instruction boundaries.
  for (size_t pc = 0; pc < insns.size(); pc++) {
    const Insn& insn = insns[pc];
    if (insn.IsLdImm64()) {
      pc++;
      continue;
    }
    if (insn.IsJmp() && !insn.IsCall() && !insn.IsExit()) {
      int64_t target = static_cast<int64_t>(pc) + 1 + insn.off;
      if (target < 0 || target >= static_cast<int64_t>(insns.size()) ||
          !valid_start_[static_cast<size_t>(target)]) {
        return VerificationFailed(PcMsg(pc, "jump out of range"));
      }
      prune_points_.insert(static_cast<size_t>(target));
      if (insn.IsCondJmp()) {
        prune_points_.insert(pc + 1);
      }
    }
  }
  prune_points_.insert(0);
  return OkStatus();
}

Status VerifierImpl::ApplyLdImm64(VerifierState& st, const Insn& lo, const Insn& hi, size_t pc) {
  uint64_t imm = LdImm64Value(lo, hi);
  RegState& dst = st.regs[lo.dst];
  switch (lo.src) {
    case kPseudoNone:
      dst = RegState::ConstScalar(imm);
      return OkStatus();
    case kPseudoHeapVar:
      if (mode_ != ExtensionMode::kKflex) {
        return VerificationFailed(PcMsg(pc, "extension heap requires KFlex mode"));
      }
      if (heap_size_ == 0) {
        return VerificationFailed(PcMsg(pc, "program declares no heap (kflex_heap missing)"));
      }
      if (imm >= heap_size_) {
        return VerificationFailed(PcMsg(pc, "heap variable offset beyond heap size"));
      }
      dst = RegState::Pointer(RegType::kPtrToHeap, static_cast<int64_t>(imm));
      return OkStatus();
    case kPseudoMapId: {
      const MapDescriptor* map = FindMap(static_cast<uint32_t>(imm));
      if (map == nullptr) {
        return VerificationFailed(PcMsg(pc, "reference to unknown map"));
      }
      dst = RegState::Pointer(RegType::kConstPtrToMap, 0);
      dst.map_id = map->id;
      return OkStatus();
    }
    default:
      return VerificationFailed(PcMsg(pc, "unknown ld_imm64 pseudo kind"));
  }
}

Status VerifierImpl::ApplyAlu(VerifierState& st, const Insn& insn, size_t pc) {
  bool is64 = insn.Class() == BPF_ALU64;
  uint8_t op = insn.AluOpField();
  RegState& dst = st.regs[insn.dst];

  // MOV is special: it overwrites rather than reads dst.
  if (op == BPF_MOV) {
    if (insn.SrcField() == BPF_K) {
      uint64_t v = is64 ? SextImm(insn.imm) : static_cast<uint32_t>(insn.imm);
      dst = RegState::ConstScalar(v);
      return OkStatus();
    }
    const RegState& src = st.regs[insn.src];
    if (src.type == RegType::kNotInit) {
      return VerificationFailed(PcMsg(pc, "read of uninitialized register"));
    }
    if (is64) {
      dst = src;
      return OkStatus();
    }
    // 32-bit move truncates: pointers lose provenance.
    if (IsPointerType(src.type)) {
      if (mode_ != ExtensionMode::kKflex) {
        return VerificationFailed(PcMsg(pc, "32-bit move of pointer"));
      }
      dst = RegState::UnknownScalar();
      dst.umax = 0xFFFFFFFFULL;
      dst.DeduceBounds();
      return OkStatus();
    }
    dst = src;
    dst.var = TnumCast(dst.var, 4);
    dst.umin = 0;
    dst.umax = 0xFFFFFFFFULL;
    dst.smin = 0;
    dst.smax = 0xFFFFFFFFLL;
    dst.DeduceBounds();
    return OkStatus();
  }

  if (dst.type == RegType::kNotInit) {
    return VerificationFailed(PcMsg(pc, "ALU on uninitialized register"));
  }
  if (op == BPF_NEG) {
    if (IsPointerType(dst.type)) {
      if (mode_ != ExtensionMode::kKflex) {
        return VerificationFailed(PcMsg(pc, "arithmetic on pointer"));
      }
      dst = RegState::UnknownScalar();
      return OkStatus();
    }
    RegState zero = RegState::ConstScalar(0);
    dst = ScalarBinop(BPF_SUB, zero, dst);
    if (!is64) {
      dst.var = TnumCast(dst.var, 4);
      dst.umin = 0;
      dst.umax = 0xFFFFFFFFULL;
      dst.smin = 0;
      dst.smax = 0xFFFFFFFFLL;
      dst.DeduceBounds();
    }
    return OkStatus();
  }

  // Materialize the operand.
  RegState operand;
  if (insn.SrcField() == BPF_K) {
    operand = RegState::ConstScalar(is64 ? SextImm(insn.imm) : static_cast<uint32_t>(insn.imm));
  } else {
    operand = st.regs[insn.src];
    if (operand.type == RegType::kNotInit) {
      return VerificationFailed(PcMsg(pc, "read of uninitialized register"));
    }
  }

  bool dst_ptr = IsPointerType(dst.type);
  bool src_ptr = IsPointerType(operand.type);

  if (!dst_ptr && !src_ptr) {
    RegState result = ScalarBinop(static_cast<AluOp>(op), dst, operand);
    if (!is64) {
      result.var = TnumCast(result.var, 4);
      result.umin = 0;
      result.umax = 0xFFFFFFFFULL;
      result.smin = 0;
      result.smax = 0xFFFFFFFFLL;
      result.DeduceBounds();
    }
    dst = result;
    return OkStatus();
  }

  // Pointer arithmetic. Only 64-bit ADD/SUB keep pointer provenance.
  auto scalarize = [&]() -> Status {
    if (mode_ != ExtensionMode::kKflex) {
      return VerificationFailed(PcMsg(pc, "disallowed arithmetic on pointer"));
    }
    dst = RegState::UnknownScalar();
    return OkStatus();
  };

  if (!is64) {
    return scalarize();
  }

  if (op == BPF_ADD) {
    // ptr + scalar or scalar + ptr.
    const RegState& ptr = dst_ptr ? dst : operand;
    const RegState& delta = dst_ptr ? operand : dst;
    if (IsPointerType(delta.type)) {
      return scalarize();  // ptr + ptr has no meaning.
    }
    if (IsNullablePtr(ptr.type) || ptr.type == RegType::kPtrToSocket ||
        ptr.type == RegType::kConstPtrToMap) {
      return VerificationFailed(PcMsg(pc, "arithmetic on non-memory pointer"));
    }
    if ((ptr.type == RegType::kPtrToStack || ptr.type == RegType::kPtrToCtx ||
         ptr.type == RegType::kPtrToMapValue) &&
        !delta.IsConst()) {
      // Keep stack/ctx/map pointer offsets statically known. Variable ctx /
      // map-value offsets are checked against bounds at the access.
      if (ptr.type == RegType::kPtrToStack) {
        return VerificationFailed(PcMsg(pc, "variable offset on stack pointer"));
      }
    }
    RegState result = ptr;
    RegState off = ScalarBinop(BPF_ADD, [&] {
      RegState tmp = RegState::UnknownScalar();
      tmp.var = ptr.var;
      tmp.umin = ptr.umin;
      tmp.umax = ptr.umax;
      tmp.smin = ptr.smin;
      tmp.smax = ptr.smax;
      tmp.type = RegType::kScalar;
      return tmp;
    }(), delta);
    result.var = off.var;
    result.umin = off.umin;
    result.umax = off.umax;
    result.smin = off.smin;
    result.smax = off.smax;
    dst = result;
    return OkStatus();
  }

  if (op == BPF_SUB) {
    if (dst_ptr && !src_ptr) {
      if (IsNullablePtr(dst.type) || dst.type == RegType::kPtrToSocket ||
          dst.type == RegType::kConstPtrToMap) {
        return VerificationFailed(PcMsg(pc, "arithmetic on non-memory pointer"));
      }
      if (dst.type == RegType::kPtrToStack && !operand.IsConst()) {
        return VerificationFailed(PcMsg(pc, "variable offset on stack pointer"));
      }
      RegState offreg = RegState::UnknownScalar();
      offreg.var = dst.var;
      offreg.umin = dst.umin;
      offreg.umax = dst.umax;
      offreg.smin = dst.smin;
      offreg.smax = dst.smax;
      RegState off = ScalarBinop(BPF_SUB, offreg, operand);
      RegState result = dst;
      result.var = off.var;
      result.umin = off.umin;
      result.umax = off.umax;
      result.smin = off.smin;
      result.smax = off.smax;
      dst = result;
      return OkStatus();
    }
    if (dst_ptr && src_ptr && dst.type == operand.type) {
      // ptr - ptr of the same region yields a scalar offset difference.
      RegState a = RegState::UnknownScalar();
      a.var = dst.var;
      a.umin = dst.umin;
      a.umax = dst.umax;
      a.smin = dst.smin;
      a.smax = dst.smax;
      RegState b = RegState::UnknownScalar();
      b.var = operand.var;
      b.umin = operand.umin;
      b.umax = operand.umax;
      b.smin = operand.smin;
      b.smax = operand.smax;
      dst = ScalarBinop(BPF_SUB, a, b);
      return OkStatus();
    }
    return scalarize();
  }

  return scalarize();
}

Status VerifierImpl::CheckStackAccess(VerifierState& st, const Insn& insn, size_t pc,
                                      const RegState& base, bool is_store, bool is_atomic) {
  if (!base.HasConstOffset()) {
    return VerificationFailed(PcMsg(pc, "variable-offset stack access"));
  }
  int64_t total = static_cast<int64_t>(base.var.value) + insn.off;
  int size = insn.AccessSize();
  if (total < -kStackSize || total + size > 0) {
    return VerificationFailed(PcMsg(pc, "stack access out of bounds"));
  }
  int first_slot = static_cast<int>((kStackSize + total) / 8);
  int last_slot = static_cast<int>((kStackSize + total + size - 1) / 8);

  if (is_store || is_atomic) {
    bool aligned_full = size == 8 && (kStackSize + total) % 8 == 0;
    if (aligned_full && !is_atomic && insn.Class() == BPF_STX) {
      // Full-width spill preserves the source register's abstract state.
      st.stack[static_cast<size_t>(first_slot)] =
          StackSlot{StackSlot::Kind::kSpill, st.regs[insn.src]};
    } else if (aligned_full && !is_atomic && insn.Class() == BPF_ST) {
      st.stack[static_cast<size_t>(first_slot)] =
          StackSlot{StackSlot::Kind::kSpill, RegState::ConstScalar(SextImm(insn.imm))};
    } else {
      for (int s = first_slot; s <= last_slot; s++) {
        st.stack[static_cast<size_t>(s)] = StackSlot{StackSlot::Kind::kMisc, RegState::NotInit()};
      }
    }
    if (is_atomic) {
      for (int s = first_slot; s <= last_slot; s++) {
        if (st.stack[static_cast<size_t>(s)].kind == StackSlot::Kind::kInvalid) {
          return VerificationFailed(PcMsg(pc, "atomic on uninitialized stack"));
        }
      }
    }
  }
  if (!is_store || is_atomic) {
    for (int s = first_slot; s <= last_slot; s++) {
      if (st.stack[static_cast<size_t>(s)].kind == StackSlot::Kind::kInvalid) {
        return VerificationFailed(PcMsg(pc, "read of uninitialized stack"));
      }
    }
    if (is_atomic) {
      ApplyAtomicResult(st, insn);
    }
    if (!is_atomic) {
      const StackSlot& slot = st.stack[static_cast<size_t>(first_slot)];
      if (size == 8 && (kStackSize + total) % 8 == 0 && slot.kind == StackSlot::Kind::kSpill) {
        st.regs[insn.dst] = slot.spill;
      } else {
        st.regs[insn.dst] = RegState::ScalarMaxBytes(size);
      }
    }
  }
  return RecordMemInfo(pc, MemRegion::kStack, /*needs_guard=*/false, /*formation=*/false);
}

Status VerifierImpl::CheckMem(VerifierState& st, const Insn& insn, size_t pc) {
  bool is_load = insn.IsLoad();
  bool is_atomic = insn.IsAtomic();
  bool is_store = insn.IsStore() || is_atomic;
  if (is_atomic && insn.imm == BPF_ATOMIC_CMPXCHG &&
      st.regs[R0].type != RegType::kScalar) {
    return VerificationFailed(PcMsg(pc, "cmpxchg requires a scalar in R0"));
  }
  uint8_t base_reg = is_load ? insn.src : insn.dst;
  RegState& base = st.regs[base_reg];
  int size = insn.AccessSize();

  if (insn.Class() == BPF_STX || is_atomic) {
    if (st.regs[insn.src].type == RegType::kNotInit) {
      return VerificationFailed(PcMsg(pc, "store of uninitialized register"));
    }
  }
  if (base.type == RegType::kNotInit) {
    return VerificationFailed(PcMsg(pc, "memory access via uninitialized register"));
  }
  if (IsNullablePtr(base.type)) {
    if (!opts_.audit_replay) {
      return VerificationFailed(PcMsg(pc, "possibly-NULL pointer dereference; add a null check"));
    }
    // Contract-audit replay: assume non-NULL and keep going — a NULL at
    // runtime faults in the guard zone and cancels the invocation, which is
    // exactly the divergence the replay confirmer is looking for.
    MarkNonNull(st, base_reg);
  }

  switch (base.type) {
    case RegType::kPtrToStack:
      return CheckStackAccess(st, insn, pc, base, is_store, is_atomic);

    case RegType::kPtrToCtx: {
      int64_t lo = base.smin + insn.off;
      int64_t hi = base.smax + insn.off + size;
      if (lo < 0 || hi > static_cast<int64_t>(ctx_size_)) {
        return VerificationFailed(PcMsg(pc, "ctx access out of bounds"));
      }
      if (is_load) {
        st.regs[insn.dst] = RegState::ScalarMaxBytes(size);
      } else if (is_atomic) {
        ApplyAtomicResult(st, insn);
      }
      return RecordMemInfo(pc, MemRegion::kCtx, false, false);
    }

    case RegType::kPtrToMapValue: {
      const MapDescriptor* map = FindMap(base.map_id);
      if (map == nullptr) {
        return Internal(PcMsg(pc, "map vanished"));
      }
      int64_t lo = base.smin + insn.off;
      int64_t hi = base.smax + insn.off + size;
      if (lo < 0 || hi > static_cast<int64_t>(map->value_size)) {
        return VerificationFailed(PcMsg(pc, "map value access out of bounds"));
      }
      if (is_load) {
        st.regs[insn.dst] = RegState::ScalarMaxBytes(size);
      } else if (is_atomic) {
        ApplyAtomicResult(st, insn);
      }
      return RecordMemInfo(pc, MemRegion::kMapValue, false, false);
    }

    case RegType::kPtrToHeap: {
      if (mode_ != ExtensionMode::kKflex) {
        return VerificationFailed(PcMsg(pc, "heap access requires KFlex mode"));
      }
      // Range analysis: provably within the heap's guard zones => elide the
      // guard; a fault there is caught and becomes a cancellation (§4.1).
      int64_t guard = static_cast<int64_t>(kHeapGuardZone);
      bool in_bounds = false;
      // Use 128-bit arithmetic to avoid overflow traps in the bound check.
      __int128 lo = static_cast<__int128>(base.smin) + insn.off;
      __int128 hi = static_cast<__int128>(base.smax) + insn.off + size;
      if (lo >= -static_cast<__int128>(guard) &&
          hi <= static_cast<__int128>(heap_size_) + guard) {
        in_bounds = true;
      }
      if (insn.Class() == BPF_STX && !is_atomic && size == 8) {
        RecordStoreSource(pc, st.regs[insn.src].type == RegType::kPtrToHeap);
      }
      if (is_load) {
        st.regs[insn.dst] = RegState::ScalarMaxBytes(size);
      } else if (is_atomic) {
        ApplyAtomicResult(st, insn);
      }
      KFLEX_RETURN_IF_ERROR(RecordMemInfo(pc, MemRegion::kHeap, !in_bounds, false));
      return RecordObjectTable(pc, st);
    }

    case RegType::kScalar: {
      // Dereferencing an untrusted scalar: in KFlex this is a heap access
      // through a pointer loaded from (user-shared) heap memory. Kie emits a
      // formation guard; the runtime masks the address into the heap.
      if (mode_ != ExtensionMode::kKflex) {
        return VerificationFailed(PcMsg(pc, "dereference of scalar value"));
      }
      if (heap_size_ == 0) {
        return VerificationFailed(PcMsg(pc, "scalar dereference without extension heap"));
      }
      if (insn.Class() == BPF_STX && !is_atomic && size == 8) {
        RecordStoreSource(pc, st.regs[insn.src].type == RegType::kPtrToHeap);
      }
      if (is_load) {
        st.regs[insn.dst] = RegState::ScalarMaxBytes(size);
      } else if (is_atomic) {
        ApplyAtomicResult(st, insn);
      }
      KFLEX_RETURN_IF_ERROR(RecordMemInfo(pc, MemRegion::kHeap, true, true));
      return RecordObjectTable(pc, st);
    }

    default:
      return VerificationFailed(PcMsg(pc, std::string("cannot access memory via ") +
                                              RegTypeName(base.type)));
  }
}

Status VerifierImpl::CheckStackMemArg(const VerifierState& st, const RegState& ptr,
                                      uint32_t size, size_t pc, const char* what) {
  if (ptr.type != RegType::kPtrToStack) {
    return VerificationFailed(PcMsg(pc, std::string(what) + ": expected stack pointer"));
  }
  if (!ptr.HasConstOffset()) {
    return VerificationFailed(PcMsg(pc, std::string(what) + ": variable stack offset"));
  }
  int64_t total = static_cast<int64_t>(ptr.var.value);
  if (total < -kStackSize || total + static_cast<int64_t>(size) > 0) {
    return VerificationFailed(PcMsg(pc, std::string(what) + ": stack range out of bounds"));
  }
  int first_slot = static_cast<int>((kStackSize + total) / 8);
  int last_slot = static_cast<int>((kStackSize + total + size - 1) / 8);
  for (int s = first_slot; s <= last_slot; s++) {
    if (st.stack[static_cast<size_t>(s)].kind == StackSlot::Kind::kInvalid) {
      return VerificationFailed(PcMsg(pc, std::string(what) + ": uninitialized stack bytes"));
    }
  }
  return OkStatus();
}

Status VerifierImpl::CheckCall(VerifierState& st, const Insn& insn, size_t pc) {
  const HelperContract* contract = FindHelperContract(insn.imm);
  if (contract == nullptr) {
    return VerificationFailed(PcMsg(pc, "unknown helper"));
  }
  if (mode_ == ExtensionMode::kEbpf && !contract->ebpf_compatible) {
    return VerificationFailed(
        PcMsg(pc, std::string(contract->name) + " is unavailable in strict eBPF mode"));
  }

  const MapDescriptor* map = nullptr;
  uint64_t lock_off = 0;
  uint32_t released_ref = 0;
  uint64_t const_size_arg = 0;
  uint64_t malloc_size = 0;
  if (contract->id == kHelperKflexMalloc && st.regs[R1].IsConst()) {
    malloc_size = st.regs[R1].ConstValue();
  }

  for (int i = 0; i < 5; i++) {
    HelperArgType arg_type = contract->args[i];
    if (arg_type == HelperArgType::kNone) {
      continue;
    }
    const RegState& arg = st.regs[static_cast<size_t>(R1 + i)];
    if (arg.type == RegType::kNotInit) {
      return VerificationFailed(PcMsg(pc, std::string(contract->name) + ": uninitialized arg"));
    }
    switch (arg_type) {
      case HelperArgType::kScalar:
        if (arg.type != RegType::kScalar) {
          return VerificationFailed(PcMsg(pc, std::string(contract->name) + ": expected scalar"));
        }
        break;
      case HelperArgType::kConstScalar:
        if (!arg.IsConst()) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": expected constant"));
        }
        break;
      case HelperArgType::kPtrToCtx:
        if (arg.type != RegType::kPtrToCtx) {
          return VerificationFailed(PcMsg(pc, std::string(contract->name) + ": expected ctx"));
        }
        break;
      case HelperArgType::kConstMapPtr: {
        if (arg.type != RegType::kConstPtrToMap) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": expected map pointer"));
        }
        map = FindMap(arg.map_id);
        if (map == nullptr) {
          return Internal(PcMsg(pc, "map vanished"));
        }
        // Map-kind compatibility: ring buffers only work with
        // bpf_ringbuf_output, and vice versa.
        bool wants_ringbuf = contract->id == kHelperRingbufOutput;
        if (wants_ringbuf != (map->type == MapType::kRingBuf)) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": incompatible map type"));
        }
        break;
      }
      case HelperArgType::kStackMem: {
        // Size is helper-specific: map key/value size or a following
        // kMemSize constant argument.
        uint32_t size = 0;
        if (contract->id == kHelperMapLookupElem || contract->id == kHelperMapDeleteElem) {
          size = map != nullptr ? map->key_size : 0;
        } else if (contract->id == kHelperMapUpdateElem) {
          size = (i == 1) ? (map != nullptr ? map->key_size : 0)
                          : (map != nullptr ? map->value_size : 0);
        } else if (i + 1 < 5 && contract->args[i + 1] == HelperArgType::kMemSize) {
          const RegState& size_arg = st.regs[static_cast<size_t>(R1 + i + 1)];
          if (!size_arg.IsConst()) {
            return VerificationFailed(
                PcMsg(pc, std::string(contract->name) + ": size must be constant"));
          }
          const_size_arg = size_arg.ConstValue();
          size = static_cast<uint32_t>(const_size_arg);
        }
        if (size == 0 || size > kStackSize) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": bad memory size"));
        }
        KFLEX_RETURN_IF_ERROR(CheckStackMemArg(st, arg, size, pc, contract->name));
        break;
      }
      case HelperArgType::kMemSize:
        if (!arg.IsConst()) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": size must be constant"));
        }
        break;
      case HelperArgType::kHeapAddr:
        if (arg.type != RegType::kPtrToHeap &&
            !(mode_ == ExtensionMode::kKflex && arg.type == RegType::kScalar)) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": expected heap address"));
        }
        break;
      case HelperArgType::kHeapConstAddr:
        if (arg.type != RegType::kPtrToHeap || !arg.HasConstOffset()) {
          return VerificationFailed(PcMsg(
              pc, std::string(contract->name) + ": expected heap pointer with constant offset"));
        }
        lock_off = arg.var.value;
        break;
      case HelperArgType::kSocket: {
        if (arg.type != RegType::kPtrToSocket || arg.ref_id == 0) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": expected referenced socket"));
        }
        bool found = false;
        for (const RefInfo& ref : st.refs) {
          if (ref.id == arg.ref_id) {
            found = true;
            break;
          }
        }
        if (!found) {
          return VerificationFailed(
              PcMsg(pc, std::string(contract->name) + ": reference already released"));
        }
        released_ref = arg.ref_id;
        break;
      }
      case HelperArgType::kNone:
        break;
    }
  }

  // Resource effects.
  if (contract->releases == ResourceKind::kSocket) {
    std::erase_if(st.refs, [&](const RefInfo& r) { return r.id == released_ref; });
    for (RegState& reg : st.regs) {
      if (reg.ref_id == released_ref) {
        reg = RegState::UnknownScalar();
      }
    }
    for (StackSlot& slot : st.stack) {
      if (slot.kind == StackSlot::Kind::kSpill && slot.spill.ref_id == released_ref) {
        slot = StackSlot{StackSlot::Kind::kMisc, RegState::NotInit()};
      }
    }
  }
  if (contract->acquires == ResourceKind::kLock) {
    // A spin-lock waiter may be cancelled while blocked (deadlock, §3.4):
    // record the resources held *before* this acquisition so the runtime can
    // release them at this call site.
    KFLEX_RETURN_IF_ERROR(RecordObjectTable(pc, st));
    if (mode_ == ExtensionMode::kEbpf && !st.locks.empty()) {
      return VerificationFailed(PcMsg(pc, "eBPF mode permits at most one held lock"));
    }
    for (const LockInfo& lock : st.locks) {
      if (lock.heap_off == lock_off) {
        return VerificationFailed(PcMsg(pc, "deadlock: lock already held"));
      }
    }
    st.locks.push_back(LockInfo{lock_off, pc});
  }
  if (contract->releases == ResourceKind::kLock) {
    auto it = std::find_if(st.locks.begin(), st.locks.end(),
                           [&](const LockInfo& l) { return l.heap_off == lock_off; });
    if (it == st.locks.end()) {
      return VerificationFailed(PcMsg(pc, "unlock of a lock that is not held"));
    }
    st.locks.erase(it);
  }

  // Clobber caller-saved registers and type the return value.
  for (int r = R1; r <= R5; r++) {
    st.regs[static_cast<size_t>(r)] = RegState::NotInit();
  }
  switch (contract->ret) {
    case HelperRetType::kVoid:
      st.regs[R0] = RegState::NotInit();
      break;
    case HelperRetType::kScalar:
      st.regs[R0] = RegState::UnknownScalar();
      break;
    case HelperRetType::kMapValueOrNull:
      st.regs[R0] = RegState::Pointer(RegType::kPtrToMapValueOrNull, 0);
      st.regs[R0].map_id = map != nullptr ? map->id : 0;
      break;
    case HelperRetType::kHeapPtrOrNull: {
      // The allocator returns memory inside the heap; with a constant request
      // size the object starts no later than heap_size - size, which lets the
      // range analysis elide guards on field accesses (§3.2).
      uint64_t limit = heap_size_ > 0 ? heap_size_ - 1 : 0;
      if (malloc_size > 0 && malloc_size <= heap_size_) {
        limit = heap_size_ - malloc_size;
      }
      st.regs[R0] = RegState::Pointer(RegType::kPtrToHeapOrNull, 0);
      st.regs[R0].umin = 0;
      st.regs[R0].umax = limit;
      st.regs[R0].smin = 0;
      st.regs[R0].smax = static_cast<int64_t>(limit);
      st.regs[R0].var = Tnum::Range(0, limit);
      break;
    }
    case HelperRetType::kSocketOrNull: {
      RegState sock = RegState::Pointer(RegType::kPtrToSocketOrNull, 0);
      sock.ref_id = st.next_ref_id++;
      st.refs.push_back(RefInfo{sock.ref_id, contract->acquires, contract->destructor, pc});
      st.regs[R0] = sock;
      break;
    }
  }
  return OkStatus();
}

Status VerifierImpl::CheckExit(VerifierState& st, size_t pc) {
  if (st.regs[R0].type != RegType::kScalar) {
    return VerificationFailed(PcMsg(pc, "R0 must hold a scalar verdict at exit"));
  }
  if (opts_.audit_replay) {
    // Contract-audit replay: the distilled witness is expected to exit with
    // resources held. Record held locks in an object table at the exit pc so
    // Runtime::SweepInvariants can observe the still-held lock word; leaked
    // socket refs are caught by the object-registry live count without any
    // table entry (and the handle may already be clobbered here, so the
    // alias scan in RecordObjectTable could not place one anyway).
    for (const LockInfo& lock : st.locks) {
      ObjectTableEntry entry;
      entry.kind = ResourceKind::kLock;
      entry.destructor = kHelperKflexSpinUnlock;
      entry.lock_off = lock.heap_off;
      analysis_.object_tables[pc].insert(entry);
    }
    return OkStatus();
  }
  if (!st.refs.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "unreleased kernel reference acquired at insn %zu",
                  st.refs.front().acquire_pc);
    return VerificationFailed(PcMsg(pc, buf));
  }
  if (!st.locks.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "lock (heap offset %llu) still held at exit",
                  static_cast<unsigned long long>(st.locks.front().heap_off));
    return VerificationFailed(PcMsg(pc, buf));
  }
  return OkStatus();
}

Status VerifierImpl::RecordMemInfo(size_t pc, MemRegion region, bool needs_guard,
                                   bool formation) {
  MemAccessInfo& info = analysis_.mem[pc];
  if (info.visited && info.region != region) {
    return VerificationFailed(
        PcMsg(pc, "memory access reaches this instruction with conflicting pointer types"));
  }
  info.visited = true;
  info.region = region;
  info.needs_guard = info.needs_guard || needs_guard;
  info.formation = info.formation || formation;
  return OkStatus();
}

void VerifierImpl::RecordStoreSource(size_t pc, bool src_is_heap_ptr) {
  MemAccessInfo& info = analysis_.mem[pc];
  if (!info.visited) {
    info.stores_heap_ptr = src_is_heap_ptr;
    return;
  }
  if (info.stores_mixed) {
    return;
  }
  if (info.stores_heap_ptr != src_is_heap_ptr) {
    info.stores_mixed = true;
    info.stores_heap_ptr = false;
  }
}

Status VerifierImpl::RecordObjectTable(size_t pc, const VerifierState& st) {
  if (st.refs.empty() && st.locks.empty()) {
    return OkStatus();
  }
  auto& table = analysis_.object_tables[pc];
  for (const RefInfo& ref : st.refs) {
    ObjectTableEntry base;
    base.kind = ref.kind;
    base.destructor = ref.destructor;
    // Collect every location aliasing the handle, in the conservative scan
    // order (registers ascending, then spilled stack slots) the table used
    // before liveness pruning.
    std::vector<ObjectTableEntry> aliases;
    std::vector<bool> alias_live;
    for (int r = 0; r <= kMaxUserReg; r++) {
      if (st.regs[static_cast<size_t>(r)].ref_id == ref.id) {
        ObjectTableEntry e = base;
        e.reg = r;
        aliases.push_back(e);
        alias_live.push_back(!liveness_ || liveness_->RegLiveIn(pc, r));
      }
    }
    for (int s = 0; s < kStackSlots; s++) {
      const StackSlot& slot = st.stack[static_cast<size_t>(s)];
      if (slot.kind == StackSlot::Kind::kSpill && slot.spill.ref_id == ref.id) {
        ObjectTableEntry e = base;
        e.stack_slot = s;
        aliases.push_back(e);
        alias_live.push_back(!liveness_ || liveness_->SlotLiveIn(pc, s));
      }
    }
    if (aliases.empty()) {
      return VerificationFailed(PcMsg(
          pc, "acquired reference is not addressable at a cancellation point"));
    }
    // Exactly one entry per reference (the runtime releases every table
    // entry on cancellation). Prefer the first location the program still
    // reads — a dead location may be clobbered by Kie or later code before
    // the fault surfaces. A handle that is dead everywhere must still be
    // released, so fall back to the first alias.
    size_t chosen = 0;
    for (size_t i = 0; i < aliases.size(); i++) {
      if (alias_live[i]) {
        chosen = i;
        break;
      }
    }
    table.insert(aliases[chosen]);
    if (chosen != 0) {
      pruned_entry_candidates_[pc].insert(aliases[0]);
    }
  }
  for (const LockInfo& lock : st.locks) {
    ObjectTableEntry entry;
    entry.kind = ResourceKind::kLock;
    entry.destructor = kHelperKflexSpinUnlock;
    entry.lock_off = lock.heap_off;
    table.insert(entry);
  }
  return OkStatus();
}

VerifierImpl::PruneResult VerifierImpl::PruneOrWiden(size_t pc, VerifierState& st,
                                                     Status& error) {
  st.NormalizeRefIds();
  auto& stored = stored_[pc];
  for (const VerifierState& seen : stored) {
    if (seen.Covers(st)) {
      // The continuation of this path was already verified from a wider
      // state: every loop the path is inside was not proven to terminate
      // concretely, so all of its back edges become cancellation points.
      if (!st.active_edges.empty()) {
        if (mode_ == ExtensionMode::kEbpf) {
          error = VerificationFailed(PcMsg(st.active_edges.back(),
                                           "back edge with unprovable termination (eBPF mode)"));
          return PruneResult::kError;
        }
        MarkCancellationEdges(pc, st.active_edges);
      }
      return PruneResult::kPrune;
    }
  }
  visit_count_[pc]++;
  if (visit_count_[pc] > kMaxInsnVisits) {
    error = VerificationFailed(PcMsg(
        pc, mode_ == ExtensionMode::kEbpf
                ? "loop state does not converge (unbounded loop in eBPF mode)"
                : "loop does not converge; kernel resources must be released per iteration"));
    return PruneResult::kError;
  }
  if (visit_count_[pc] > kWidenThreshold && mode_ == ExtensionMode::kKflex) {
    // Widen against a stored state with identical resource shape so that
    // repeated visits converge.
    for (const VerifierState& seen : stored) {
      if (!RefsSameShape(seen, st)) {
        continue;
      }
      VerifierState widened = seen;
      widened.JoinWith(st);
      widened.active_edges = st.active_edges;
      st = widened;
      MarkCancellationEdges(pc, st.active_edges);
      break;
    }
  }
  stored.push_back(st);
  return PruneResult::kContinue;
}

void VerifierImpl::MarkCancellationEdges(size_t converge_pc, const std::vector<size_t>& edges) {
  for (size_t edge_pc : edges) {
    conservative_edges_.insert(edge_pc);
    // Only the loops that contain the point where convergence was forced
    // can actually iterate unboundedly: a loop whose body was fully
    // unrolled from concrete states never fails to converge at any pc
    // inside itself (its header is a prune point revisited each iteration).
    // Back edges that don't close a natural loop (irreducible control flow)
    // keep the conservative treatment.
    if (!cfg_ || !cfg_->IsNaturalBackEdge(edge_pc) ||
        cfg_->InLoopOfBackEdge(edge_pc, converge_pc)) {
      analysis_.cancellation_back_edges.insert(edge_pc);
    }
  }
}

Status VerifierImpl::ExplorePath(size_t start_pc, VerifierState start_st) {
  work_.push_back(Pending{start_pc, std::move(start_st)});
  while (!work_.empty()) {
    analysis_.explored_states++;
    if (analysis_.explored_states > kMaxStates) {
      return VerificationFailed("program too complex: state limit exceeded");
    }
    size_t pc = work_.back().pc;
    VerifierState st = std::move(work_.back().st);
    work_.pop_back();

    bool path_done = false;
    while (!path_done) {
      if (pc >= prog_.insns.size()) {
        return VerificationFailed("execution falls off the end of the program");
      }
      analysis_.explored_insns++;
      if (analysis_.explored_insns > kMaxStates * 8) {
        return VerificationFailed("program too complex: instruction visit limit exceeded");
      }
      analysis_.insn_visited[pc] = 1;

      if (prune_points_.count(pc) != 0) {
        Status error = OkStatus();
        PruneResult pr = PruneOrWiden(pc, st, error);
        if (pr == PruneResult::kError) {
          return error;
        }
        if (pr == PruneResult::kPrune) {
          break;
        }
      }

      const Insn& insn = prog_.insns[pc];
      if (insn.IsLdImm64()) {
        KFLEX_RETURN_IF_ERROR(ApplyLdImm64(st, insn, prog_.insns[pc + 1], pc));
        pc += 2;
        continue;
      }
      if (insn.IsAlu()) {
        KFLEX_RETURN_IF_ERROR(ApplyAlu(st, insn, pc));
        pc++;
        continue;
      }
      if (insn.IsLoad() || insn.IsStore() || insn.IsAtomic()) {
        KFLEX_RETURN_IF_ERROR(CheckMem(st, insn, pc));
        pc++;
        continue;
      }
      if (insn.IsCall()) {
        KFLEX_RETURN_IF_ERROR(CheckCall(st, insn, pc));
        pc++;
        continue;
      }
      if (insn.IsExit()) {
        KFLEX_RETURN_IF_ERROR(CheckExit(st, pc));
        path_done = true;
        continue;
      }
      if (insn.IsUncondJmp()) {
        size_t target = static_cast<size_t>(static_cast<int64_t>(pc) + 1 + insn.off);
        if (insn.off < 0) {
          KFLEX_RETURN_IF_ERROR(FollowBackEdge(st, pc));
        }
        pc = target;
        continue;
      }
      if (insn.IsCondJmp()) {
        KFLEX_RETURN_IF_ERROR(HandleCondJmp(st, insn, pc, path_done));
        continue;
      }
      return VerificationFailed(PcMsg(pc, "unsupported instruction"));
    }
  }
  return OkStatus();
}

Status VerifierImpl::FollowBackEdge(VerifierState& st, size_t edge_pc) {
  bool present = false;
  for (size_t e : st.active_edges) {
    if (e == edge_pc) {
      present = true;
      break;
    }
  }
  if (!present) {
    st.active_edges.push_back(edge_pc);
  }
  return RecordObjectTable(edge_pc, st);
}

void VerifierImpl::MarkNonNull(VerifierState& st, uint8_t reg_idx) {
  RegState& reg = st.regs[reg_idx];
  reg.type = NonNullVariant(reg.type);
}

void VerifierImpl::MarkNull(VerifierState& st, uint8_t reg_idx) {
  RegState& reg = st.regs[reg_idx];
  uint32_t rid = reg.ref_id;
  if (reg.type == RegType::kPtrToSocketOrNull && rid != 0) {
    // A NULL lookup result never acquired the reference: drop it.
    std::erase_if(st.refs, [&](const RefInfo& r) { return r.id == rid; });
    for (RegState& other : st.regs) {
      if (other.ref_id == rid) {
        other = RegState::ConstScalar(0);
      }
    }
    for (StackSlot& slot : st.stack) {
      if (slot.kind == StackSlot::Kind::kSpill && slot.spill.ref_id == rid) {
        slot.spill = RegState::ConstScalar(0);
      }
    }
    return;
  }
  reg = RegState::ConstScalar(0);
}

Status VerifierImpl::HandleCondJmp(VerifierState& st, const Insn& insn, size_t& pc,
                                   bool& path_done) {
  JmpOp op = static_cast<JmpOp>(insn.AluOpField());
  bool is64 = insn.Class() == BPF_JMP;
  RegState& dst = st.regs[insn.dst];
  if (dst.type == RegType::kNotInit) {
    return VerificationFailed(PcMsg(pc, "branch on uninitialized register"));
  }
  bool use_reg = insn.SrcField() == BPF_X;
  RegState operand;
  if (use_reg) {
    operand = st.regs[insn.src];
    if (operand.type == RegType::kNotInit) {
      return VerificationFailed(PcMsg(pc, "branch on uninitialized register"));
    }
  } else {
    operand =
        RegState::ConstScalar(is64 ? SextImm(insn.imm) : static_cast<uint32_t>(insn.imm));
  }

  size_t taken_pc = static_cast<size_t>(static_cast<int64_t>(pc) + 1 + insn.off);
  size_t fall_pc = pc + 1;
  bool backward = insn.off < 0;

  // NULL check on a nullable pointer: retype per branch.
  if (IsNullablePtr(dst.type) && !use_reg && insn.imm == 0 &&
      (op == BPF_JEQ || op == BPF_JNE) && is64) {
    VerifierState other = st;
    if (op == BPF_JEQ) {
      MarkNonNull(other, insn.dst);  // fall-through: != 0
      MarkNull(st, insn.dst);        // taken: == 0
    } else {
      MarkNull(other, insn.dst);
      MarkNonNull(st, insn.dst);
    }
    work_.push_back(Pending{fall_pc, std::move(other)});
    if (backward) {
      KFLEX_RETURN_IF_ERROR(FollowBackEdge(st, pc));
    }
    pc = taken_pc;
    return OkStatus();
  }

  bool dst_ptr = IsPointerType(dst.type);
  bool op_ptr = IsPointerType(operand.type);
  if (dst_ptr || op_ptr) {
    // Pointer comparison: allowed (e.g., list-walk termination p != head),
    // but no range refinement is derived.
    if (mode_ == ExtensionMode::kEbpf &&
        !(dst_ptr && op_ptr && dst.type == operand.type)) {
      return VerificationFailed(PcMsg(pc, "pointer comparison leaks pointer value (eBPF mode)"));
    }
    VerifierState other = st;
    work_.push_back(Pending{fall_pc, std::move(other)});
    if (backward) {
      KFLEX_RETURN_IF_ERROR(FollowBackEdge(st, pc));
    }
    pc = taken_pc;
    return OkStatus();
  }

  if (dst.IsConst() && operand.IsConst()) {
    if (EvalConstCond(op, dst.ConstValue(), operand.ConstValue(), is64)) {
      if (backward) {
        KFLEX_RETURN_IF_ERROR(FollowBackEdge(st, pc));
      }
      pc = taken_pc;
    } else {
      pc = fall_pc;
    }
    return OkStatus();
  }

  VerifierState else_st = st;
  bool taken_alive = true;
  bool else_alive = true;
  // JMP32 compares the low 32 bits. When both operands provably fit in
  // 32 bits (non-negative, below 2^32) the comparison coincides with the
  // 64-bit one and the same refinement applies; otherwise stay conservative
  // and explore both branches unrefined.
  bool refinable = is64 || (dst.umax <= 0xFFFFFFFFULL && dst.smin >= 0 &&
                            operand.umax <= 0xFFFFFFFFULL && operand.smin >= 0);
  if (refinable && op != BPF_JSET) {
    taken_alive = RefineAgainst(op, dst, operand.umin, operand.umax, operand.smin, operand.smax,
                                operand.var);
    if (use_reg && taken_alive) {
      const RegState refined = dst;
      taken_alive = RefineAgainst(MirrorJmpOp(op), st.regs[insn.src], refined.umin, refined.umax,
                                  refined.smin, refined.smax, refined.var);
    }
    JmpOp neg = NegateJmpOp(op);
    RegState& edst = else_st.regs[insn.dst];
    const RegState eoperand = use_reg ? else_st.regs[insn.src] : operand;
    else_alive = RefineAgainst(neg, edst, eoperand.umin, eoperand.umax, eoperand.smin,
                               eoperand.smax, eoperand.var);
    if (use_reg && else_alive) {
      const RegState erefined = edst;
      else_alive = RefineAgainst(MirrorJmpOp(neg), else_st.regs[insn.src], erefined.umin,
                                 erefined.umax, erefined.smin, erefined.smax, erefined.var);
    }
  }
  if (else_alive) {
    work_.push_back(Pending{fall_pc, std::move(else_st)});
  }
  if (taken_alive) {
    if (backward) {
      KFLEX_RETURN_IF_ERROR(FollowBackEdge(st, pc));
    }
    pc = taken_pc;
  } else {
    path_done = true;
  }
  return OkStatus();
}

StatusOr<Analysis> VerifierImpl::Run() {
  KFLEX_RETURN_IF_ERROR(ValidateStructure());
  if (heap_size_ != 0 && (heap_size_ & (heap_size_ - 1)) != 0) {
    return VerificationFailed("heap size must be a power of two");
  }

  // Whole-program structure: the CFG scopes cancellation points to the
  // loops that fail to converge, and liveness steers object-table entries
  // toward locations the program still reads.
  auto cfg = Cfg::Build(prog_);
  if (!cfg.ok()) {
    return Internal("cfg construction failed on a validated program: " +
                    cfg.status().ToString());
  }
  cfg_ = std::move(cfg).value();
  liveness_ = Liveness::Compute(prog_, *cfg_);

  KFLEX_RETURN_IF_ERROR(ExplorePath(0, VerifierState::Initial()));

  // Back edges the conservative path rule would have marked but the CFG
  // refinement exonerated are not cancellation points; neither are back
  // edges of loops that unrolled concretely. Drop their provisional object
  // tables so Kie never anchors a table to a plain jump.
  for (auto it = analysis_.object_tables.begin(); it != analysis_.object_tables.end();) {
    const Insn& insn = prog_.insns[it->first];
    bool non_cp_jump = (insn.IsUncondJmp() || insn.IsCondJmp()) &&
                       analysis_.cancellation_back_edges.count(it->first) == 0;
    if (non_cp_jump || it->second.empty()) {
      it = analysis_.object_tables.erase(it);
    } else {
      ++it;
    }
  }
  for (size_t edge_pc : conservative_edges_) {
    if (analysis_.cancellation_back_edges.count(edge_pc) == 0) {
      analysis_.pruned_back_edges++;
    }
  }
  // Count entries the pre-liveness policy would have emitted that no state
  // ended up needing (a state with no live alias re-inserts the fallback
  // entry, which then must not count as pruned).
  for (const auto& [pc, candidates] : pruned_entry_candidates_) {
    auto it = analysis_.object_tables.find(pc);
    if (it == analysis_.object_tables.end()) {
      continue;
    }
    for (const ObjectTableEntry& e : candidates) {
      if (it->second.count(e) == 0) {
        analysis_.pruned_object_entries++;
      }
    }
  }

  // Final statistics over statically classified accesses.
  for (const MemAccessInfo& info : analysis_.mem) {
    if (!info.visited || info.region != MemRegion::kHeap) {
      continue;
    }
    analysis_.heap_access_insns++;
    if (info.formation) {
      analysis_.formation_guards++;
    } else if (info.needs_guard) {
      analysis_.required_guards++;
    } else {
      analysis_.elided_guards++;
    }
  }
  if (analysis_.heap_access_insns !=
      analysis_.elided_guards + analysis_.required_guards + analysis_.formation_guards) {
    return Internal("analysis statistics inconsistent: heap accesses != elided + required + formation");
  }
  return analysis_;
}

}  // namespace

uint32_t DefaultCtxSize(Hook hook) {
  switch (hook) {
    case Hook::kXdp:
    case Hook::kSkSkb:
      return 2048;
    case Hook::kTracepoint:
    case Hook::kLsm:
      return 64;
  }
  return 64;
}

StatusOr<Analysis> Verify(const Program& program, const VerifyOptions& options) {
  VerifierImpl impl(program, options);
  StatusOr<Analysis> analysis = impl.Run();
  if (analysis.ok()) {
    KFLEX_TRACE(ObsEvent::kVerifierAccept,
                analysis->required_guards + analysis->formation_guards,
                analysis->pruned_object_entries);
  } else {
    KFLEX_TRACE(ObsEvent::kVerifierReject, program.insns.size(), 0);
  }
  return analysis;
}

}  // namespace kflex
