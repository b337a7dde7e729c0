#include "src/verifier/dataflow.h"

#include <algorithm>

namespace kflex {
namespace {

std::vector<size_t> BlockPcs(const Cfg& cfg, const BasicBlock& bb) {
  std::vector<size_t> pcs;
  for (size_t p = bb.start; p < bb.end; p = cfg.NextPc(p)) {
    pcs.push_back(p);
  }
  return pcs;
}

}  // namespace

DataflowSolution SolveDataflow(const Program& program, const Cfg& cfg,
                               const DataflowProblem& problem) {
  const size_t nb = cfg.num_blocks();
  const bool forward = problem.Direction() == DataflowDirection::kForward;

  BitVec init(problem.NumBits());
  if (problem.Meet() == MeetOp::kIntersect) {
    init.SetAll();
  }
  std::vector<BitVec> in(nb, init);
  std::vector<BitVec> out(nb, init);

  // Iterate in (reverse) RPO until stable. Bit-vector frameworks over these
  // small programs converge in a handful of sweeps.
  std::vector<size_t> order = cfg.rpo();
  if (!forward) {
    std::reverse(order.begin(), order.end());
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b : order) {
      const BasicBlock& bb = cfg.blocks()[b];
      // Meet over the relevant neighbors into the block-entry value.
      const std::vector<size_t>& neighbors = forward ? bb.preds : bb.succs;
      BitVec entry(problem.NumBits());
      bool boundary_block = forward ? (b == 0) : bb.succs.empty();
      if (boundary_block) {
        entry = problem.Boundary();
      } else if (problem.Meet() == MeetOp::kIntersect) {
        entry.SetAll();
      }
      bool first = !boundary_block;
      for (size_t nb_id : neighbors) {
        const BitVec& nv = forward ? out[nb_id] : in[nb_id];
        if (problem.Meet() == MeetOp::kUnion) {
          entry.UnionWith(nv);
        } else if (first) {
          entry = nv;
          first = false;
        } else {
          entry.IntersectWith(nv);
        }
      }
      BitVec& entry_slot = forward ? in[b] : out[b];
      entry_slot = entry;

      // Transfer through the block.
      BitVec v = entry;
      std::vector<size_t> pcs = BlockPcs(cfg, bb);
      if (!forward) {
        std::reverse(pcs.begin(), pcs.end());
      }
      for (size_t pc : pcs) {
        problem.Transfer(pc, program.insns[pc], v);
      }
      BitVec& exit_slot = forward ? out[b] : in[b];
      if (!(exit_slot == v)) {
        exit_slot = v;
        changed = true;
      }
    }
  }

  // Materialize the per-instruction value.
  DataflowSolution solution;
  solution.at_.assign(program.size(), BitVec(problem.NumBits()));
  for (size_t b = 0; b < nb; b++) {
    const BasicBlock& bb = cfg.blocks()[b];
    std::vector<size_t> pcs = BlockPcs(cfg, bb);
    if (forward) {
      BitVec v = in[b];
      for (size_t pc : pcs) {
        solution.at_[pc] = v;
        problem.Transfer(pc, program.insns[pc], v);
      }
    } else {
      BitVec v = out[b];
      for (auto it = pcs.rbegin(); it != pcs.rend(); ++it) {
        problem.Transfer(*it, program.insns[*it], v);
        solution.at_[*it] = v;
      }
    }
  }
  return solution;
}

// ---- Liveness ---------------------------------------------------------------

namespace {

class LivenessProblem : public DataflowProblem {
 public:
  LivenessProblem(const Analysis* analysis, const std::map<size_t, uint16_t>* extra_reg_uses)
      : analysis_(analysis), extra_reg_uses_(extra_reg_uses) {}

  size_t NumBits() const override {
    return static_cast<size_t>(kNumRegs) + kStackSlotCount;
  }
  DataflowDirection Direction() const override { return DataflowDirection::kBackward; }
  MeetOp Meet() const override { return MeetOp::kUnion; }

  void Transfer(size_t pc, const Insn& insn, BitVec& v) const override {
    // v is live-out; produce live-in = (v - def) | use.
    BitVec use(NumBits());
    BitVec def(NumBits());
    CollectUsesDefs(pc, insn, use, def);
    if (extra_reg_uses_ != nullptr) {
      auto it = extra_reg_uses_->find(pc);
      if (it != extra_reg_uses_->end()) {
        ForEachReg(it->second, [&](int r) { use.Set(r); });
      }
    }
    v.Subtract(def);
    v.UnionWith(use);
  }

 private:
  static size_t SlotBit(int slot) { return static_cast<size_t>(kNumRegs) + slot; }

  void UseSlotsInRange(const Insn& insn, BitVec& use) const {
    int first = Liveness::SlotForOffset(insn.off);
    int last = Liveness::SlotForOffset(insn.off + insn.AccessSize() - 1);
    if (first < 0 || last < 0) {
      return;  // out-of-frame access; the verifier rejects it anyway
    }
    for (int s = first; s <= last; s++) {
      use.Set(SlotBit(s));
    }
  }

  void UseAllSlots(BitVec& use) const {
    for (int s = 0; s < kStackSlotCount; s++) {
      use.Set(SlotBit(s));
    }
  }

  // True if this memory instruction may read the stack through a non-R10
  // pointer (stack aliases with verifier-tracked constant offsets).
  bool MayReadStackViaAlias(size_t pc) const {
    if (analysis_ == nullptr) {
      return true;  // unverified program: assume any pointer can alias stack
    }
    if (pc >= analysis_->mem.size()) {
      return true;
    }
    const MemAccessInfo& info = analysis_->mem[pc];
    return info.visited && info.region == MemRegion::kStack;
  }

  // Registers come from the ISA's def/use model; the stack-slot half is
  // liveness's own.
  void CollectUsesDefs(size_t pc, const Insn& insn, BitVec& use, BitVec& def) const {
    RegEffects effects = InsnRegEffects(insn);
    ForEachReg(effects.uses, [&](int r) { use.Set(r); });
    ForEachReg(effects.defs, [&](int r) { def.Set(r); });
    if (insn.IsLoad() || insn.IsAtomic()) {
      // Read-modify-write atomics are never a strong kill of their slot.
      int base = insn.IsLoad() ? insn.src : insn.dst;
      if (base == R10) {
        UseSlotsInRange(insn, use);
      } else if (MayReadStackViaAlias(pc)) {
        UseAllSlots(use);
      }
    } else if (insn.IsStore()) {
      // A full, aligned 8-byte store through the frame pointer strongly
      // kills its slot; anything narrower or through an alias does not.
      if (insn.dst == R10 && insn.AccessSize() == 8 && (insn.off + kStackSize) % 8 == 0) {
        int slot = Liveness::SlotForOffset(insn.off);
        if (slot >= 0) {
          def.Set(SlotBit(slot));
        }
      }
    } else if (insn.IsCall()) {
      // Helpers may read any stack memory passed to them by pointer.
      UseAllSlots(use);
    }
  }

  const Analysis* analysis_;
  const std::map<size_t, uint16_t>* extra_reg_uses_;
};

}  // namespace

Liveness Liveness::Compute(const Program& program, const Cfg& cfg, const Analysis* analysis,
                           const std::map<size_t, uint16_t>* extra_reg_uses) {
  Liveness live;
  LivenessProblem problem(analysis, extra_reg_uses);
  live.solution_ = SolveDataflow(program, cfg, problem);

  // Live-out per instruction: union of live-in over the instructions that
  // can execute next (exit instructions have empty live-out).
  const size_t bits = problem.NumBits();
  live.out_.assign(program.size(), BitVec(bits));
  for (const BasicBlock& bb : cfg.blocks()) {
    size_t last = bb.start;
    for (size_t p = bb.start; p < bb.end; p = cfg.NextPc(p)) {
      last = p;
      size_t next = cfg.NextPc(p);
      if (next < bb.end) {
        live.out_[p] = live.solution_.At(next);
      }
    }
    for (size_t succ : bb.succs) {
      live.out_[last].UnionWith(live.solution_.At(cfg.blocks()[succ].start));
    }
  }
  return live;
}

}  // namespace kflex
