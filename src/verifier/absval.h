// Abstract state shared by the lint passes (lint.cc), the contract audit
// (audit.cc) and the concurrency analysis (concurrency.cc): constant
// propagation (AbsVal/AbsRegs/AbsStep) and the socket-handle tracker
// (SocketTags). An AbsVal is a statically known scalar or extension-heap
// offset (lock identity). Starting every block (or path) from "unknown"
// keeps derived findings provable regardless of how control reached the
// code under analysis.
#ifndef SRC_VERIFIER_ABSVAL_H_
#define SRC_VERIFIER_ABSVAL_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "src/ebpf/insn.h"
#include "src/ebpf/program.h"
#include "src/verifier/dataflow.h"

namespace kflex {

struct AbsVal {
  enum Kind { kUnknown, kConst, kHeapOff } kind = kUnknown;
  uint64_t v = 0;

  static AbsVal Const(uint64_t v) { return {kConst, v}; }
  static AbsVal HeapOff(uint64_t v) { return {kHeapOff, v}; }
};

struct AbsRegs {
  std::array<AbsVal, kNumRegs> r;
};

// Applies the instruction at `pc` to `regs`. For ld_imm64 the second slot is
// read from the program; callers advance pc with Cfg::NextPc so the hi slot
// is never stepped directly.
inline void AbsStep(const Program& prog, size_t pc, AbsRegs& regs) {
  const Insn& insn = prog.insns[pc];
  if (insn.IsLdImm64()) {
    uint64_t imm = LdImm64Value(insn, prog.insns[pc + 1]);
    if (insn.src == kPseudoHeapVar) {
      regs.r[insn.dst] = AbsVal::HeapOff(imm);
    } else if (insn.src == kPseudoNone) {
      regs.r[insn.dst] = AbsVal::Const(imm);
    } else {
      regs.r[insn.dst] = AbsVal();
    }
    return;
  }
  if (insn.IsAlu()) {
    bool is64 = insn.Class() == BPF_ALU64;
    uint8_t op = insn.AluOpField();
    AbsVal src = insn.SrcField() == BPF_X
                     ? regs.r[insn.src]
                     : AbsVal::Const(is64 ? static_cast<uint64_t>(static_cast<int64_t>(insn.imm))
                                          : static_cast<uint32_t>(insn.imm));
    AbsVal& dst = regs.r[insn.dst];
    switch (op) {
      case BPF_MOV:
        dst = src;
        if (!is64 && dst.kind == AbsVal::kConst) {
          dst.v = static_cast<uint32_t>(dst.v);
        } else if (!is64) {
          dst = AbsVal();
        }
        break;
      case BPF_ADD:
        if (dst.kind != AbsVal::kUnknown && src.kind == AbsVal::kConst) {
          dst.v += src.v;
        } else if (dst.kind == AbsVal::kConst && src.kind == AbsVal::kHeapOff) {
          dst = AbsVal::HeapOff(dst.v + src.v);
        } else {
          dst = AbsVal();
        }
        if (!is64 && dst.kind == AbsVal::kConst) {
          dst.v = static_cast<uint32_t>(dst.v);
        }
        break;
      case BPF_SUB:
        if (dst.kind != AbsVal::kUnknown && src.kind == AbsVal::kConst) {
          dst.v -= src.v;
          if (!is64 && dst.kind == AbsVal::kConst) {
            dst.v = static_cast<uint32_t>(dst.v);
          }
        } else {
          dst = AbsVal();
        }
        break;
      default:
        dst = AbsVal();
        break;
    }
    return;
  }
  // Anything else this instruction defines is unknown.
  ForEachReg(InsnRegEffects(insn).defs, [&](int r) { regs.r[r] = AbsVal(); });
}

// True for a 64-bit JEQ/JNE against immediate 0: a NULL check.
inline bool IsNullCheck(const Insn& insn) {
  uint8_t op = insn.AluOpField();
  return insn.IsCondJmp() && insn.Class() == BPF_JMP && insn.SrcField() == BPF_K &&
         insn.imm == 0 && (op == BPF_JEQ || op == BPF_JNE);
}

// Where each acquired socket reference lives: per register and per 8-byte
// stack slot, the tag of the handle it holds (acquiring call pc + 1; 0 = no
// handle). Handles follow 64-bit register moves, spills and fills; any other
// write forgets the destination. Callers own the set of open acquisitions
// and update it from the tags Release and RetireNullEdge return.
struct SocketTags {
  std::array<size_t, kNumRegs> reg{};
  std::array<size_t, kStackSlotCount> slot{};

  // Forgets every register and slot holding `tag`.
  void Kill(size_t tag) {
    std::replace(reg.begin(), reg.end(), tag, size_t{0});
    std::replace(slot.begin(), slot.end(), tag, size_t{0});
  }

  // A socket release through R1. Returns R1's tag, now killed; returns 0 for
  // a release through an untracked register, which clears every tag: the
  // released handle may have been any of them.
  size_t Release() {
    size_t tag = reg[R1];
    if (tag != 0) {
      Kill(tag);
    } else {
      reg.fill(0);
      slot.fill(0);
    }
    return tag;
  }

  // Taking edge `edge` (0 = jump taken, 1 = fall-through) of `insn`. On the
  // NULL edge of a null check the tested handle was never acquired: returns
  // its tag, now killed. Returns 0 otherwise.
  size_t RetireNullEdge(const Insn& insn, int edge) {
    bool null_edge = IsNullCheck(insn) && (insn.AluOpField() == BPF_JEQ) == (edge == 0);
    size_t tag = null_edge ? reg[insn.dst] : 0;
    if (tag != 0) {
      Kill(tag);
    }
    return tag;
  }

  // Applies a non-branch instruction. A call clobbers R0-R5; the caller
  // applies a release before and tags an acquisition's R0 after.
  void Step(const Insn& insn) {
    if (insn.IsAlu()) {
      bool mov64 = insn.AluOpField() == BPF_MOV && insn.SrcField() == BPF_X &&
                   insn.Class() == BPF_ALU64;
      reg[insn.dst] = mov64 ? reg[insn.src] : 0;
    } else if (insn.IsLoad()) {
      int fill = -1;
      if (insn.src == R10 && insn.AccessSize() == 8 && (insn.off + kStackSize) % 8 == 0) {
        fill = Liveness::SlotForOffset(insn.off);
      }
      reg[insn.dst] = fill >= 0 ? slot[fill] : 0;
    } else if (insn.IsStore() && insn.dst == R10) {
      int first = Liveness::SlotForOffset(insn.off);
      int last = Liveness::SlotForOffset(insn.off + insn.AccessSize() - 1);
      bool full = insn.AccessSize() == 8 && (insn.off + kStackSize) % 8 == 0;
      if (full && first >= 0 && insn.Class() == BPF_STX) {
        slot[first] = reg[insn.src];
      } else if (first >= 0 && last >= 0) {
        for (int s = first; s <= last; s++) {
          slot[s] = 0;
        }
      }
    } else {
      ForEachReg(InsnRegEffects(insn).defs, [&](int r) { reg[r] = 0; });
    }
  }

  // Dataflow meet: keeps a tag only where both states agree. Returns true if
  // this state changed.
  bool Meet(const SocketTags& from) {
    bool changed = false;
    auto meet = [&changed](auto& into, const auto& other) {
      for (size_t i = 0; i < into.size(); i++) {
        if (into[i] != other[i] && into[i] != 0) {
          into[i] = 0;
          changed = true;
        }
      }
    };
    meet(reg, from.reg);
    meet(slot, from.slot);
    return changed;
  }
};

}  // namespace kflex

#endif  // SRC_VERIFIER_ABSVAL_H_
