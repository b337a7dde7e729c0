// Bytecode assembler with labels and structured control-flow helpers.
//
// KFlex keeps eBPF's toolchain story: extensions are compiled to bytecode by
// arbitrary compilers. In this reproduction the "compiler" is this assembler:
// applications and data structures are written against it (see src/dsl and
// src/apps/ds), then flow through the real verifier / Kie / runtime pipeline.
#ifndef SRC_EBPF_ASSEMBLER_H_
#define SRC_EBPF_ASSEMBLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/program.h"

namespace kflex {

class Assembler {
 public:
  using Label = int;

  Assembler() = default;

  // ---- Labels ----
  Label NewLabel();
  // Binds `label` to the next emitted instruction.
  void Bind(Label label);

  // ---- ALU ----
  void AluImm(AluOp op, Reg dst, int32_t imm, bool is64 = true);
  void AluReg(AluOp op, Reg dst, Reg src, bool is64 = true);
  void Mov(Reg dst, Reg src) { AluReg(BPF_MOV, dst, src); }
  void MovImm(Reg dst, int32_t imm) { AluImm(BPF_MOV, dst, imm); }
  void Mov32(Reg dst, Reg src) { AluReg(BPF_MOV, dst, src, /*is64=*/false); }
  void Add(Reg dst, Reg src) { AluReg(BPF_ADD, dst, src); }
  void AddImm(Reg dst, int32_t imm) { AluImm(BPF_ADD, dst, imm); }
  void Sub(Reg dst, Reg src) { AluReg(BPF_SUB, dst, src); }
  void SubImm(Reg dst, int32_t imm) { AluImm(BPF_SUB, dst, imm); }
  void Mul(Reg dst, Reg src) { AluReg(BPF_MUL, dst, src); }
  void MulImm(Reg dst, int32_t imm) { AluImm(BPF_MUL, dst, imm); }
  void AndImm(Reg dst, int32_t imm) { AluImm(BPF_AND, dst, imm); }
  void And(Reg dst, Reg src) { AluReg(BPF_AND, dst, src); }
  void OrImm(Reg dst, int32_t imm) { AluImm(BPF_OR, dst, imm); }
  void Or(Reg dst, Reg src) { AluReg(BPF_OR, dst, src); }
  void Xor(Reg dst, Reg src) { AluReg(BPF_XOR, dst, src); }
  void XorImm(Reg dst, int32_t imm) { AluImm(BPF_XOR, dst, imm); }
  void LshImm(Reg dst, int32_t imm) { AluImm(BPF_LSH, dst, imm); }
  void Lsh(Reg dst, Reg src) { AluReg(BPF_LSH, dst, src); }
  void RshImm(Reg dst, int32_t imm) { AluImm(BPF_RSH, dst, imm); }
  void Rsh(Reg dst, Reg src) { AluReg(BPF_RSH, dst, src); }
  void ArshImm(Reg dst, int32_t imm) { AluImm(BPF_ARSH, dst, imm); }
  void ModImm(Reg dst, int32_t imm) { AluImm(BPF_MOD, dst, imm); }
  void Mod(Reg dst, Reg src) { AluReg(BPF_MOD, dst, src); }
  void DivImm(Reg dst, int32_t imm) { AluImm(BPF_DIV, dst, imm); }
  void Neg(Reg dst, bool is64 = true) { insns_.push_back(NegInsn(dst, is64)); }

  // ---- 64-bit immediates and pseudo loads ----
  void LoadImm64(Reg dst, uint64_t imm);
  // dst = address of heap offset `heap_off` (typed PTR_TO_HEAP by the
  // verifier). This is how kflex_heap() globals are referenced.
  void LoadHeapAddr(Reg dst, uint64_t heap_off);
  // dst = pointer to the kernel-provided map with id `map_id`.
  void LoadMapPtr(Reg dst, uint32_t map_id);

  // ---- Memory ----
  void Ldx(MemSize size, Reg dst, Reg src, int16_t off);
  void Stx(MemSize size, Reg dst, int16_t off, Reg src);
  void StImm(MemSize size, Reg dst, int16_t off, int32_t imm);
  void AtomicAdd(MemSize size, Reg dst, int16_t off, Reg src, bool fetch = false);
  void AtomicXchg(MemSize size, Reg dst, int16_t off, Reg src);
  void AtomicCmpXchg(MemSize size, Reg dst, int16_t off, Reg src);

  void Emit(const Insn& insn) { insns_.push_back(insn); }

  // ---- Control flow ----
  void Jmp(Label target);
  void JmpImm(JmpOp op, Reg dst, int32_t imm, Label target, bool is64 = true);
  void JmpReg(JmpOp op, Reg dst, Reg src, Label target, bool is64 = true);
  void Call(int32_t helper_id);
  void Exit();

  // ---- Structured control flow ----
  //
  //   auto loop = a.LoopBegin();               // loop head
  //   a.LoopBreakIf(loop, BPF_JEQ, R1, 0);     // exit condition
  //   ...body...
  //   a.LoopEnd(loop);                         // back edge -> head
  struct LoopScope {
    Label head;
    Label done;
  };
  LoopScope LoopBegin();
  void LoopBreakIfImm(const LoopScope& loop, JmpOp op, Reg dst, int32_t imm);
  void LoopBreakIfReg(const LoopScope& loop, JmpOp op, Reg dst, Reg src);
  void LoopEnd(const LoopScope& loop);

  //   auto iff = a.IfImm(BPF_JEQ, R1, 0);   // then-branch runs when R1 == 0
  //   ...then...
  //   a.Else(iff);                           // optional
  //   ...else...
  //   a.EndIf(iff);
  struct IfScope {
    Label else_label;
    Label end_label;
    bool has_else = false;
  };
  IfScope IfImm(JmpOp cond_true, Reg dst, int32_t imm);
  IfScope IfReg(JmpOp cond_true, Reg dst, Reg src);
  void Else(IfScope& scope);
  void EndIf(IfScope& scope);

  size_t CurrentPc() const { return insns_.size(); }

  // Resolves labels into relative jump offsets and returns the program.
  // Fails if a referenced label is unbound or a jump offset overflows 16 bits.
  StatusOr<Program> Finish(std::string name, Hook hook, ExtensionMode mode,
                           uint64_t heap_size = 0);

 private:
  struct Fixup {
    size_t insn_index;
    Label label;
  };

  void EmitJump(Insn insn, Label target);

  std::vector<Insn> insns_;
  std::vector<int64_t> label_pc_;  // -1 while unbound.
  std::vector<Fixup> fixups_;
};

}  // namespace kflex

#endif  // SRC_EBPF_ASSEMBLER_H_
