// eBPF instruction set (the subset KFlex relies on), with Linux-compatible
// encoding: 8-bit opcode, 4-bit dst/src registers, 16-bit signed offset and
// 32-bit immediate. 64-bit immediates (BPF_LD | BPF_IMM | BPF_DW) occupy two
// instruction slots, exactly as in the kernel.
//
// KFlex "retains the instruction set of eBPF's bytecode" (§3); this module is
// the substrate both the verifier and the instrumentation engine (Kie)
// operate on.
#ifndef SRC_EBPF_INSN_H_
#define SRC_EBPF_INSN_H_

#include <bit>
#include <cstdint>
#include <string>

namespace kflex {

// ---- Registers -------------------------------------------------------------

// R0: return value / scratch. R1-R5: arguments, caller-saved. R6-R9:
// callee-saved. R10: read-only frame pointer. R11 (AX) is reserved for the
// instrumentation engine; user programs naming it are rejected by the
// verifier, mirroring how the x86 JIT reserves R9/R12 for the SFI mask and
// heap base (§4.2).
enum Reg : uint8_t {
  R0 = 0,
  R1,
  R2,
  R3,
  R4,
  R5,
  R6,
  R7,
  R8,
  R9,
  R10,
  RAX = 11,  // Kie scratch register (address sanitization).
  RBX = 12,  // Second Kie scratch (translate-on-store combined with a guard).
};

inline constexpr int kNumRegs = 13;
inline constexpr int kMaxUserReg = 10;   // R10 is the highest user-visible register.
inline constexpr int kStackSize = 512;   // Bytes of extension stack frame.

// ---- Opcode fields ----------------------------------------------------------

// Instruction classes (low 3 bits of the opcode).
inline constexpr uint8_t BPF_LD = 0x00;
inline constexpr uint8_t BPF_LDX = 0x01;
inline constexpr uint8_t BPF_ST = 0x02;
inline constexpr uint8_t BPF_STX = 0x03;
inline constexpr uint8_t BPF_ALU = 0x04;  // 32-bit ALU.
inline constexpr uint8_t BPF_JMP = 0x05;
inline constexpr uint8_t BPF_JMP32 = 0x06;
inline constexpr uint8_t BPF_ALU64 = 0x07;

// Size field for memory instructions (bits 3-4).
enum MemSize : uint8_t {
  BPF_W = 0x00,   // 4 bytes
  BPF_H = 0x08,   // 2 bytes
  BPF_B = 0x10,   // 1 byte
  BPF_DW = 0x18,  // 8 bytes
};

// Mode field for load/store instructions (bits 5-7).
inline constexpr uint8_t BPF_IMM = 0x00;
inline constexpr uint8_t BPF_MEM = 0x60;
inline constexpr uint8_t BPF_ATOMIC = 0xC0;

// Source operand flag (bit 3) for ALU/JMP.
inline constexpr uint8_t BPF_K = 0x00;  // use 32-bit immediate
inline constexpr uint8_t BPF_X = 0x08;  // use src register

// ALU operations (bits 4-7).
enum AluOp : uint8_t {
  BPF_ADD = 0x00,
  BPF_SUB = 0x10,
  BPF_MUL = 0x20,
  BPF_DIV = 0x30,
  BPF_OR = 0x40,
  BPF_AND = 0x50,
  BPF_LSH = 0x60,
  BPF_RSH = 0x70,
  BPF_NEG = 0x80,
  BPF_MOD = 0x90,
  BPF_XOR = 0xA0,
  BPF_MOV = 0xB0,
  BPF_ARSH = 0xC0,
};

// Jump operations (bits 4-7).
enum JmpOp : uint8_t {
  BPF_JA = 0x00,
  BPF_JEQ = 0x10,
  BPF_JGT = 0x20,
  BPF_JGE = 0x30,
  BPF_JSET = 0x40,
  BPF_JNE = 0x50,
  BPF_JSGT = 0x60,
  BPF_JSGE = 0x70,
  BPF_CALL = 0x80,
  BPF_EXIT = 0x90,
  BPF_JLT = 0xA0,
  BPF_JLE = 0xB0,
  BPF_JSLT = 0xC0,
  BPF_JSLE = 0xD0,
};

// Atomic operation encodings carried in the immediate of
// BPF_STX | BPF_ATOMIC instructions.
inline constexpr int32_t BPF_ATOMIC_ADD = 0x00;
inline constexpr int32_t BPF_ATOMIC_FETCH = 0x01;  // OR-ed flag: fetch old value.
inline constexpr int32_t BPF_ATOMIC_XCHG = 0xE1;
inline constexpr int32_t BPF_ATOMIC_CMPXCHG = 0xF1;

// Pseudo source-register values for BPF_LD | BPF_IMM | BPF_DW, mirroring
// BPF_PSEUDO_MAP_FD et al. in the kernel.
enum LdImmPseudo : uint8_t {
  kPseudoNone = 0,
  // imm64 is an offset into the extension heap; the verifier types the
  // destination register PTR_TO_HEAP. This is how heap globals (list heads,
  // locks, bucket arrays) declared by kflex_heap() are addressed.
  kPseudoHeapVar = 1,
  // imm64 is a map id; destination typed CONST_PTR_TO_MAP.
  kPseudoMapId = 2,
};

// ---- Instruction -------------------------------------------------------------

struct Insn {
  uint8_t opcode = 0;
  uint8_t dst = 0;  // 4 bits in the wire format.
  uint8_t src = 0;  // 4 bits in the wire format.
  int16_t off = 0;
  int32_t imm = 0;

  uint8_t Class() const { return opcode & 0x07; }
  uint8_t SizeField() const { return opcode & 0x18; }
  uint8_t ModeField() const { return opcode & 0xE0; }
  uint8_t AluOpField() const { return opcode & 0xF0; }
  uint8_t SrcField() const { return opcode & 0x08; }

  bool IsAlu() const { return Class() == BPF_ALU || Class() == BPF_ALU64; }
  bool IsJmp() const { return Class() == BPF_JMP || Class() == BPF_JMP32; }
  bool IsLdImm64() const { return opcode == (BPF_LD | BPF_IMM | BPF_DW); }
  bool IsLoad() const { return Class() == BPF_LDX && ModeField() == BPF_MEM; }
  bool IsStore() const {
    return (Class() == BPF_ST || Class() == BPF_STX) && ModeField() == BPF_MEM;
  }
  bool IsAtomic() const { return Class() == BPF_STX && ModeField() == BPF_ATOMIC; }
  bool IsCall() const { return Class() == BPF_JMP && AluOpField() == BPF_CALL; }
  bool IsExit() const { return Class() == BPF_JMP && AluOpField() == BPF_EXIT; }
  bool IsUncondJmp() const { return Class() == BPF_JMP && AluOpField() == BPF_JA; }
  bool IsCondJmp() const {
    if (!IsJmp()) {
      return false;
    }
    uint8_t op = AluOpField();
    return op != BPF_JA && op != BPF_CALL && op != BPF_EXIT;
  }

  // Access width in bytes for memory instructions.
  int AccessSize() const {
    switch (SizeField()) {
      case BPF_B:
        return 1;
      case BPF_H:
        return 2;
      case BPF_W:
        return 4;
      case BPF_DW:
        return 8;
    }
    return 0;
  }

  bool operator==(const Insn& other) const = default;
};

// ---- Constructors ------------------------------------------------------------

inline Insn AluRegInsn(AluOp op, Reg dst, Reg src, bool is64 = true) {
  return Insn{static_cast<uint8_t>((is64 ? BPF_ALU64 : BPF_ALU) | BPF_X | op), dst, src, 0, 0};
}
inline Insn AluImmInsn(AluOp op, Reg dst, int32_t imm, bool is64 = true) {
  return Insn{static_cast<uint8_t>((is64 ? BPF_ALU64 : BPF_ALU) | BPF_K | op), dst, 0, 0, imm};
}
inline Insn MovRegInsn(Reg dst, Reg src, bool is64 = true) {
  return AluRegInsn(BPF_MOV, dst, src, is64);
}
inline Insn MovImmInsn(Reg dst, int32_t imm, bool is64 = true) {
  return AluImmInsn(BPF_MOV, dst, imm, is64);
}
inline Insn NegInsn(Reg dst, bool is64 = true) {
  return Insn{static_cast<uint8_t>((is64 ? BPF_ALU64 : BPF_ALU) | BPF_NEG), dst, 0, 0, 0};
}

// Memory: LDX dst = *(size*)(src + off)
inline Insn LdxInsn(MemSize size, Reg dst, Reg src, int16_t off) {
  return Insn{static_cast<uint8_t>(BPF_LDX | BPF_MEM | size), dst, src, off, 0};
}
// STX *(size*)(dst + off) = src
inline Insn StxInsn(MemSize size, Reg dst, int16_t off, Reg src) {
  return Insn{static_cast<uint8_t>(BPF_STX | BPF_MEM | size), dst, src, off, 0};
}
// ST *(size*)(dst + off) = imm
inline Insn StImmInsn(MemSize size, Reg dst, int16_t off, int32_t imm) {
  return Insn{static_cast<uint8_t>(BPF_ST | BPF_MEM | size), dst, 0, off, imm};
}
// Atomic: *(size*)(dst + off) op= src (optionally fetching old value into src).
inline Insn AtomicInsn(MemSize size, Reg dst, int16_t off, Reg src, int32_t atomic_op) {
  return Insn{static_cast<uint8_t>(BPF_STX | BPF_ATOMIC | size), dst, src, off, atomic_op};
}

// LD_IMM64: returns the first of two slots; the second is LdImm64Hi.
inline Insn LdImm64Insn(Reg dst, uint64_t imm, LdImmPseudo pseudo = kPseudoNone) {
  return Insn{static_cast<uint8_t>(BPF_LD | BPF_IMM | BPF_DW), dst,
              static_cast<uint8_t>(pseudo), 0, static_cast<int32_t>(imm & 0xFFFFFFFFULL)};
}
inline Insn LdImm64HiInsn(uint64_t imm) {
  return Insn{0, 0, 0, 0, static_cast<int32_t>(imm >> 32)};
}

inline Insn JmpAlwaysInsn(int16_t off) {
  return Insn{static_cast<uint8_t>(BPF_JMP | BPF_JA), 0, 0, off, 0};
}
inline Insn JmpImmInsn(JmpOp op, Reg dst, int32_t imm, int16_t off, bool is64 = true) {
  return Insn{static_cast<uint8_t>((is64 ? BPF_JMP : BPF_JMP32) | BPF_K | op), dst, 0, off, imm};
}
inline Insn JmpRegInsn(JmpOp op, Reg dst, Reg src, int16_t off, bool is64 = true) {
  return Insn{static_cast<uint8_t>((is64 ? BPF_JMP : BPF_JMP32) | BPF_X | op), dst, src, off, 0};
}
inline Insn CallInsn(int32_t helper_id) {
  return Insn{static_cast<uint8_t>(BPF_JMP | BPF_CALL), 0, 0, 0, helper_id};
}
inline Insn ExitInsn() { return Insn{static_cast<uint8_t>(BPF_JMP | BPF_EXIT), 0, 0, 0, 0}; }

// Reads the full 64-bit immediate from an LD_IMM64 pair.
inline uint64_t LdImm64Value(const Insn& lo, const Insn& hi) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(hi.imm)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(lo.imm));
}

// Human-readable rendering of one instruction (for diagnostics and tests).
std::string InsnToString(const Insn& insn);

// ---- Kie instrumentation pseudo-instructions ---------------------------------
// Encoded in otherwise-unused LD-class opcodes; emitted only by the Kie
// instrumentation engine (src/kie) and executed only by the KFlex-extended VM.
// The encodings live here, at the ISA layer, so the disassembler can name
// them without depending on Kie.
//
//   SANITIZE dst: dst = heap_kernel_base + (dst & (heap_size - 1))
//   TRANSLATE dst: dst = heap_user_base + (dst & (heap_size - 1))
//   FUELCHECK: trap when the invocation exceeded its cycle quantum
inline constexpr uint8_t kKieSanitizeOpcode = BPF_LD | BPF_DW | 0x20;   // 0x38
inline constexpr uint8_t kKieTranslateOpcode = BPF_LD | BPF_DW | 0x40;  // 0x58
inline constexpr uint8_t kKieFuelCheckOpcode = BPF_LD | BPF_DW | 0x60;  // 0x78

inline Insn KieSanitizeInsn(Reg dst) { return Insn{kKieSanitizeOpcode, dst, 0, 0, 0}; }
inline Insn KieTranslateInsn(Reg dst) { return Insn{kKieTranslateOpcode, dst, 0, 0, 0}; }
inline Insn KieFuelCheckInsn() { return Insn{kKieFuelCheckOpcode, 0, 0, 0, 0}; }

// ---- Register effects ----------------------------------------------------------

// Bit r of a register mask stands for register r.
constexpr uint16_t RegBit(int r) { return static_cast<uint16_t>(1u << r); }

// Calls f(r) for every register r in `mask`, in ascending order.
template <typename F>
void ForEachReg(uint16_t mask, F&& f) {
  for (; mask != 0; mask &= static_cast<uint16_t>(mask - 1)) {
    f(std::countr_zero(mask));
  }
}

// The registers an instruction reads and the registers it writes.
struct RegEffects {
  uint16_t uses = 0;
  uint16_t defs = 0;
};

// The one register def/use model of the ISA: liveness, the optimizer, the
// lint/audit/concurrency analyses, the verifier's atomic results and the JIT
// register allocator all derive their register facts from it. Memory (stack
// slots, heap words) is outside it. Helper calls read the argument registers
// R1-R5 and clobber the caller-saved R0-R5; Kie's SANITIZE/TRANSLATE rewrite
// dst in place; JA, FUELCHECK and an ld_imm64 hi slot touch no register.
inline RegEffects InsnRegEffects(const Insn& insn) {
  const uint16_t dst = RegBit(insn.dst);
  if (insn.IsLdImm64()) {
    return {0, dst};
  }
  if (insn.opcode == kKieSanitizeOpcode || insn.opcode == kKieTranslateOpcode) {
    return {dst, dst};
  }
  // Register operand of ALU and jump instructions (bit 3 of a memory opcode
  // is part of its size field instead).
  const uint16_t operand = insn.SrcField() == BPF_X ? RegBit(insn.src) : 0;
  if (insn.IsAlu()) {
    switch (insn.AluOpField()) {
      case BPF_MOV:
        return {operand, dst};
      case BPF_NEG:
        return {dst, dst};
      default:
        return {static_cast<uint16_t>(dst | operand), dst};
    }
  }
  if (insn.IsLoad()) {
    return {RegBit(insn.src), dst};
  }
  if (insn.IsStore()) {
    return {static_cast<uint16_t>(dst | (insn.Class() == BPF_STX ? RegBit(insn.src) : 0)), 0};
  }
  if (insn.IsAtomic()) {
    // CMPXCHG compares against R0 and loads the old value into it; XCHG and
    // the fetching forms load the old value into src.
    const uint16_t uses = dst | RegBit(insn.src);
    if (insn.imm == BPF_ATOMIC_CMPXCHG) {
      return {static_cast<uint16_t>(uses | RegBit(R0)), RegBit(R0)};
    }
    if (insn.imm == BPF_ATOMIC_XCHG || (insn.imm & BPF_ATOMIC_FETCH) != 0) {
      return {uses, RegBit(insn.src)};
    }
    return {uses, 0};
  }
  if (insn.IsCall()) {
    return {0x3E, 0x3F};  // uses R1-R5, defines R0-R5
  }
  if (insn.IsExit()) {
    return {RegBit(R0), 0};
  }
  if (insn.IsCondJmp()) {
    return {static_cast<uint16_t>(dst | operand), 0};
  }
  return {};
}

}  // namespace kflex

#endif  // SRC_EBPF_INSN_H_
