// Textual assembly for extensions (.kasm).
//
// KFlex's practicality story is that extensions are just bytecode — any
// toolchain can produce it. Besides the C++ Assembler, this module provides
// a human-writable text format (closely following the kernel's BPF assembly
// style) with a parser, so extensions can be written in an editor and
// loaded by tools/kflex_run without recompiling anything:
//
//   .name   kv_counter
//   .hook   tracepoint
//   .mode   kflex
//   .heap   1048576
//
//   r2 = heap 64             ; address of a heap global
//   r3 = *(u64*)(r2 + 0)
//   r3 += 1
//   *(u64*)(r2 + 0) = r3
//   if r3 > 100 goto saturate
//   r0 = r3
//   exit
//   saturate:
//   r0 = 100
//   exit
//
// Supported statements: `rD = imm|rS|heap OFF|imm64 V|map ID`, compound
// assignments (+= -= *= /= %= &= |= ^= <<= >>= s>>=) with imm or reg,
// `rD = -rD`, loads `rD = *(u8|u16|u32|u64*)(rS + OFF)`, stores
// `*(SZ*)(rD + OFF) = rS|imm`, atomics `lock *(SZ*)(rD + OFF) += rS`,
// `rS = lock_fetch_add|lock_xchg|lock_cmpxchg *(SZ*)(rD + OFF)` (rS supplies
// the operand and receives the old value; cmpxchg compares against r0),
// conditional jumps `if rA OP rB|imm goto LABEL` with
// == != > >= < <= s> s>= s< s<= &, `goto LABEL`, `call ID|NAME`, `exit`,
// labels (`name:`), comments (`;` to end of line). 32-bit ALU and JMP32
// forms use `wN` registers in place of `rN`: `w2 += 5`, `w3 = w4`,
// `w2 = -w2`, `if w1 == 7 goto out`.
//
// This grammar is the only text form of bytecode: the parser, the writer and
// the listing read one token table. The listing (ProgramToString, behind
// `kflex_run --dump`, `kflex-lint --opt-report` and test diagnostics) is the
// writer's text with each statement's pc as a trailing comment, so it parses
// back to the same instructions. It also renders what the grammar cannot
// express, in forms only a listing shows:
//   sanitize rN / translate rN   Kie's heap-address rewrites of rN
//   fuelcheck                    Kie's cancellation fuel check
//   r11, r12                     Kie's reserved scratch registers
//   goto +N                      a jump with no label (InsnToString, or a
//                                target that is not an instruction)
//   raw op=0xOP dst=D src=S off=O imm=I   any other encoding
#ifndef SRC_EBPF_TEXT_ASM_H_
#define SRC_EBPF_TEXT_ASM_H_

#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/ebpf/program.h"

namespace kflex {

// Parses a .kasm source into a Program. Errors carry the offending line.
StatusOr<Program> ParseTextProgram(std::string_view source);

// Renders a Program back to parser-compatible .kasm text, synthesizing
// labels (L0, L1, ...) at jump targets. The writer is a fixpoint partner of
// the parser: ParseTextProgram(ProgramToTextAsm(p)) reproduces p's
// instructions exactly, and re-rendering the parsed program reproduces the
// text byte for byte (property-tested over the differential-fuzz corpus by
// asm_roundtrip_test). Fails on any program its text does not parse back
// to: Kie pseudo-instructions, reserved registers, malformed encodings, a
// name that `.name` cannot carry (a ';', a newline, leading blanks).
StatusOr<std::string> ProgramToTextAsm(const Program& program);

// The listing of a program: never fails. For every program ProgramToTextAsm
// accepts, ParseTextProgram(ProgramToString(p)) reproduces p's instructions.
std::string ProgramToString(const Program& program);

// One statement of the listing, without labels (a jump shows its offset).
std::string InsnToString(const Insn& insn);

// The `.hook` name of `hook`.
const char* HookName(Hook hook);

}  // namespace kflex

#endif  // SRC_EBPF_TEXT_ASM_H_
