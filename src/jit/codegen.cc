#include "src/jit/codegen.h"

#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "src/ebpf/helper_ids.h"
#include "src/jit/regalloc.h"
#include "src/jit/trampoline.h"
#include "src/kie/kie.h"
#include "src/obs/obs.h"
#include "src/runtime/maps.h"
#include "src/verifier/analysis.h"

namespace kflex {

const char* ExecEngineName(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::kInterp:
      return "interp";
    case ExecEngine::kJit:
      return "jit";
    case ExecEngine::kJit2:
      return "jit2";
  }
  return "?";
}

bool JitHostSupported() {
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return true;
#else
  return false;
#endif
}

#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))

namespace {

// Host register encodings.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4, kRbp = 5,
              kRsi = 6, kRdi = 7, kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11,
              kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15;

// Bytecode register → host register. R10 is a compile-time constant
// (kStackRegion + kStackSize, never written by verified code), RAX (the
// Kie/optimizer SFI scratch) gets the paper's r9, RBX spills to env->regs[12]
// memory. r12 is pinned to the sanitized heap base; rbp holds JitState*;
// r10/r11 are emitter temporaries.
constexpr int kHostOf[kNumRegs] = {
    kRax,  // R0
    kRdi,  // R1
    kRsi,  // R2
    kRdx,  // R3
    kRcx,  // R4
    kR8,   // R5
    kRbx,  // R6
    kR13,  // R7
    kR14,  // R8
    kR15,  // R9
    -1,    // R10 (frame pointer: compile-time constant)
    kR9,   // RAX scratch (paper's r9)
    -1,    // RBX scratch (memory-backed)
};

constexpr uint64_t kStackTopVa = kStackRegion + kStackSize;
constexpr int kRegsSlotRbx = static_cast<int>(RBX) * 8;

// VM registers that live in a host register (everything except R10 and RBX),
// and the subset whose host register the C ABI lets a callout clobber
// (R0-R5 → rax/rdi/rsi/rdx/rcx/r8, RAX scratch → r9). R6-R9 sit in
// callee-saved rbx/r13/r14/r15 and survive callouts untouched.
constexpr uint32_t kMappedMask = 0x0BFF;
constexpr uint32_t kCallerSavedVm = 0x083F;
constexpr int kNumMappedHost = 11;

// JitState field offsets (pinned by static_asserts in trampoline.h).
constexpr int32_t kOffRegs = 0, kOffStack = 8, kOffCtx = 16, kOffCtxSize = 24,
                  kOffHeapHost = 32, kOffPresent = 40, kOffHeapBase = 48,
                  kOffInsnCount = 56, kOffInstrCount = 64, kOffFuel = 72,
                  kOffCancel = 80, kOffBudget = 88, kOffRet = 96,
                  kOffExit = 104, kOffFaultKind = 108, kOffFaultPc = 112,
                  kOffFaultVa = 120, kOffSlowFlags = 144;

// Condition codes (second opcode byte of jcc rel32).
constexpr uint8_t kCcB = 0x82, kCcAe = 0x83, kCcE = 0x84, kCcNe = 0x85,
                  kCcBe = 0x86, kCcA = 0x87, kCcL = 0x8C, kCcGe = 0x8D,
                  kCcLe = 0x8E, kCcG = 0x8F;

struct Label {
  int64_t pos = -1;
  std::vector<size_t> refs;  // rel32 fixup positions
};

// Minimal x86-64 assembler over a byte vector. Memory operands always use
// mod=10 (disp32) addressing — simplicity over density; template JITs trade
// code size for compile speed.
class Asm {
 public:
  std::vector<uint8_t> buf;

  size_t size() const { return buf.size(); }
  void u8(uint8_t v) { buf.push_back(v); }
  void u16(uint16_t v) {
    u8(static_cast<uint8_t>(v));
    u8(static_cast<uint8_t>(v >> 8));
  }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; i++) u8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; i++) u8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void Rex(bool w, int reg, int rm, bool force = false) {
    uint8_t rex = 0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3);
    if (rex != 0x40 || force) u8(rex);
  }
  void ModRM(int mod, int reg, int rm) {
    u8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  // [base + disp32]; SIB escape when base is rsp/r12-encoded.
  void MemOp(int reg, int base, int32_t disp) {
    ModRM(2, reg, base);
    if ((base & 7) == 4) u8(0x24);
    u32(static_cast<uint32_t>(disp));
  }

  void MovRR(int dst, int src, bool w) {
    Rex(w, src, dst);
    u8(0x89);
    ModRM(3, src, dst);
  }
  void MovRI64(int dst, uint64_t imm) {
    if (imm <= 0xFFFFFFFFull) {
      Rex(false, 0, dst);
      u8(0xB8 + (dst & 7));
      u32(static_cast<uint32_t>(imm));
    } else if (static_cast<int64_t>(imm) == static_cast<int32_t>(imm)) {
      Rex(true, 0, dst);
      u8(0xC7);
      ModRM(3, 0, dst);
      u32(static_cast<uint32_t>(imm));
    } else {
      Rex(true, 0, dst);
      u8(0xB8 + (dst & 7));
      u64(imm);
    }
  }
  void MovRI32(int dst, uint32_t imm) {  // zero-extends
    Rex(false, 0, dst);
    u8(0xB8 + (dst & 7));
    u32(imm);
  }
  void MovRI32s(int dst, int32_t imm) {  // sign-extends to 64
    Rex(true, 0, dst);
    u8(0xC7);
    ModRM(3, 0, dst);
    u32(static_cast<uint32_t>(imm));
  }

  // op r/m(dst), reg(src): add 01, or 09, and 21, sub 29, xor 31, cmp 39,
  // test 85.
  void AluRR(uint8_t opc, int dst, int src, bool w) {
    Rex(w, src, dst);
    u8(opc);
    ModRM(3, src, dst);
  }
  // 81 /ext: add 0, or 1, and 4, sub 5, xor 6, cmp 7 (imm32, sign-extended
  // when w).
  void AluRI(int ext, int dst, int32_t imm, bool w) {
    Rex(w, 0, dst);
    u8(0x81);
    ModRM(3, ext, dst);
    u32(static_cast<uint32_t>(imm));
  }
  void TestRI(int r, int32_t imm, bool w) {
    Rex(w, 0, r);
    u8(0xF7);
    ModRM(3, 0, r);
    u32(static_cast<uint32_t>(imm));
  }
  // reg(dst) ← reg OP [base+disp]: add 03, mov(load) 8B.
  void AluRM(uint8_t opc, int dst, int base, int32_t disp, bool w) {
    Rex(w, dst, base);
    u8(opc);
    MemOp(dst, base, disp);
  }
  void ImulRR(int dst, int src, bool w) {
    Rex(w, dst, src);
    u8(0x0F);
    u8(0xAF);
    ModRM(3, dst, src);
  }
  void Neg(int r, bool w) {
    Rex(w, 0, r);
    u8(0xF7);
    ModRM(3, 3, r);
  }
  void ShiftCl(int ext, int r, bool w) {  // shl 4, shr 5, sar 7
    Rex(w, 0, r);
    u8(0xD3);
    ModRM(3, ext, r);
  }
  void ShiftImm(int ext, int r, int imm, bool w) {
    Rex(w, 0, r);
    u8(0xC1);
    ModRM(3, ext, r);
    u8(static_cast<uint8_t>(imm));
  }
  void DivR(int r, bool w) {  // unsigned rdx:rax / r
    Rex(w, 0, r);
    u8(0xF7);
    ModRM(3, 6, r);
  }

  void LoadMem(int sz, int dst, int base, int32_t disp) {
    switch (sz) {
      case 1:
        Rex(false, dst, base);
        u8(0x0F);
        u8(0xB6);
        break;
      case 2:
        Rex(false, dst, base);
        u8(0x0F);
        u8(0xB7);
        break;
      case 4:
        Rex(false, dst, base);
        u8(0x8B);
        break;
      default:
        Rex(true, dst, base);
        u8(0x8B);
        break;
    }
    MemOp(dst, base, disp);
  }
  void StoreMemR(int sz, int base, int32_t disp, int src) {
    switch (sz) {
      case 1:
        // sil/dil need a REX prefix even without extension bits.
        Rex(false, src, base, /*force=*/src >= 4 && src <= 7);
        u8(0x88);
        break;
      case 2:
        u8(0x66);
        Rex(false, src, base);
        u8(0x89);
        break;
      case 4:
        Rex(false, src, base);
        u8(0x89);
        break;
      default:
        Rex(true, src, base);
        u8(0x89);
        break;
    }
    MemOp(src, base, disp);
  }
  void StoreMemI(int sz, int base, int32_t disp, int64_t imm) {
    switch (sz) {
      case 1:
        Rex(false, 0, base);
        u8(0xC6);
        MemOp(0, base, disp);
        u8(static_cast<uint8_t>(imm));
        break;
      case 2:
        u8(0x66);
        Rex(false, 0, base);
        u8(0xC7);
        MemOp(0, base, disp);
        u16(static_cast<uint16_t>(imm));
        break;
      case 4:
        Rex(false, 0, base);
        u8(0xC7);
        MemOp(0, base, disp);
        u32(static_cast<uint32_t>(imm));
        break;
      default:
        Rex(true, 0, base);
        u8(0xC7);
        MemOp(0, base, disp);
        u32(static_cast<uint32_t>(imm));  // sign-extended by hardware
        break;
    }
  }
  void Lea(int dst, int base, int32_t disp) {
    Rex(true, dst, base);
    u8(0x8D);
    MemOp(dst, base, disp);
  }
  void LoadRbp(int dst, int32_t disp) { LoadMem(8, dst, kRbp, disp); }
  void StoreRbp(int32_t disp, int src) { StoreMemR(8, kRbp, disp, src); }
  void AddMemI32(int32_t disp, int32_t imm) {  // add qword [rbp+disp], imm32
    Rex(true, 0, kRbp);
    u8(0x81);
    MemOp(0, kRbp, disp);
    u32(static_cast<uint32_t>(imm));
  }
  void SubMemI32(int32_t disp, int32_t imm) {
    Rex(true, 0, kRbp);
    u8(0x81);
    MemOp(5, kRbp, disp);
    u32(static_cast<uint32_t>(imm));
  }
  void MovMem32I(int32_t disp, int32_t imm) {  // mov dword [rbp+disp], imm
    Rex(false, 0, kRbp);
    u8(0xC7);
    MemOp(0, kRbp, disp);
    u32(static_cast<uint32_t>(imm));
  }
  void MovMem64I(int32_t disp, int32_t imm) {  // sign-extended qword store
    Rex(true, 0, kRbp);
    u8(0xC7);
    MemOp(0, kRbp, disp);
    u32(static_cast<uint32_t>(imm));
  }
  void CmpMem8I(int base, int32_t disp, uint8_t imm) {
    Rex(false, 7, base);
    u8(0x80);
    MemOp(7, base, disp);
    u8(imm);
  }
  void Push(int r) {
    if (r >= 8) u8(0x41);
    u8(0x50 + (r & 7));
  }
  void Pop(int r) {
    if (r >= 8) u8(0x41);
    u8(0x58 + (r & 7));
  }
  void CallR(int r) {
    Rex(false, 0, r);
    u8(0xFF);
    ModRM(3, 2, r);
  }
  void Ret() { u8(0xC3); }
  void Lock() { u8(0xF0); }
  void Xadd(bool w, int base, int32_t disp, int src) {
    Lock();
    Rex(w, src, base);
    u8(0x0F);
    u8(0xC1);
    MemOp(src, base, disp);
  }
  void XchgM(bool w, int base, int32_t disp, int src) {  // implicitly locked
    Rex(w, src, base);
    u8(0x87);
    MemOp(src, base, disp);
  }
  void AddM(bool w, int base, int32_t disp, int src) {
    Lock();
    Rex(w, src, base);
    u8(0x01);
    MemOp(src, base, disp);
  }
  void CmpxchgM(bool w, int base, int32_t disp, int src) {
    Lock();
    Rex(w, src, base);
    u8(0x0F);
    u8(0xB1);
    MemOp(src, base, disp);
  }

  size_t Jcc(uint8_t cc) {  // returns rel32 fixup position
    u8(0x0F);
    u8(cc);
    u32(0);
    return size() - 4;
  }
  size_t Jmp() {
    u8(0xE9);
    u32(0);
    return size() - 4;
  }
  void Patch(size_t pos, size_t target) {
    int64_t rel = static_cast<int64_t>(target) - static_cast<int64_t>(pos + 4);
    uint32_t v = static_cast<uint32_t>(static_cast<int32_t>(rel));
    std::memcpy(&buf[pos], &v, 4);
  }
  void JccTo(uint8_t cc, Label& l) {
    size_t p = Jcc(cc);
    if (l.pos >= 0) {
      Patch(p, static_cast<size_t>(l.pos));
    } else {
      l.refs.push_back(p);
    }
  }
  void JmpTo(Label& l) {
    size_t p = Jmp();
    if (l.pos >= 0) {
      Patch(p, static_cast<size_t>(l.pos));
    } else {
      l.refs.push_back(p);
    }
  }
  void Bind(Label& l) {
    l.pos = static_cast<int64_t>(size());
    for (size_t p : l.refs) Patch(p, size());
    l.refs.clear();
  }
};

class Compiler {
 public:
  Compiler(const InstrumentedProgram& ip, const JitOptions& opts,
           const JitCompileEnv& env, JitProgram* out)
      : ip_(ip),
        insns_(ip.program.insns),
        mask_(ip.instrumentation_mask),
        hints_(ip.region_hints),
        heap_(ip.heap),
        opts_(opts),
        env_(env),
        out_(out) {}

  // Empty string on success; otherwise the fallback reason.
  std::string Compile() {
    if (opts_.force_fallback) return "forced fallback (test hook)";
    size_t n = insns_.size();
    if (n == 0) return "empty program";
    if (heap_.size > (1ull << 31)) {
      return "heap too large for imm32 SFI bounds";
    }
    std::string err = Prescan();
    if (!err.empty()) return err;
    if (opts_.v2) {
      // Analysis failure degrades to plain v1 emission — an analyzable
      // program never falls back to the interpreter because of v2.
      StatusOr<RegAllocInfo> ra = ComputeRegAlloc(ip_);
      if (ra.ok() && ra->live_in.size() == n) {
        ra_ = std::move(*ra);
        ra_ok_ = true;
        BuildV2Plans();
      }
    }

    pc_off_.assign(n + 1, 0);
    EmitPrologue();
    for (size_t pc = 0; pc < n; pc++) {
      if (hi_slot_[pc]) continue;
      if (is_target_[pc]) FlushCounts();
      auto plan_it = plan_at_head_.find(pc);
      if (plan_it != plan_at_head_.end()) EmitPreheader(plan_it->second);
      pc_off_[pc] = a_.size();
      if (is_back_target_[pc]) EmitBudgetCheck();
      pending_++;
      if (pc < mask_.size() && mask_[pc] != 0) pending_instr_++;
      // Hoisted MOV+SANITIZE pairs were emitted in their loop's preheader;
      // their in-loop sites still bump the pending counters above so
      // retired-instruction counts stay interpreter-exact.
      if (hoisted_pcs_.count(pc) != 0) continue;
      if (!EmitInsn(pc)) return fallback_;
    }
    // Fell off the end: interpreter faults with pc == n.
    FlushCounts();
    pc_off_[n] = a_.size();
    EmitInlineFault(n, MemFaultKind::kBadAddress);
    EmitTails();
    EmitStubs();
    for (const auto& f : branch_fixups_) {
      size_t off = pc_off_[f.target];
      auto ph = preheader_off_.find(f.target);
      if (ph != preheader_off_.end()) {
        // Entering a planned loop from outside must pass through the
        // preheader; back edges from members skip straight to the head.
        const ActivePlan& ap = plan_at_head_.at(f.target);
        bool from_member =
            f.src < ap.plan->member.size() && ap.plan->member[f.src] != 0;
        if (!from_member) off = ph->second;
      }
      a_.Patch(f.pos, off);
    }

    out_->stats.insns_compiled = n;
    out_->stats.mem_sites = mem_sites_;
    out_->stats.helper_sites = helper_sites_;
    out_->stats.inline_fast_paths = inline_fast_paths_;
    out_->stats.spill_sites = spill_sites_;
    out_->stats.regs_spilled = regs_spilled_;
    out_->stats.regs_reloaded = regs_reloaded_;
    out_->stats.regs_spilled_v1 = regs_spilled_v1_;
    out_->stats.inline_helper_sites = inline_helper_sites_;
    out_->stats.hoisted_guards = hoisted_guards_;
    out_->stats.cached_loops = cached_loops_;
    out_->stats.cached_accesses = cached_accesses_;
    if (opts_.v2 && ra_ok_) {
      out_->stats.interval_regs = ra_.interval_regs;
      out_->stats.interval_pcs = ra_.interval_pcs;
    }
    return "";
  }

  const std::vector<uint8_t>& bytes() const { return a_.buf; }

 private:
  // ---- prescan -----------------------------------------------------------

  std::string Prescan() {
    size_t n = insns_.size();
    hi_slot_.assign(n, 0);
    is_target_.assign(n + 1, 0);
    is_back_target_.assign(n + 1, 0);
    for (size_t pc = 0; pc < n; pc++) {
      const Insn& insn = insns_[pc];
      if (insn.dst >= kNumRegs || insn.src >= kNumRegs) {
        // Only the Kie pseudo-ops and ld_imm64 overload src beyond the
        // register file; those classes never reach here with src >= 13
        // except ld_imm64 pseudo kinds, which are fine.
        if (!(insn.Class() == BPF_LD) || insn.dst >= kNumRegs) {
          return "register index out of range";
        }
      }
      if (insn.IsLdImm64()) {
        if (pc + 1 >= n) return "truncated ld_imm64";
        hi_slot_[pc + 1] = 1;
        pc++;
        continue;
      }
      uint8_t cls = insn.Class();
      if (cls != BPF_JMP && cls != BPF_JMP32) continue;
      uint8_t op = insn.AluOpField();
      if (op == BPF_CALL || op == BPF_EXIT) continue;
      bool known = op == BPF_JA || op == BPF_JEQ || op == BPF_JNE ||
                   op == BPF_JGT || op == BPF_JGE || op == BPF_JLT ||
                   op == BPF_JLE || op == BPF_JSET || op == BPF_JSGT ||
                   op == BPF_JSGE || op == BPF_JSLT || op == BPF_JSLE;
      if (!known) continue;  // interpreter falls through; no target
      int64_t t = static_cast<int64_t>(pc) + 1 + insn.off;
      if (t < 0 || t > static_cast<int64_t>(n)) {
        return "jump target out of range";
      }
      if (t < static_cast<int64_t>(n) && hi_slot_[t]) {
        return "jump into ld_imm64 pair";
      }
      is_target_[t] = 1;
      if (t <= static_cast<int64_t>(pc)) is_back_target_[t] = 1;
    }
    return "";
  }

  uint8_t Hint(size_t pc) const {
    return pc < hints_.size() ? hints_[pc] : 0;
  }

  // ---- counters ----------------------------------------------------------

  void FlushCounts() {
    if (pending_ != 0) {
      a_.AddMemI32(kOffInsnCount, static_cast<int32_t>(pending_));
      pending_ = 0;
    }
    if (pending_instr_ != 0) {
      a_.AddMemI32(kOffInstrCount, static_cast<int32_t>(pending_instr_));
      pending_instr_ = 0;
    }
  }

  // ---- register file helpers --------------------------------------------

  void SpillAll() {
    a_.LoadRbp(kR11, kOffRegs);
    for (int r = 0; r < kNumRegs; r++) {
      if (kHostOf[r] >= 0) a_.StoreMemR(8, kR11, r * 8, kHostOf[r]);
    }
  }
  void ReloadAll() {
    a_.LoadRbp(kR11, kOffRegs);
    for (int r = 0; r < kNumRegs; r++) {
      if (kHostOf[r] >= 0) a_.LoadMem(8, kHostOf[r], kR11, r * 8);
    }
  }
  void SpillRegs(uint32_t mask) {
    if (mask == 0) return;
    a_.LoadRbp(kR11, kOffRegs);
    for (int r = 0; r < kNumRegs; r++) {
      if ((mask >> r) & 1 && kHostOf[r] >= 0) {
        a_.StoreMemR(8, kR11, r * 8, kHostOf[r]);
      }
    }
  }
  void ReloadRegs(uint32_t mask) {
    if (mask == 0) return;
    a_.LoadRbp(kR11, kOffRegs);
    for (int r = 0; r < kNumRegs; r++) {
      if ((mask >> r) & 1 && kHostOf[r] >= 0) {
        a_.LoadMem(8, kHostOf[r], kR11, r * 8);
      }
    }
  }

  bool UseRegalloc() const { return opts_.v2 && opts_.regalloc && ra_ok_; }

  // Registers to write to env->regs before a callout at `pc`: everything
  // live into the instruction (its own operands plus anything a later path —
  // or the unwinder's object tables — reads). Without regalloc this is the
  // v1 spill-everything contract.
  uint32_t SpillMaskAt(size_t pc) const {
    if (!UseRegalloc()) return kMappedMask;
    return ra_.live_in[pc] & kMappedMask;
  }
  // Registers to reload afterwards: live-out registers whose caller-saved
  // host register the C++ call clobbered, plus whatever the callout wrote to
  // env->regs (`writes`, e.g. a load's destination or a helper's R0).
  // Everything reloaded was either spilled here (live_out \ defs ⊆ live_in)
  // or freshly written by the callout, so host state stays interpreter-exact.
  uint32_t ReloadMaskAt(size_t pc, uint32_t writes) const {
    if (!UseRegalloc()) return kMappedMask;
    return ra_.live_out[pc] & (kCallerSavedVm | writes) & kMappedMask;
  }

  // Value of bytecode register `r`, materializing unmapped registers into
  // `temp` (always a full 64-bit value).
  int GetVal(int r, int temp) {
    if (kHostOf[r] >= 0) return kHostOf[r];
    if (r == R10) {
      a_.MovRI64(temp, kStackTopVa);
      return temp;
    }
    a_.LoadRbp(temp, kOffRegs);
    a_.LoadMem(8, temp, temp, kRegsSlotRbx);
    return temp;
  }

  // Stores `src` (host reg) into memory-backed bytecode register RBX using
  // `temp` for the slot pointer.
  void PutRbx(int src, int temp) {
    a_.LoadRbp(temp, kOffRegs);
    a_.StoreMemR(8, temp, kRegsSlotRbx, src);
  }

  bool Fallback(const char* reason) {
    fallback_ = reason;
    return false;
  }

  // ---- shared emission pieces -------------------------------------------

  void EmitInlineFault(size_t pc, MemFaultKind kind) {
    a_.MovMem32I(kOffExit, static_cast<int32_t>(VmResult::Outcome::kFault));
    a_.MovMem32I(kOffFaultKind, static_cast<int32_t>(kind));
    a_.MovMem64I(kOffFaultPc, static_cast<int32_t>(pc));
    a_.MovMem64I(kOffFaultVa, 0);
    a_.JmpTo(l_sync_);
  }

  void EmitBudgetCheck() {
    // Interpreter checks the budget every instruction; compiled code checks
    // at loop back-edges only (under the runtime the budget is always 0).
    a_.LoadRbp(kR10, kOffBudget);
    a_.AluRR(0x85, kR10, kR10, true);
    Label ok;
    a_.JccTo(kCcE, ok);
    a_.LoadRbp(kR11, kOffInsnCount);
    a_.AluRR(0x39, kR11, kR10, true);  // cmp executed, budget
    a_.JccTo(kCcA, l_budget_);
    a_.Bind(ok);
  }

  // The call proper (registers already spilled): rdi = JitState*, esi = pc.
  void EmitCallBody(void* fn, uint32_t arg) {
    a_.MovRR(kRdi, kRbp, true);
    a_.MovRI32(kRsi, arg);
    a_.MovRI64(kRax, reinterpret_cast<uint64_t>(fn));
    a_.CallR(kRax);
    a_.AluRR(0x85, kRax, kRax, false);  // test eax, eax
    a_.JccTo(kCcNe, l_return_);         // nonzero: fault fields already set
  }

  void EmitCallOut(void* fn, size_t pc, uint32_t writes) {
    uint32_t spill = SpillMaskAt(pc);
    uint32_t reload = ReloadMaskAt(pc, writes);
    spill_sites_++;
    regs_spilled_ += static_cast<uint64_t>(__builtin_popcount(spill));
    regs_reloaded_ += static_cast<uint64_t>(__builtin_popcount(reload));
    regs_spilled_v1_ += kNumMappedHost;
    SpillRegs(spill);
    EmitCallBody(fn, static_cast<uint32_t>(pc));
    ReloadRegs(reload);
  }

  // ---- top-level per-instruction dispatch -------------------------------

  bool EmitInsn(size_t pc) {
    const Insn& insn = insns_[pc];
    switch (insn.Class()) {
      case BPF_ALU64:
      case BPF_ALU:
        return EmitAlu(pc);
      case BPF_LD:
        return EmitLd(pc);
      case BPF_LDX:
      case BPF_ST:
      case BPF_STX:
        return EmitMem(pc), true;
      case BPF_JMP:
      case BPF_JMP32:
        return EmitJmp(pc);
      default:
        FlushCounts();
        EmitInlineFault(pc, MemFaultKind::kBadAddress);
        return true;
    }
  }

  // ---- ALU ---------------------------------------------------------------

  bool EmitAlu(size_t pc) {
    const Insn& insn = insns_[pc];
    bool is64 = insn.Class() == BPF_ALU64;
    uint8_t op = insn.AluOpField();
    if (op == BPF_MOV) return EmitMov(insn, is64);
    if (insn.dst == R10) return Fallback("ALU write to frame pointer");
    if (insn.dst == RBX) return Fallback("non-MOV ALU on memory-backed RBX");
    int d = kHostOf[insn.dst];

    if (op == BPF_NEG) {
      a_.Neg(d, is64);  // neg r32 zero-extends on x86-64
      return true;
    }
    if (op == BPF_DIV || op == BPF_MOD) {
      EmitDivMod(insn, d, is64, op == BPF_MOD);
      return true;
    }
    if (op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) {
      EmitShift(insn, d, is64);
      return true;
    }

    bool from_reg = insn.SrcField() == BPF_X;
    uint8_t rr = 0;
    int ext = -1;
    switch (op) {
      case BPF_ADD:
        rr = 0x01;
        ext = 0;
        break;
      case BPF_SUB:
        rr = 0x29;
        ext = 5;
        break;
      case BPF_OR:
        rr = 0x09;
        ext = 1;
        break;
      case BPF_AND:
        rr = 0x21;
        ext = 4;
        break;
      case BPF_XOR:
        rr = 0x31;
        ext = 6;
        break;
      case BPF_MUL:
        if (from_reg) {
          int s = GetVal(insn.src, kR10);
          a_.ImulRR(d, s, is64);
        } else {
          a_.MovRI32s(kR10, insn.imm);  // imm semantics match interp casts
          a_.ImulRR(d, kR10, is64);
        }
        return true;
      default:
        // Unknown ALU op: AluEval returns 0 → dst = 0 (32-bit zero-extends
        // too, so one xor covers both widths).
        a_.AluRR(0x31, d, d, false);
        return true;
    }
    if (from_reg) {
      int s = GetVal(insn.src, kR10);
      a_.AluRR(rr, d, s, is64);
    } else {
      a_.AluRI(ext, d, insn.imm, is64);
    }
    return true;
  }

  bool EmitMov(const Insn& insn, bool is64) {
    if (insn.dst == R10) return Fallback("MOV to frame pointer");
    bool from_reg = insn.SrcField() == BPF_X;
    if (insn.dst == RBX) {
      if (from_reg) {
        int s = GetVal(insn.src, kR10);
        a_.MovRR(kR10, s, is64);  // 32-bit form zero-extends
      } else if (is64) {
        a_.MovRI32s(kR10, insn.imm);
      } else {
        a_.MovRI32(kR10, static_cast<uint32_t>(insn.imm));
      }
      PutRbx(kR10, kR11);
      return true;
    }
    int d = kHostOf[insn.dst];
    if (from_reg) {
      if (kHostOf[insn.src] >= 0) {
        a_.MovRR(d, kHostOf[insn.src], is64);
      } else {
        GetVal(insn.src, d);  // materializes directly into d
        if (!is64) a_.MovRR(d, d, false);
      }
    } else if (is64) {
      a_.MovRI32s(d, insn.imm);
    } else {
      a_.MovRI32(d, static_cast<uint32_t>(insn.imm));
    }
    return true;
  }

  void EmitShift(const Insn& insn, int d, bool is64) {
    uint8_t op = insn.AluOpField();
    int ext = op == BPF_LSH ? 4 : (op == BPF_RSH ? 5 : 7);
    if (insn.SrcField() != BPF_X) {
      int m = insn.imm & (is64 ? 63 : 31);
      if (m != 0) a_.ShiftImm(ext, d, m, is64);
      // 32-bit shifts must zero-extend even for count 0 (x86 shift-by-0
      // does not write the destination).
      if (!is64) a_.MovRR(d, d, false);
      return;
    }
    int s = GetVal(insn.src, kR11);
    // x86 shifts only take CL; juggle around whichever of d/s is rcx.
    if (d == kRcx) {
      a_.MovRR(kR10, kRcx, true);
      if (s != kRcx) a_.MovRR(kRcx, s, true);
      a_.ShiftCl(ext, kR10, is64);
      a_.MovRR(kRcx, kR10, true);
      if (!is64) a_.MovRR(kRcx, kRcx, false);
      return;
    }
    if (s == kRcx) {
      a_.ShiftCl(ext, d, is64);
    } else {
      a_.MovRR(kR10, kRcx, true);
      a_.MovRR(kRcx, s, true);
      a_.ShiftCl(ext, d, is64);
      a_.MovRR(kRcx, kR10, true);
    }
    if (!is64) a_.MovRR(d, d, false);
  }

  void EmitDivMod(const Insn& insn, int d, bool is64, bool is_mod) {
    bool from_reg = insn.SrcField() == BPF_X;
    if (!from_reg && insn.imm == 0) {
      // Compile-time zero divisor: div → 0, mod → dividend (32-bit
      // truncated).
      if (!is_mod) {
        a_.AluRR(0x31, d, d, false);
      } else if (!is64) {
        a_.MovRR(d, d, false);
      }
      return;
    }
    // Divisor into r10 before any clobbering.
    if (from_reg) {
      int s = GetVal(insn.src, kR10);
      if (s != kR10) a_.MovRR(kR10, s, true);
    } else if (is64) {
      a_.MovRI32s(kR10, insn.imm);
    } else {
      a_.MovRI32(kR10, static_cast<uint32_t>(insn.imm));
    }
    Label done, nonzero;
    if (from_reg) {
      a_.AluRR(0x85, kR10, kR10, is64);
      a_.JccTo(kCcNe, nonzero);
      if (!is_mod) {
        a_.AluRR(0x31, d, d, false);
      } else if (!is64) {
        a_.MovRR(d, d, false);
      }
      a_.JmpTo(done);
      a_.Bind(nonzero);
    }
    a_.MovRR(kR11, kRax, true);  // save R0
    a_.Push(kRdx);               // save R3
    if (d != kRax) {
      a_.MovRR(kRax, d, is64);  // 32-bit mov zero-extends the dividend
    } else if (!is64) {
      a_.MovRR(kRax, kRax, false);
    }
    a_.AluRR(0x31, kRdx, kRdx, false);  // xor edx, edx
    a_.DivR(kR10, is64);
    a_.MovRR(kR10, is_mod ? kRdx : kRax, true);  // 32-bit results already
                                                 // zero-extended by div
    a_.Pop(kRdx);
    a_.MovRR(kRax, kR11, true);
    a_.MovRR(d, kR10, true);
    a_.Bind(done);
  }

  // ---- LD class (ld_imm64 + Kie pseudo-instructions) --------------------

  bool EmitLd(size_t pc) {
    const Insn& insn = insns_[pc];
    if (insn.IsLdImm64()) {
      uint64_t imm = LdImm64Value(insn, insns_[pc + 1]);
      uint64_t val;
      if (insn.src == kPseudoMapId) {
        val = MapRegistry::HandleVaForId(static_cast<uint32_t>(imm));
      } else if (insn.src == kPseudoHeapVar) {
        val = (heap_.size != 0 ? heap_.kernel_base : 0) + imm;
      } else {
        val = imm;
      }
      if (insn.dst == R10) return Fallback("ld_imm64 to frame pointer");
      if (insn.dst == RBX) {
        a_.MovRI64(kR10, val);
        PutRbx(kR10, kR11);
      } else {
        a_.MovRI64(kHostOf[insn.dst], val);
      }
      return true;
    }
    if (insn.opcode == kKieFuelCheckOpcode) {
      EmitFuelCheck(pc);
      return true;
    }
    if (insn.opcode == kKieSanitizeOpcode ||
        insn.opcode == kKieTranslateOpcode) {
      return EmitSanitize(pc);
    }
    FlushCounts();
    EmitInlineFault(pc, MemFaultKind::kBadAddress);
    return true;
  }

  void EmitFuelCheck(size_t pc) {
    // Counts include the FUELCHECK itself before comparing, matching the
    // interpreter's executed++-then-test order.
    FlushCounts();
    Label no_fuel, trap, ok;
    a_.LoadRbp(kR10, kOffFuel);
    a_.AluRR(0x85, kR10, kR10, true);
    a_.JccTo(kCcE, no_fuel);
    a_.LoadRbp(kR11, kOffInsnCount);
    a_.AluRR(0x39, kR11, kR10, true);  // cmp executed, fuel_quantum
    a_.JccTo(kCcA, trap);
    a_.Bind(no_fuel);
    a_.LoadRbp(kR10, kOffCancel);
    a_.CmpMem8I(kR10, 0, 0);
    a_.JccTo(kCcE, ok);
    a_.Bind(trap);
    EmitInlineFault(pc, MemFaultKind::kTerminate);
    a_.Bind(ok);
  }

  bool EmitSanitize(size_t pc) {
    const Insn& insn = insns_[pc];
    if (insn.dst == R10) return Fallback("SANITIZE of frame pointer");
    if (heap_.size == 0) {
      FlushCounts();
      EmitInlineFault(pc, MemFaultKind::kBadAddress);
      return true;
    }
    uint64_t base = insn.opcode == kKieSanitizeOpcode ? heap_.kernel_base
                                                      : heap_.user_base;
    int32_t mask = static_cast<int32_t>(heap_.mask());  // size ≤ 2^31
    if (insn.dst == RBX) {
      int v = GetVal(RBX, kR10);
      a_.AluRI(4, v, mask, true);
      a_.MovRI64(kR11, base);
      a_.AluRR(0x01, v, kR11, true);
      PutRbx(v, kR11);
      return true;
    }
    int d = kHostOf[insn.dst];
    a_.AluRI(4, d, mask, true);  // and d, mask (mask < 2^31: positive imm)
    a_.MovRI64(kR10, base);
    a_.AluRR(0x01, d, kR10, true);
    return true;
  }

  // ---- memory accesses ---------------------------------------------------

  struct SlowStub {
    uint32_t pc = 0;
    uint32_t pend = 0;
    uint32_t pend_instr = 0;
    std::vector<size_t> jumps;  // fixups from the fast path's guard jcc's
    size_t resume = 0;          // native offset just past the fast access
  };

  void EmitMem(size_t pc) {
    const Insn& insn = insns_[pc];
    int size = insn.AccessSize();
    bool is_load = insn.Class() == BPF_LDX;
    bool is_atomic = insn.IsAtomic();
    int base = is_load ? insn.src : insn.dst;
    mem_sites_++;

    bool slow_only = !opts_.fast_paths;
    // Register-shape constraints for the inline templates.
    if (is_load && (insn.dst == R10 || insn.dst == RBX)) slow_only = true;
    if (is_atomic &&
        (insn.src == R10 || insn.src == RBX || size < 4)) {
      slow_only = true;
    }

    // Static stack slot through R10: compile-time bounds, no checks at all.
    if (!slow_only && base == R10) {
      int64_t soff = static_cast<int64_t>(kStackSize) + insn.off;
      if (soff >= 0 && soff + size <= static_cast<int64_t>(kStackSize)) {
        inline_fast_paths_++;
        a_.LoadRbp(kR11, kOffStack);
        EmitAccess(insn, kR11, static_cast<int32_t>(soff));
        return;
      }
      slow_only = true;  // out of frame: let the interpreter path fault
    }
    if (base == RBX && is_atomic) slow_only = true;  // keep templates simple

    uint8_t hint = Hint(pc);
    int path = 0;  // 0 slow, 1 heap, 2 stack, 3 ctx
    if (!slow_only) {
      if (hint == static_cast<uint8_t>(MemRegion::kHeap) && heap_.size != 0) {
        path = 1;
      } else if (hint == static_cast<uint8_t>(MemRegion::kStack)) {
        path = 2;
      } else if (hint == static_cast<uint8_t>(MemRegion::kCtx)) {
        path = 3;
      }
    }

    if (path == 0) {
      FlushCounts();
      EmitCallOut(reinterpret_cast<void*>(&kflex_jit_mem), pc,
                  InsnRegEffects(insn).defs);
      return;
    }

    // Translation-cached heap access: the loop preheader validated the whole
    // offset cluster and parked the base's host pointer in a dead
    // callee-saved register (0 = validation failed). On a hit the access
    // needs no bounds/presence work at all; a miss takes the ordinary
    // guarded path below, bit-for-bit like v1.
    const ActivePlan* cache_plan = nullptr;
    if (path == 1) {
      auto it = cache_at_pc_.find(pc);
      if (it != cache_at_pc_.end()) cache_plan = it->second;
    }
    Label cache_miss, cache_done;
    if (cache_plan != nullptr) {
      cached_accesses_++;
      int ch = kHostOf[cache_plan->plan->cache_host_vm_reg];
      a_.AluRR(0x85, ch, ch, true);  // test ch, ch
      a_.JccTo(kCcE, cache_miss);
      EmitAccess(insn, ch, insn.off);
      a_.JmpTo(cache_done);
      a_.Bind(cache_miss);
    }

    inline_fast_paths_++;
    SlowStub stub;
    stub.pc = static_cast<uint32_t>(pc);
    stub.pend = pending_;
    stub.pend_instr = pending_instr_;

    // va into r11.
    if (kHostOf[base] >= 0) {
      a_.Lea(kR11, kHostOf[base], insn.off);
    } else {  // base == RBX
      a_.LoadRbp(kR11, kOffRegs);
      a_.LoadMem(8, kR11, kR11, kRegsSlotRbx);
      if (insn.off != 0) a_.AluRI(0, kR11, insn.off, true);
    }

    if (path == 1) {
      // Heap: r10 = va - r12 (pinned base); one unsigned compare covers both
      // bounds, then software page-presence bytes for first and last byte.
      a_.MovRR(kR10, kR11, true);
      a_.AluRR(0x29, kR10, kR12, true);
      a_.AluRI(7, kR10, static_cast<int32_t>(heap_.size) - size, true);
      stub.jumps.push_back(a_.Jcc(kCcA));
      a_.MovRR(kR11, kR10, true);
      a_.ShiftImm(5, kR11, 12, true);  // kHeapPageSize == 4096
      a_.AluRM(0x03, kR11, kRbp, kOffPresent, true);
      a_.CmpMem8I(kR11, 0, 0);
      stub.jumps.push_back(a_.Jcc(kCcE));
      if (size > 1) {
        a_.Lea(kR11, kR10, size - 1);
        a_.ShiftImm(5, kR11, 12, true);
        a_.AluRM(0x03, kR11, kRbp, kOffPresent, true);
        a_.CmpMem8I(kR11, 0, 0);
        stub.jumps.push_back(a_.Jcc(kCcE));
      }
      a_.AluRM(0x03, kR10, kRbp, kOffHeapHost, true);
      EmitAccess(insn, kR10, 0);
    } else if (path == 2) {
      a_.MovRI64(kR10, kStackRegion);
      a_.AluRR(0x29, kR11, kR10, true);
      a_.AluRI(7, kR11, static_cast<int32_t>(kStackSize) - size, true);
      stub.jumps.push_back(a_.Jcc(kCcA));
      a_.AluRM(0x03, kR11, kRbp, kOffStack, true);
      EmitAccess(insn, kR11, 0);
    } else {
      a_.MovRI64(kR10, kCtxRegion);
      a_.AluRR(0x29, kR11, kR10, true);
      a_.LoadRbp(kR10, kOffCtxSize);
      a_.AluRI(5, kR10, size, true);
      stub.jumps.push_back(a_.Jcc(kCcB));  // ctx_size < size underflows
      a_.AluRR(0x39, kR11, kR10, true);
      stub.jumps.push_back(a_.Jcc(kCcA));
      a_.AluRM(0x03, kR11, kRbp, kOffCtx, true);
      EmitAccess(insn, kR11, 0);
    }
    stub.resume = a_.size();
    stubs_.push_back(std::move(stub));
    if (cache_plan != nullptr) a_.Bind(cache_done);
  }

  // The access proper against host address [addr + disp]. `addr` is r10 or
  // r11; the other temp is free.
  void EmitAccess(const Insn& insn, int addr, int32_t disp) {
    int size = insn.AccessSize();
    int temp = addr == kR10 ? kR11 : kR10;
    if (insn.IsAtomic()) {
      int hs = kHostOf[insn.src];  // src ∈ mapped regs (checked by caller)
      bool w = size == 8;
      if (insn.imm == BPF_ATOMIC_CMPXCHG) {
        a_.CmpxchgM(w, addr, disp, hs);
        if (!w) a_.MovRR(kRax, kRax, false);  // interp zero-extends R0
      } else if (insn.imm == BPF_ATOMIC_XCHG) {
        a_.XchgM(w, addr, disp, hs);
      } else if ((insn.imm & BPF_ATOMIC_FETCH) != 0) {
        a_.Xadd(w, addr, disp, hs);
      } else {
        a_.AddM(w, addr, disp, hs);
      }
      return;
    }
    if (insn.Class() == BPF_LDX) {
      a_.LoadMem(size, kHostOf[insn.dst], addr, disp);
      return;
    }
    if (insn.Class() == BPF_ST) {
      a_.StoreMemI(size, addr, disp, insn.imm);
      return;
    }
    int hs = kHostOf[insn.src];
    if (hs < 0) {
      if (insn.src == R10) {
        a_.MovRI64(temp, kStackTopVa);
      } else {
        a_.LoadRbp(temp, kOffRegs);
        a_.LoadMem(8, temp, temp, kRegsSlotRbx);
      }
      hs = temp;
    }
    a_.StoreMemR(size, addr, disp, hs);
  }

  // ---- jumps -------------------------------------------------------------

  bool EmitJmp(size_t pc) {
    const Insn& insn = insns_[pc];
    bool is64 = insn.Class() == BPF_JMP;
    uint8_t op = insn.AluOpField();
    if (op == BPF_CALL) {
      FlushCounts();
      helper_sites_++;
      if (TryEmitInlineMapLookup(pc)) return true;
      EmitCallOut(reinterpret_cast<void*>(&kflex_jit_helper), pc, 1u << R0);
      return true;
    }
    if (op == BPF_EXIT) {
      FlushCounts();
      a_.JmpTo(l_exit_ok_);
      return true;
    }
    size_t target = static_cast<size_t>(static_cast<int64_t>(pc) + 1 +
                                        insn.off);
    if (op == BPF_JA) {
      FlushCounts();
      branch_fixups_.push_back({a_.Jmp(), target, pc});
      return true;
    }
    uint8_t cc = 0;
    switch (op) {
      case BPF_JEQ:
        cc = kCcE;
        break;
      case BPF_JNE:
        cc = kCcNe;
        break;
      case BPF_JGT:
        cc = kCcA;
        break;
      case BPF_JGE:
        cc = kCcAe;
        break;
      case BPF_JLT:
        cc = kCcB;
        break;
      case BPF_JLE:
        cc = kCcBe;
        break;
      case BPF_JSGT:
        cc = kCcG;
        break;
      case BPF_JSGE:
        cc = kCcGe;
        break;
      case BPF_JSLT:
        cc = kCcL;
        break;
      case BPF_JSLE:
        cc = kCcLe;
        break;
      case BPF_JSET:
        cc = kCcNe;
        break;
      default:
        return true;  // JmpEval returns false: fall through, no flush needed
    }
    FlushCounts();
    int da = GetVal(insn.dst, kR10);
    uint8_t opc = op == BPF_JSET ? 0x85 : 0x39;  // test vs cmp
    if (insn.SrcField() == BPF_X) {
      int sb = GetVal(insn.src, kR11);
      a_.AluRR(opc, da, sb, is64);
    } else if (op == BPF_JSET) {
      a_.TestRI(da, insn.imm, is64);
    } else {
      a_.AluRI(7, da, insn.imm, is64);
    }
    branch_fixups_.push_back({a_.Jcc(cc), target, pc});
    return true;
  }

  // ---- v2: loop plans, preheaders, helper inlining ----------------------

  // A loop plan from ComputeRegAlloc with the knob/environment gates
  // applied: which pairs actually hoist and whether the translation cache is
  // live for this compile.
  struct ActivePlan {
    const JitLoopPlan* plan = nullptr;
    std::vector<size_t> pairs;  // hoisted MOV pcs (gated subset)
    bool cache = false;
  };

  void BuildV2Plans() {
    if (!opts_.hoist_guards) return;
    for (const JitLoopPlan& plan : ra_.loops) {
      ActivePlan ap;
      ap.plan = &plan;
      if (heap_.size != 0) {
        // SANITIZE compiles to an inline fault when there is no heap;
        // hoisting one would move that fault ahead of the loop.
        ap.pairs = plan.hoist_mov_pcs;
      }
      // The cache register holds state across callouts, which only works
      // under minimized spill/reload: the v1 reload-everything would load
      // whatever env->regs holds for the (dead) backing register.
      ap.cache = plan.cache_base_reg >= 0 && UseRegalloc() &&
                 opts_.fast_paths && heap_.size != 0 &&
                 plan.cache_span <= heap_.size && !plan.cached_pcs.empty();
      if (ap.pairs.empty() && !ap.cache) continue;
      auto [it, inserted] = plan_at_head_.emplace(plan.head_pc, std::move(ap));
      if (!inserted) continue;  // heads are unique (merged in regalloc)
      for (size_t p : it->second.pairs) {
        hoisted_pcs_.insert(p);
        hoisted_pcs_.insert(p + 1);
      }
      if (it->second.cache) {
        for (size_t p : plan.cached_pcs) cache_at_pc_[p] = &it->second;
      }
    }
  }

  // Emitted at the loop head, before pc_off_[head]: every entry from outside
  // the loop flows through here (fall-through naturally; jumps are redirected
  // by the fixup pass), while back edges from members land just past it.
  void EmitPreheader(const ActivePlan& ap) {
    FlushCounts();
    preheader_off_[ap.plan->head_pc] = a_.size();
    for (size_t p : ap.pairs) {
      EmitMov(insns_[p], /*is64=*/true);
      EmitSanitize(p + 1);
      hoisted_guards_++;
    }
    if (!ap.cache) return;
    const JitLoopPlan& plan = *ap.plan;
    int ch = kHostOf[plan.cache_host_vm_reg];
    cached_loops_++;
    Label bad, done;
    // r11 = heap offset of the base value (kept for the success path).
    if (plan.cache_sanitize_src >= 0) {
      // The base is an in-loop sanitize scratch; its *source* is invariant
      // and sanitize computes kernel_base + (src & mask), so the heap offset
      // is recomputable here without reading the (clobbered) base.
      a_.MovRR(kR11, kHostOf[plan.cache_sanitize_src], true);
      a_.AluRI(4, kR11, static_cast<int32_t>(heap_.mask()), true);
    } else {
      a_.MovRR(kR11, kHostOf[plan.cache_base_reg], true);
      a_.AluRR(0x29, kR11, kR12, true);
    }
    // ch = offset of the cluster's first byte; one unsigned compare covers
    // both bounds for the whole span.
    a_.Lea(ch, kR11, static_cast<int32_t>(plan.cache_min_off));
    a_.AluRI(7, ch, static_cast<int32_t>(heap_.size - plan.cache_span), true);
    a_.JccTo(kCcA, bad);
    // Page presence for the first and last byte (span ≤ one page, so the
    // endpoints cover every page it touches). Presence is monotonic within a
    // run, so a hit can never go stale.
    a_.MovRR(kR10, ch, true);
    a_.ShiftImm(5, kR10, 12, true);
    a_.AluRM(0x03, kR10, kRbp, kOffPresent, true);
    a_.CmpMem8I(kR10, 0, 0);
    a_.JccTo(kCcE, bad);
    if (plan.cache_span > 1) {
      a_.Lea(kR10, ch, static_cast<int32_t>(plan.cache_span - 1));
      a_.ShiftImm(5, kR10, 12, true);
      a_.AluRM(0x03, kR10, kRbp, kOffPresent, true);
      a_.CmpMem8I(kR10, 0, 0);
      a_.JccTo(kCcE, bad);
    }
    a_.MovRR(ch, kR11, true);
    a_.AluRM(0x03, ch, kRbp, kOffHeapHost, true);  // ch = base host pointer
    a_.JmpTo(done);
    a_.Bind(bad);
    a_.AluRR(0x31, ch, ch, false);  // 0: accesses take the guarded path
    a_.Bind(done);
  }

  // Walks backwards from a CALL looking for the ld_imm64 that pins R1 to a
  // map handle. Aborts at any jump target (unknown provenance), any other R1
  // definition, any non-fallthrough boundary, or after 32 steps — then the
  // call stays a plain trampoline callout.
  int64_t FindStaticMapId(size_t call_pc) const {
    size_t p = call_pc;
    for (int steps = 0; steps < 32 && p > 0; steps++) {
      if (is_target_[p]) return -1;
      size_t q = p - 1;
      if (hi_slot_[q]) {
        if (q == 0) return -1;
        q--;
      }
      const Insn& insn = insns_[q];
      if (insn.IsLdImm64()) {
        if (insn.dst == R1) {
          if (insn.src == kPseudoMapId) {
            return static_cast<int64_t>(
                static_cast<uint32_t>(LdImm64Value(insn, insns_[q + 1])));
          }
          return -1;
        }
      } else {
        if ((InsnRegEffects(insn).defs & RegBit(R1)) != 0) return -1;
        if (insn.IsExit()) return -1;
        if (insn.IsJmp() && insn.AluOpField() == BPF_JA) return -1;
      }
      p = q;
    }
    return -1;
  }

  // Inline fast path for bpf_map_lookup_elem against a statically known map.
  // Interpreter-exact by construction: the slow_flags test bails whenever
  // any observer (tracing, metrics, helper trace, armed chaos point) could
  // tell the difference, non-stack keys bail to the general VmTranslate, and
  // the hash probe replays the locked FindSlot under a seqlock. The layout
  // (meta/keys/value storage, capacity) is snapshotted at compile time —
  // maps are create-once in this runtime, so only the entries move.
  bool TryEmitInlineMapLookup(size_t pc) {
    if (!opts_.v2 || !opts_.inline_helpers) return false;
    if (env_.helpers == nullptr || env_.maps == nullptr) return false;
    const Insn& insn = insns_[pc];
    if (insn.imm != kHelperMapLookupElem) return false;
    const HelperTable::Entry* entry = env_.helpers->Find(insn.imm);
    if (entry == nullptr || !entry->inlineable) return false;
    if (entry->virtual_cost > 0x7FFFFFFF) return false;
    int64_t id = FindStaticMapId(pc);
    if (id < 0) return false;
    const Map* map = env_.maps->Find(static_cast<uint32_t>(id));
    if (map == nullptr) return false;
    const auto* array = dynamic_cast<const ArrayMap*>(map);
    const auto* hash = dynamic_cast<const BpfHashMap*>(map);
    uint32_t key_size = map->desc().key_size;
    BpfHashMap::InlineView view;
    if (hash != nullptr) {
      view = hash->inline_view();
      if (view.capacity == 0 || (key_size != 4 && key_size != 8)) return false;
    } else if (array == nullptr) {
      return false;
    }

    inline_helper_sites_++;
    uint32_t spill = SpillMaskAt(pc);
    uint32_t reload = ReloadMaskAt(pc, 1u << R0);
    spill_sites_++;
    regs_spilled_ += static_cast<uint64_t>(__builtin_popcount(spill));
    regs_reloaded_ += static_cast<uint64_t>(__builtin_popcount(reload));
    regs_spilled_v1_ += kNumMappedHost;
    SpillRegs(spill);

    Label l_call, l_join, l_miss, l_done;
    a_.CmpMem8I(kRbp, kOffSlowFlags, 0);
    a_.JccTo(kCcNe, l_call);
    // Key pointer (R2) must sit fully inside the stack window.
    a_.MovRI64(kR10, kStackRegion);
    a_.MovRR(kR11, kHostOf[R2], true);
    a_.AluRR(0x29, kR11, kR10, true);
    a_.AluRI(7, kR11,
             static_cast<int32_t>(kStackSize - key_size), true);
    a_.JccTo(kCcA, l_call);
    a_.AluRM(0x03, kR11, kRbp, kOffStack, true);  // r11 = host key pointer

    if (array != nullptr) {
      const MapDescriptor& desc = map->desc();
      a_.LoadMem(4, kRax, kR11, 0);  // u32 index, zero-extended
      a_.MovRI64(kR10, desc.max_entries);
      a_.AluRR(0x39, kRax, kR10, true);
      a_.JccTo(kCcAe, l_miss);
      a_.MovRI64(kR10, desc.value_size);
      a_.ImulRR(kRax, kR10, true);
      a_.MovRI64(kR10, map->value_area_va());
      a_.AluRR(0x01, kRax, kR10, true);
      a_.JmpTo(l_done);
      a_.Bind(l_miss);
      a_.AluRR(0x31, kRax, kRax, false);
      a_.Bind(l_done);
    } else {
      // Seqlock snapshot: odd = writer mid-mutation, bail.
      a_.MovRI64(kRcx, reinterpret_cast<uint64_t>(view.seq));
      a_.LoadMem(8, kRcx, kRcx, 0);
      a_.TestRI(kRcx, 1, true);
      a_.JccTo(kCcNe, l_call);
      // FNV-1a over the key bytes (unrolled; key_size ∈ {4, 8}).
      a_.MovRI64(kRdi, 0xCBF29CE484222325ULL);
      a_.MovRI64(kRdx, 0x100000001B3ULL);
      for (uint32_t i = 0; i < key_size; i++) {
        a_.LoadMem(1, kR10, kR11, static_cast<int32_t>(i));
        a_.AluRR(0x31, kRdi, kR10, true);
        a_.ImulRR(kRdi, kRdx, true);
      }
      a_.MovRI64(kR8, view.capacity);
      a_.MovRR(kRax, kRdi, true);
      a_.AluRR(0x31, kRdx, kRdx, false);
      a_.DivR(kR8, true);         // rdx = h % capacity
      a_.MovRR(kRsi, kR8, true);  // probes remaining
      a_.MovRI64(kRdi, reinterpret_cast<uint64_t>(view.meta));
      Label l_probe, l_next, no_wrap;
      a_.Bind(l_probe);
      a_.MovRR(kRax, kRdi, true);
      a_.AluRR(0x01, kRax, kRdx, true);
      a_.LoadMem(1, kRax, kRax, 0);  // slot state byte
      a_.AluRR(0x85, kRax, kRax, false);
      a_.JccTo(kCcE, l_miss);  // never-used slot terminates the chain
      a_.AluRI(7, kRax, BpfHashMap::kSlotUsed, false);
      a_.JccTo(kCcNe, l_next);  // tombstone: keep probing
      a_.MovRR(kRax, kRdx, true);
      a_.ShiftImm(4, kRax, key_size == 8 ? 3 : 2, true);
      a_.MovRI64(kR10, reinterpret_cast<uint64_t>(view.keys));
      a_.AluRR(0x01, kRax, kR10, true);
      a_.LoadMem(key_size == 8 ? 8 : 4, kR10, kRax, 0);
      a_.AluRM(0x3B, kR10, kR11, 0, key_size == 8);  // cmp slot key, probe key
      a_.JccTo(kCcNe, l_next);
      a_.MovRR(kRax, kRdx, true);  // hit: va = value_area + idx * value_size
      a_.MovRI64(kR10, view.value_size);
      a_.ImulRR(kRax, kR10, true);
      a_.MovRI64(kR10, view.value_area_va);
      a_.AluRR(0x01, kRax, kR10, true);
      a_.JmpTo(l_done);
      a_.Bind(l_next);
      a_.AluRI(0, kRdx, 1, true);
      a_.AluRR(0x39, kRdx, kR8, true);
      a_.JccTo(kCcB, no_wrap);
      a_.AluRR(0x31, kRdx, kRdx, false);
      a_.Bind(no_wrap);
      a_.AluRI(5, kRsi, 1, true);
      a_.JccTo(kCcNe, l_probe);
      a_.Bind(l_miss);
      a_.AluRR(0x31, kRax, kRax, false);
      a_.Bind(l_done);
      // A writer may have raced the probe: re-check the seq and use the
      // locked path if it moved.
      a_.MovRI64(kR10, reinterpret_cast<uint64_t>(view.seq));
      a_.AluRM(0x3B, kRcx, kR10, 0, true);
      a_.JccTo(kCcNe, l_call);
    }

    // Success: charge the helper's virtual cost and publish R0 to env->regs
    // so the join's reload (and any later spill) observes it.
    a_.AddMemI32(kOffInsnCount, static_cast<int32_t>(entry->virtual_cost));
    a_.LoadRbp(kR11, kOffRegs);
    a_.StoreMemR(8, kR11, R0 * 8, kRax);
    a_.JmpTo(l_join);
    a_.Bind(l_call);
    // Bail: env->regs already holds everything the trampoline reads (the
    // fast path only clobbered caller-saved hosts), so no re-spill.
    EmitCallBody(reinterpret_cast<void*>(&kflex_jit_helper),
                 static_cast<uint32_t>(pc));
    a_.Bind(l_join);
    ReloadRegs(reload);
    return true;
  }

  // ---- prologue / tails / stubs -----------------------------------------

  void EmitPrologue() {
    a_.Push(kRbp);
    a_.Push(kRbx);
    a_.Push(kR12);
    a_.Push(kR13);
    a_.Push(kR14);
    a_.Push(kR15);
    a_.AluRI(5, kRsp, 8, true);  // 16-align rsp for call-outs
    a_.MovRR(kRbp, kRdi, true);
    a_.LoadRbp(kR11, kOffRegs);
    for (int r = 0; r < kNumRegs; r++) {
      if (r == R1 || kHostOf[r] < 0) continue;
      a_.LoadMem(8, kHostOf[r], kR11, r * 8);
    }
    a_.LoadMem(8, kHostOf[R1], kR11, R1 * 8);  // rdi last: it held JitState*
    a_.LoadRbp(kR12, kOffHeapBase);
  }

  void EmitTails() {
    a_.Bind(l_exit_ok_);
    SpillAll();
    a_.StoreRbp(kOffRet, kRax);
    a_.MovMem32I(kOffExit, static_cast<int32_t>(VmResult::Outcome::kOk));
    a_.JmpTo(l_return_);

    a_.Bind(l_sync_);  // inline-fault exits: fault fields already stored
    SpillAll();
    a_.JmpTo(l_return_);

    a_.Bind(l_budget_);
    SpillAll();
    a_.MovMem32I(kOffExit,
                 static_cast<int32_t>(VmResult::Outcome::kBudgetExceeded));

    a_.Bind(l_return_);
    a_.AluRI(0, kRsp, 8, true);
    a_.Pop(kR15);
    a_.Pop(kR14);
    a_.Pop(kR13);
    a_.Pop(kR12);
    a_.Pop(kRbx);
    a_.Pop(kRbp);
    a_.Ret();
  }

  void EmitStubs() {
    for (SlowStub& s : stubs_) {
      size_t here = a_.size();
      for (size_t pos : s.jumps) a_.Patch(pos, here);
      // Counts pending at the site (including this access) must be visible
      // to the C++ path; on resume they are subtracted back so the fast
      // path's own later flush does not double-count.
      if (s.pend != 0) {
        a_.AddMemI32(kOffInsnCount, static_cast<int32_t>(s.pend));
      }
      if (s.pend_instr != 0) {
        a_.AddMemI32(kOffInstrCount, static_cast<int32_t>(s.pend_instr));
      }
      EmitCallOut(reinterpret_cast<void*>(&kflex_jit_mem), s.pc,
                  InsnRegEffects(insns_[s.pc]).defs);
      if (s.pend != 0) {
        a_.SubMemI32(kOffInsnCount, static_cast<int32_t>(s.pend));
      }
      if (s.pend_instr != 0) {
        a_.SubMemI32(kOffInstrCount, static_cast<int32_t>(s.pend_instr));
      }
      a_.Patch(a_.Jmp(), s.resume);
    }
  }

  struct BranchFixup {
    size_t pos = 0;     // rel32 fixup position
    size_t target = 0;  // bytecode target pc
    size_t src = 0;     // bytecode pc of the jump itself
  };

  const InstrumentedProgram& ip_;
  const std::vector<Insn>& insns_;
  const std::vector<uint8_t>& mask_;
  const std::vector<uint8_t>& hints_;
  HeapLayout heap_;
  JitOptions opts_;
  JitCompileEnv env_;
  JitProgram* out_;

  Asm a_;
  std::string fallback_;
  std::vector<uint8_t> hi_slot_;
  std::vector<uint8_t> is_target_;
  std::vector<uint8_t> is_back_target_;
  std::vector<size_t> pc_off_;
  std::vector<BranchFixup> branch_fixups_;
  std::vector<SlowStub> stubs_;
  Label l_exit_ok_, l_sync_, l_budget_, l_return_;
  uint32_t pending_ = 0;
  uint32_t pending_instr_ = 0;
  uint64_t mem_sites_ = 0;
  uint64_t helper_sites_ = 0;
  uint64_t inline_fast_paths_ = 0;

  // ---- v2 state ----
  RegAllocInfo ra_;
  bool ra_ok_ = false;
  std::map<size_t, ActivePlan> plan_at_head_;
  std::set<size_t> hoisted_pcs_;  // MOV and SANITIZE pcs emitted in preheaders
  std::map<size_t, const ActivePlan*> cache_at_pc_;
  std::map<size_t, size_t> preheader_off_;  // head pc → native offset
  uint64_t spill_sites_ = 0;
  uint64_t regs_spilled_ = 0;
  uint64_t regs_reloaded_ = 0;
  uint64_t regs_spilled_v1_ = 0;
  uint64_t inline_helper_sites_ = 0;
  uint64_t hoisted_guards_ = 0;
  uint64_t cached_loops_ = 0;
  uint64_t cached_accesses_ = 0;
};

}  // namespace

JitCompileResult JitCompile(const InstrumentedProgram& iprog,
                            const JitOptions& options) {
  return JitCompile(iprog, options, JitCompileEnv{});
}

JitCompileResult JitCompile(const InstrumentedProgram& iprog,
                            const JitOptions& options,
                            const JitCompileEnv& env) {
  auto t0 = std::chrono::steady_clock::now();
  auto prog = std::make_unique<JitProgram>();
  prog->insns = iprog.program.insns;
  prog->heap = iprog.heap;
  prog->opts = options;
  Compiler compiler(iprog, options, env, prog.get());
  std::string err = compiler.Compile();
  if (!err.empty()) {
    KFLEX_TRACE(ObsEvent::kJitFallback, iprog.program.insns.size(), 0);
    KFLEX_OBS_COUNT(kJitFallbacks);
    return {nullptr, std::move(err)};
  }
  const std::vector<uint8_t>& bytes = compiler.bytes();
  if (!prog->code.Allocate(bytes.size())) {
    KFLEX_TRACE(ObsEvent::kJitFallback, iprog.program.insns.size(), 0);
    KFLEX_OBS_COUNT(kJitFallbacks);
    return {nullptr, "executable mapping refused by host (mmap)"};
  }
  if (!prog->code.Seal(bytes.data(), bytes.size())) {
    KFLEX_TRACE(ObsEvent::kJitFallback, iprog.program.insns.size(), 0);
    KFLEX_OBS_COUNT(kJitFallbacks);
    return {nullptr, "W^X seal refused by host (mprotect)"};
  }
  prog->entry = reinterpret_cast<JitProgram::EntryFn>(
      const_cast<uint8_t*>(prog->code.data()));
  prog->stats.code_bytes = prog->code.code_size();
  prog->stats.compile_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  KFLEX_TRACE(ObsEvent::kJitCompile, prog->stats.code_bytes, prog->stats.compile_ns);
  if (options.v2) {
    KFLEX_TRACE(ObsEvent::kJitInlineHit, prog->stats.inline_helper_sites,
                prog->stats.cached_loops);
    KFLEX_TRACE(ObsEvent::kJitSpill, prog->stats.spill_sites,
                prog->stats.regs_spilled);
  }
  return {std::move(prog), ""};
}

#else  // !x86-64: compile-time fallback

JitCompileResult JitCompile(const InstrumentedProgram& iprog,
                            const JitOptions& options) {
  return JitCompile(iprog, options, JitCompileEnv{});
}

JitCompileResult JitCompile(const InstrumentedProgram& iprog,
                            const JitOptions& options,
                            const JitCompileEnv& env) {
  (void)options;
  (void)env;
  KFLEX_TRACE(ObsEvent::kJitFallback, iprog.program.insns.size(), 0);
  KFLEX_OBS_COUNT(kJitFallbacks);
  return {nullptr, "host architecture is not x86-64"};
}

#endif

}  // namespace kflex
