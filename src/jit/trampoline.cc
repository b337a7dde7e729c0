#include "src/jit/trampoline.h"

#include "src/ebpf/insn.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"
#include "src/runtime/layout.h"

namespace kflex {

extern "C" uint32_t kflex_jit_mem(JitState* st, uint32_t pc) {
  VmEnv& env = *st->env;
  const Insn& insn = st->prog->insns[pc];
  MemFaultKind fault = MemFaultKind::kNone;
  uint64_t va = 0;
  if (VmExecMemInsn(env, insn, fault, va)) return 0;
  st->exit_code = static_cast<uint32_t>(VmResult::Outcome::kFault);
  st->fault_kind = static_cast<uint32_t>(fault);
  st->fault_pc = pc;
  st->fault_va = va;
  return 1;
}

extern "C" uint32_t kflex_jit_helper(JitState* st, uint32_t pc) {
  VmEnv& env = *st->env;
  const Insn& insn = st->prog->insns[pc];
  const HelperTable::Entry* helper =
      env.helpers != nullptr ? env.helpers->Find(insn.imm) : nullptr;
  if (helper == nullptr) {
    st->exit_code = static_cast<uint32_t>(VmResult::Outcome::kFault);
    st->fault_kind = static_cast<uint32_t>(MemFaultKind::kBadAddress);
    st->fault_pc = pc;
    st->fault_va = static_cast<uint64_t>(insn.imm);
    return 1;
  }
  st->insn_count += helper->virtual_cost;
  uint64_t* regs = env.regs;
  uint64_t args[5] = {regs[R1], regs[R2], regs[R3], regs[R4], regs[R5]};
  HelperOutcome out = VmCallHelper(env, insn.imm, *helper, args);
  if (env.helper_trace != nullptr) {
    env.helper_trace->emplace_back(insn.imm, out.ret);
  }
  if (out.cancel) {
    st->exit_code = static_cast<uint32_t>(VmResult::Outcome::kHelperCancel);
    st->fault_pc = pc;
    return 1;
  }
  if (out.fault) {
    st->exit_code = static_cast<uint32_t>(VmResult::Outcome::kHelperFault);
    st->fault_pc = pc;
    return 1;
  }
  regs[R0] = out.ret;
  return 0;
}

VmResult JitRun(const JitProgram& prog, VmEnv& env) {
  // FUELCHECK reads the cancel byte unconditionally; point it at a constant
  // zero when the invocation has no cancel flag.
  static const uint8_t kNoCancel = 0;

  VmResult result;
  if (prog.entry == nullptr) {
    result.outcome = VmResult::Outcome::kFault;
    result.fault_kind = MemFaultKind::kBadAddress;
    return result;
  }
  env.regs[R1] = kCtxRegion;
  env.regs[R10] = kStackRegion + kStackSize;
  if (env.maps != nullptr && env.map_windows == nullptr) {
    env.map_windows = env.maps->ValueWindows();
  }

  JitState st{};
  st.regs = env.regs;
  st.stack_host = env.stack;
  st.ctx_host = env.ctx;
  st.ctx_size = env.ctx_size;
  if (env.heap != nullptr) {
    st.heap_host = env.heap->HostAt(0);
    st.present = env.heap->present_bytes();
    st.heap_kernel_base = env.heap->layout().kernel_base;
  }
  st.fuel_quantum = env.fuel_quantum;
  st.cancel_flag =
      env.cancel != nullptr
          ? reinterpret_cast<const volatile uint8_t*>(env.cancel)
          : &kNoCancel;
  st.insn_budget = env.insn_budget;
  st.env = &env;
  st.prog = &prog;
  // Anything that can observe an individual helper call forces the inline
  // helper fast paths to bail: trace/metric sinks, a helper trace vector, or
  // an armed chaos point that would alter helper behavior. armed() is a
  // non-consuming query, so probing it never shifts an injection schedule.
  bool slow = ObsTraceEnabled() || ObsMetricsEnabled() || env.helper_trace != nullptr;
  if (!slow) {
    // Resolved once (as KFLEX_FAULT_FIRE does); armed() stays a per-invoke
    // relaxed load so a point armed after load still forces the bail.
    static const FaultPoint* const ret_err =
        &FaultRegistry::Instance().Point("helper.ret_err");
    static const FaultPoint* const map_update =
        &FaultRegistry::Instance().Point("map.update");
    slow = ret_err->armed() || map_update->armed();
  }
  st.slow_flags = slow ? 1 : 0;

  prog.entry(&st);

  result.outcome = static_cast<VmResult::Outcome>(st.exit_code);
  result.ret = static_cast<int64_t>(st.ret);
  result.fault_pc = st.fault_pc;
  result.fault_kind = static_cast<MemFaultKind>(st.fault_kind);
  result.fault_va = st.fault_va;
  result.insns_executed = st.insn_count;
  result.instr_insns_executed = st.instr_count;
  return result;
}

}  // namespace kflex
