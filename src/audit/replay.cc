#include "src/audit/replay.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/ebpf/helper_ids.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/text_asm.h"
#include "src/fault/fault.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/verifier/cfg.h"

namespace kflex {
namespace {

// The same three execution configurations the chaos harness covers
// (tests/chaos_test.cc): fast_paths=false keeps JIT memory accesses on the
// interpreter-shared translation stub so fault points fire on the same
// schedule across engines — a prerequisite for the divergence check.
struct EngineConfig {
  const char* name;
  EngineChoice choice;
};

std::vector<EngineConfig> Engines() {
  std::vector<EngineConfig> engines;
  engines.push_back({"ref-interp", {/*optimize=*/false, ExecEngine::kInterp, {}}});
  engines.push_back({"opt-interp", {/*optimize=*/true, ExecEngine::kInterp, {}}});
  JitOptions jit;
  jit.fast_paths = false;
  engines.push_back({"jit", {/*optimize=*/true, ExecEngine::kJit, jit}});
  return engines;
}

// Fault points armed to steer the witness down its flagged error path.
// helper.ret_err makes every fallible helper fail (the error path the static
// pass speculated about); lock.delay exercises the contended-lock path for
// lock findings; map.update forces update failures for map-value findings.
std::vector<std::string> FaultSpecsFor(const AuditFinding& finding) {
  std::vector<std::string> specs;
  specs.push_back("helper.ret_err:every=1");
  if (finding.resource == ResourceKind::kLock) {
    specs.push_back("lock.delay:every=1");
  }
  if (finding.kind == ObligationKind::kCheck && finding.helper == kHelperMapLookupElem) {
    specs.push_back("map.update:every=1");
  }
  return specs;
}

uint64_t FailsOf(const std::string& spec) {
  std::string point = spec.substr(0, spec.find(':'));
  FaultPoint* p = FaultRegistry::Instance().Find(point);
  return p != nullptr ? p->fails() : 0;
}

// Map ids the witness references through ld_imm64 map-pointer loads. The
// replay runtime must pre-create a map for every one of them or the load
// fails on an unknown id.
uint32_t MaxMapId(const Program& witness) {
  uint32_t max_id = 0;
  for (size_t pc = 0; pc < witness.insns.size(); pc++) {
    const Insn& insn = witness.insns[pc];
    if (insn.IsLdImm64() && insn.src == kPseudoMapId) {
      max_id = std::max(max_id, static_cast<uint32_t>(insn.imm));
      pc++;  // skip the hi slot
    }
  }
  return max_id;
}

// Largest heap-variable offset the witness touches; the static region is
// sized to cover it so lock words live on pre-populated pages.
uint64_t MaxHeapVarEnd(const Program& witness) {
  uint64_t end = 0;
  for (size_t pc = 0; pc < witness.insns.size(); pc++) {
    const Insn& insn = witness.insns[pc];
    if (insn.IsLdImm64() && insn.src == kPseudoHeapVar) {
      uint64_t lo = static_cast<uint32_t>(insn.imm);
      uint64_t hi = pc + 1 < witness.insns.size()
                        ? static_cast<uint32_t>(witness.insns[pc + 1].imm)
                        : 0;
      end = std::max(end, (hi << 32 | lo) + 16);
      pc++;
    }
  }
  return end;
}

struct RunEnv {
  const Program& witness;
  const EngineConfig& engine;
  const AuditReplayOptions& options;
};

// One load + invoke + sweep on a fresh kernel. A fresh MockKernel per run
// keeps state (held lock words, socket refcounts, fault hit counters) from
// leaking between the baseline and armed legs or between engines.
void RunOnce(const RunEnv& env, const std::vector<std::string>& specs,
             EngineReplay& replay, EngineRun& out) {
  RuntimeOptions ropts;
  ropts.num_cpus = 1;
  ropts.quantum_ns = 500'000'000ULL;
  MockKernel kernel{ropts};
  // A resolvable socket for sk_lookup witnesses: distilled programs read a
  // zeroed stack tuple, so bind (ip=0, port=0, udp).
  kernel.sockets().Bind(0, 0, kProtoUdp);

  Runtime& runtime = kernel.runtime();
  if (!env.options.maps.empty()) {
    for (const MapDescriptor& m : env.options.maps) {
      StatusOr<MapDescriptor> made =
          m.type == MapType::kArray
              ? runtime.maps().CreateArray(m.key_size, m.value_size, m.max_entries)
              : runtime.maps().CreateHash(m.key_size, m.value_size, m.max_entries);
      if (!made.ok()) {
        replay.load_error = made.status().ToString();
        return;
      }
    }
  } else {
    uint32_t want = std::min<uint32_t>(MaxMapId(env.witness), 64);
    for (uint32_t id = 1; id <= want; id++) {
      auto made = runtime.maps().CreateHash(8, 64, 64);
      if (!made.ok()) {
        replay.load_error = made.status().ToString();
        return;
      }
    }
  }

  LoadOptions lo = LoadOptionsFor(env.engine.choice);
  lo.verify.audit_replay = true;
  lo.heap_static_bytes =
      std::min<uint64_t>(MaxHeapVarEnd(env.witness), env.witness.heap_size);

  StatusOr<ExtensionId> id = runtime.Load(env.witness, lo);
  if (!id.ok()) {
    replay.load_error = id.status().ToString();
    return;
  }
  replay.load_ok = true;

  // Armed inside the load/invoke bracket only for the armed leg; the
  // ScopedFaultInjection destructor disarms everything and zeroes counters,
  // so per-point failure counts are read before it closes.
  ScopedFaultInjection faults;
  for (const std::string& spec : specs) {
    Status armed = faults.Arm(spec);
    if (!armed.ok()) {
      replay.load_error = armed.ToString();
      return;
    }
  }

  uint8_t ctx[64] = {0};
  InvokeResult r = runtime.Invoke(*id, /*cpu=*/0, ctx, sizeof(ctx));
  out.invoked = true;
  out.cancelled = r.cancelled;
  out.verdict = r.verdict;
  out.outcome = r.outcome;
  for (const std::string& spec : specs) {
    out.fault_fails += FailsOf(spec);
  }
  InvariantReport sweep = runtime.SweepInvariants(*id);
  out.sweep_ok = sweep.ok();
  out.sweep = sweep.ToString();
}

bool SameBehavior(const EngineRun& a, const EngineRun& b) {
  return a.cancelled == b.cancelled && a.verdict == b.verdict && a.outcome == b.outcome;
}

}  // namespace

const char* AuditVerdictName(AuditVerdict verdict) {
  switch (verdict) {
    case AuditVerdict::kConfirmed:
      return "confirmed";
    case AuditVerdict::kPruned:
      return "pruned";
  }
  return "?";
}

ReplayResult ReplayWitness(const Program& witness, const AuditFinding& finding,
                           const AuditReplayOptions& options) {
  ReplayResult result;
  result.fault_specs = FaultSpecsFor(finding);

  for (const EngineConfig& engine : Engines()) {
    EngineReplay replay;
    replay.engine = engine.name;
    RunEnv env{witness, engine, options};
    RunOnce(env, /*specs=*/{}, replay, replay.baseline);
    if (replay.load_ok) {
      EngineReplay armed_leg;
      armed_leg.engine = engine.name;
      RunOnce(env, result.fault_specs, armed_leg, replay.armed);
      if (!armed_leg.load_ok && replay.load_error.empty()) {
        replay.load_error = armed_leg.load_error;
      }
    }
    result.engines.push_back(std::move(replay));
  }

  // CONFIRMED iff some run provably leaked a resource past the hook exit
  // (invariant sweep) or the engines disagreed on the same deterministic
  // schedule. Armed-vs-baseline differences alone are expected steering, not
  // a violation. Anything else — including a witness no engine could load —
  // is PRUNED. Two verdicts, no third state.
  for (const EngineReplay& er : result.engines) {
    if (!er.load_ok) {
      continue;
    }
    if (er.baseline.invoked && !er.baseline.sweep_ok) {
      result.verdict = AuditVerdict::kConfirmed;
      result.reason = "invariant sweep tripped on " + er.engine + " (baseline): " + er.baseline.sweep;
      return result;
    }
    if (er.armed.invoked && !er.armed.sweep_ok) {
      result.verdict = AuditVerdict::kConfirmed;
      result.reason = "invariant sweep tripped on " + er.engine + " (faults armed): " + er.armed.sweep;
      return result;
    }
  }
  const EngineReplay* ref = nullptr;
  for (const EngineReplay& er : result.engines) {
    if (!er.load_ok) {
      continue;
    }
    if (ref == nullptr) {
      ref = &er;
      continue;
    }
    if (er.baseline.invoked && ref->baseline.invoked &&
        !SameBehavior(er.baseline, ref->baseline)) {
      result.verdict = AuditVerdict::kConfirmed;
      result.reason = "baseline behavior diverges: " + ref->engine + " vs " + er.engine;
      return result;
    }
    if (er.armed.invoked && ref->armed.invoked && !SameBehavior(er.armed, ref->armed)) {
      result.verdict = AuditVerdict::kConfirmed;
      result.reason = "fault-armed behavior diverges: " + ref->engine + " vs " + er.engine;
      return result;
    }
  }

  result.verdict = AuditVerdict::kPruned;
  if (ref == nullptr) {
    result.reason = "witness did not load on any engine";
  } else {
    result.reason = "all engines replay clean with faults armed (witness path bails out)";
  }
  return result;
}

std::vector<AuditOutcome> ReplayAuditFindings(const Program& program,
                                              std::vector<AuditFinding> findings,
                                              const AuditReplayOptions& options) {
  std::vector<AuditOutcome> outcomes;
  outcomes.reserve(findings.size());
  for (AuditFinding& finding : findings) {
    AuditOutcome outcome;
    StatusOr<DistilledWitness> witness = DistillWitness(program, finding);
    if (!witness.ok()) {
      // A witness the distiller cannot lower (e.g. an out-of-range bail
      // offset) cannot be replayed — and so cannot be confirmed.
      outcome.replay.verdict = AuditVerdict::kPruned;
      outcome.replay.reason = "distillation failed: " + witness.status().ToString();
    } else {
      outcome.witness = std::move(witness).value();
      StatusOr<std::string> text = ProgramToTextAsm(outcome.witness.program);
      if (text.ok()) {
        outcome.witness_asm = std::move(text).value();
      }
      outcome.replay = ReplayWitness(outcome.witness.program, finding, options);
    }
    outcome.finding = std::move(finding);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

StatusOr<std::vector<AuditOutcome>> AuditAndReplay(const Program& program,
                                                   const Analysis* analysis,
                                                   const AuditReplayOptions& options) {
  StatusOr<Cfg> cfg = Cfg::Build(program);
  if (!cfg.ok()) {
    return cfg.status();
  }
  return ReplayAuditFindings(program, RunContractAudit(program, *cfg, analysis), options);
}

}  // namespace kflex
