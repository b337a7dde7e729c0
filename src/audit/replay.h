// The dynamic half of the contract audit: replays distilled witness
// programs (src/verifier/audit.h) through the chaos harness and classifies
// each static finding.
//
// Every witness runs on all three execution engines (reference interpreter,
// optimized interpreter, JIT) twice: a baseline run, and a run with the
// finding's fault points armed (`helper.ret_err`, `lock.delay`,
// `map.update`) to steer execution down the flagged error path. A finding is
//
//  * CONFIRMED when any run trips Runtime::SweepInvariants (a resource
//    provably leaked past the hook exit) or the engines diverge on the same
//    schedule (outcome/verdict/cancellation mismatch), and
//  * PRUNED when every run replays clean — the distilled witness bails off
//    the flagged path (infeasible under real control flow), or the program
//    could not even load (witness symbolically invalid).
//
// There is no third state: the hybrid audit never leaves a finding
// unclassified.
#ifndef SRC_AUDIT_REPLAY_H_
#define SRC_AUDIT_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/runtime/runtime.h"
#include "src/verifier/audit.h"

namespace kflex {

enum class AuditVerdict : uint8_t {
  kConfirmed = 0,
  kPruned = 1,
};

const char* AuditVerdictName(AuditVerdict verdict);

struct AuditReplayOptions {
  // Maps created in every fresh replay runtime (in creation order, so ids
  // are assigned 1, 2, ...). Empty = for each map id the witness references,
  // a generic hash map (8-byte key, 64-byte value, 64 entries) is created.
  std::vector<MapDescriptor> maps;
};

// One (engine, faults) execution of the witness.
struct EngineRun {
  bool invoked = false;
  bool cancelled = false;
  int64_t verdict = 0;
  VmResult::Outcome outcome = VmResult::Outcome::kOk;
  bool sweep_ok = true;
  std::string sweep;         // invariant violations, "ok" when green
  uint64_t fault_fails = 0;  // injected failures observed (armed runs)
};

struct EngineReplay {
  std::string engine;  // "ref-interp" / "opt-interp" / "jit"
  bool load_ok = false;
  std::string load_error;
  EngineRun baseline;
  EngineRun armed;
};

struct ReplayResult {
  AuditVerdict verdict = AuditVerdict::kPruned;
  std::string reason;  // one-line human explanation of the classification
  std::vector<std::string> fault_specs;
  std::vector<EngineReplay> engines;
};

// Replays one distilled witness. `finding` selects the fault points to arm.
ReplayResult ReplayWitness(const Program& witness, const AuditFinding& finding,
                           const AuditReplayOptions& options = {});

// One fully classified finding.
struct AuditOutcome {
  AuditFinding finding;
  DistilledWitness witness;
  std::string witness_asm;  // ProgramToTextAsm of the witness ("" on failure)
  ReplayResult replay;
};

// Distillation and chaos replay of every static audit finding of `program`.
std::vector<AuditOutcome> ReplayAuditFindings(const Program& program,
                                              std::vector<AuditFinding> findings,
                                              const AuditReplayOptions& options = {});

// The whole pipeline: static audit over `program` (with the verifier's
// `analysis` when available, may be null), then ReplayAuditFindings. Fails
// only if the program is too malformed to build a CFG for.
StatusOr<std::vector<AuditOutcome>> AuditAndReplay(const Program& program,
                                                   const Analysis* analysis,
                                                   const AuditReplayOptions& options = {});

}  // namespace kflex

#endif  // SRC_AUDIT_REPLAY_H_
