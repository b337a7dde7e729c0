// The static verifier: symbolic execution of extension bytecode enforcing
// kernel-interface compliance (helper contracts, reference and lock
// discipline, ctx/stack/map bounds) and — in strict eBPF mode — extension
// correctness too (bounded loops, no extension heap).
//
// In KFlex mode the verifier additionally computes everything Kie needs:
// which heap accesses are provably in bounds (guard elision), which loop
// back edges need cancellation points, and the object tables describing the
// kernel resources held at each potential cancellation point (§3).
#ifndef SRC_VERIFIER_VERIFIER_H_
#define SRC_VERIFIER_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/ebpf/program.h"
#include "src/verifier/analysis.h"

namespace kflex {

enum class MapType { kArray, kHash, kRingBuf };

// Kernel-provided map metadata the verifier checks helper calls against.
struct MapDescriptor {
  uint32_t id = 0;
  uint32_t key_size = 0;
  uint32_t value_size = 0;
  uint64_t max_entries = 0;
  MapType type = MapType::kHash;
};

// Heap accesses proven to stay within the heap's guard zones
// (kHeapGuardZone) need no SFI guard, and the hook's ctx object is
// DefaultCtxSize(hook) bytes.
struct VerifyOptions {
  std::vector<MapDescriptor> maps;
  // Audit-replay mode (contract-audit subsystem, src/verifier/audit.h): load
  // a distilled witness program even though it violates a helper contract on
  // purpose, so the chaos harness can confirm or prune the finding
  // dynamically. Two relaxations, both backed by runtime defense in depth:
  //  * exit with held resources is accepted; held locks are recorded in an
  //    object table at the exit pc so Runtime::SweepInvariants can observe
  //    the violation (held sockets trip the object-registry leak check),
  //  * possibly-NULL pointer dereferences are accepted by assuming non-NULL;
  //    a NULL at runtime surfaces as a memory fault and cancellation.
  // Memory safety (SFI guards, bounds, ctx typing) is NOT relaxed. Never set
  // for production loads.
  bool audit_replay = false;
};

// Default ctx size for a hook: XDP / sk_skb carry a packet buffer,
// tracepoint / LSM a small record.
uint32_t DefaultCtxSize(Hook hook);

// Verifies `program` and, on success, returns the analysis consumed by Kie.
StatusOr<Analysis> Verify(const Program& program, const VerifyOptions& options);

}  // namespace kflex

#endif  // SRC_VERIFIER_VERIFIER_H_
