// Extension program container: bytecode plus load-time metadata.
#ifndef SRC_EBPF_PROGRAM_H_
#define SRC_EBPF_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ebpf/insn.h"

namespace kflex {

// Kernel event hooks an extension may attach to (§2: extensions are event
// handlers). Default verdicts on cancellation depend on the hook (§4.3):
// network hooks pass by default, security hooks deny by default.
enum class Hook {
  kXdp,         // Ethernet RX, before the kernel network stack (§5.1 Memcached).
  kSkSkb,       // Post-transport-layer TCP payload hook (§5.1 Redis).
  kTracepoint,  // Observability events.
  kLsm,         // Security decision hook.
};

// Default verdict returned to the kernel when an extension is cancelled at
// this hook ("security extensions must deny by default, and network
// extensions should pass packets by default", §4.3).
inline int64_t HookDefaultVerdict(Hook hook) {
  switch (hook) {
    case Hook::kXdp:
      return 2;  // XDP_PASS: let the packet continue up the stack.
    case Hook::kSkSkb:
      return 0;  // SK_PASS equivalent.
    case Hook::kTracepoint:
      return 0;
    case Hook::kLsm:
      return -1;  // -EPERM: deny by default.
  }
  return 0;
}

// Verification / execution mode.
enum class ExtensionMode {
  // Strict eBPF semantics: no extension heap, loops must have statically
  // computable bounds, at most one lock held, only kernel-provided maps.
  kEbpf,
  // KFlex semantics: extension heap, unbounded (cancellable) loops, multiple
  // KFlex spin locks; correctness enforced by Kie instrumentation + runtime.
  kKflex,
};

struct Program {
  std::string name;
  Hook hook = Hook::kXdp;
  ExtensionMode mode = ExtensionMode::kKflex;
  // Size in bytes of the extension heap declared with kflex_heap(). The
  // paper's macro takes GB; tests and benchmarks use smaller, still
  // size-aligned heaps. Zero means no heap (plain eBPF program).
  uint64_t heap_size = 0;
  std::vector<Insn> insns;

  size_t size() const { return insns.size(); }
};

}  // namespace kflex

#endif  // SRC_EBPF_PROGRAM_H_
