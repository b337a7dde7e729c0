// The mock kernel: hook dispatch over the KFlex runtime plus the socket
// table substrate. This is the "Linux" of the reproduction — extensions
// attach to hooks; packets delivered to a hook either get consumed by the
// extension (XDP_TX fast path) or fall through to the user-space
// application, paying the stack costs of src/kernel/costmodel.h.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <cstdint>

#include "src/kernel/packet.h"
#include "src/kernel/socket.h"
#include "src/runtime/runtime.h"

namespace kflex {

class MockKernel {
 public:
  explicit MockKernel(const RuntimeOptions& options = {});

  Runtime& runtime() { return runtime_; }
  SocketTable& sockets() { return sockets_; }

  // Attaches a loaded extension to its hook (one extension per hook).
  Status Attach(ExtensionId id);
  void Detach(Hook hook);

  // Delivers a hook event. Returns the extension verdict; if no live
  // extension is attached, returns the hook's pass-through verdict so the
  // caller routes the event to user space.
  InvokeResult Deliver(Hook hook, int cpu, uint8_t* ctx, uint32_t ctx_size);

  // Kernel invariant check: every socket refcount is back at baseline and no
  // acquired object is live — the quiescent state cancellations must restore
  // (§3.3).
  bool Quiescent() const;

 private:
  static constexpr int kNumHooks = 4;

  Runtime runtime_;
  SocketTable sockets_;
  std::array<ExtensionId, kNumHooks> attached_{};
};

}  // namespace kflex

#endif  // SRC_KERNEL_KERNEL_H_
