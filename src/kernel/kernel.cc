#include "src/kernel/kernel.h"

namespace kflex {

MockKernel::MockKernel(const RuntimeOptions& options) : runtime_(options) {
  sockets_.RegisterHelpers(runtime_.helpers(), runtime_.objects());
  attached_.fill(0);
}

Status MockKernel::Attach(ExtensionId id) {
  const InstrumentedProgram& iprog = runtime_.instrumented(id);
  size_t hook = static_cast<size_t>(iprog.program.hook);
  if (attached_[hook] != 0) {
    return AlreadyExists("hook already has an extension attached");
  }
  attached_[hook] = id;
  return OkStatus();
}

void MockKernel::Detach(Hook hook) { attached_[static_cast<size_t>(hook)] = 0; }

InvokeResult MockKernel::Deliver(Hook hook, int cpu, uint8_t* ctx, uint32_t ctx_size) {
  ExtensionId id = attached_[static_cast<size_t>(hook)];
  if (id == 0) {
    InvokeResult result;
    result.attached = false;
    result.verdict = HookDefaultVerdict(hook);
    return result;
  }
  InvokeResult result = runtime_.Invoke(id, cpu, ctx, ctx_size);
  if (!result.attached) {
    result.verdict = HookDefaultVerdict(hook);
  }
  return result;
}

bool MockKernel::Quiescent() const {
  return sockets_.Quiescent() && runtime_.objects().live_count() == 0;
}

}  // namespace kflex
