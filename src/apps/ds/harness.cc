#include "src/apps/ds/harness.h"

namespace kflex {

StatusOr<DsInstance> DsInstance::Create(Runtime& runtime, const DsBuilder& builder,
                                        const KieOptions& kie, uint64_t heap_size,
                                        const EngineChoice& engine) {
  DsInstance instance(runtime);
  ExtensionId heap_owner = 0;
  for (DsOp op : {DsOp::kUpdate, DsOp::kLookup, DsOp::kDelete}) {
    DsBuild build = builder(op, heap_size);
    LoadOptions lo = LoadOptionsFor(engine);
    lo.kie = kie;
    lo.heap_static_bytes = build.static_bytes;
    lo.share_heap_with = heap_owner;
    StatusOr<ExtensionId> id = runtime.Load(build.program, lo);
    if (!id.ok()) {
      return Status(id.status().code(),
                    build.program.name + ": " + id.status().message());
    }
    instance.ids_[static_cast<size_t>(op)] = *id;
    if (heap_owner == 0) {
      heap_owner = *id;
    }
  }
  return instance;
}

InvokeResult DsInstance::Run(DsOp op, DsCtx& ctx) {
  ctx.op = static_cast<uint64_t>(op);
  InvokeResult r =
      runtime_->Invoke(ids_[static_cast<size_t>(op)], /*cpu=*/0, ctx.bytes(), kDsCtxSize);
  last_insns_ = r.insns;
  last_instr_insns_ = r.instr_insns;
  last_cancelled_ = r.cancelled;
  return r;
}

bool DsInstance::Update(uint64_t key, uint64_t value) {
  DsCtx ctx;
  ctx.key = key;
  ctx.value = value;
  InvokeResult r = Run(DsOp::kUpdate, ctx);
  return r.attached && !r.cancelled && ctx.result == 1;
}

std::optional<uint64_t> DsInstance::Lookup(uint64_t key) {
  DsCtx ctx;
  ctx.key = key;
  InvokeResult r = Run(DsOp::kLookup, ctx);
  if (!r.attached || r.cancelled || ctx.result != 1) {
    return std::nullopt;
  }
  return ctx.aux;
}

bool DsInstance::Delete(uint64_t key) {
  DsCtx ctx;
  ctx.key = key;
  InvokeResult r = Run(DsOp::kDelete, ctx);
  return r.attached && !r.cancelled && ctx.result == 1;
}

}  // namespace kflex
