#include "src/apps/memcached.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/dsl/emit.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"

namespace kflex {

namespace {

using L = MemcachedLayout;

constexpr uint32_t kServerIp = 0x0A000001;
constexpr uint16_t kServerPort = 11211;

// Emits the common epilogue: unlock, release the socket (if validated), and
// transmit the reply from the hook.
void EmitFinish(Assembler& a, bool socket_check) {
  a.LoadHeapAddr(R1, L::kLockOff);
  a.Call(kHelperKflexSpinUnlock);
  if (socket_check) {
    a.Mov(R1, R7);
    a.Call(kHelperSkRelease);
  }
  a.MovImm(R0, static_cast<int32_t>(kXdpTx));
  a.Exit();
}

}  // namespace

Program BuildMemcachedExtension(const MemcachedBuildOptions& options) {
  Assembler a;
  a.Mov(R6, R1);

  if (options.socket_check) {
    // Listing-1 style flow validation: only serve packets addressed to an
    // existing UDP socket; otherwise hand the packet to the kernel stack.
    a.Ldx(BPF_W, R2, R6, kOffSrcIp);
    a.Stx(BPF_W, R10, -16, R2);
    a.Ldx(BPF_H, R3, R6, kOffDstPort);
    a.Stx(BPF_H, R10, -12, R3);
    a.StImm(BPF_H, R10, -10, 0);
    a.Mov(R1, R6);
    a.Mov(R2, R10);
    a.AddImm(R2, -16);
    a.MovImm(R3, 8);
    a.MovImm(R4, 0);
    a.MovImm(R5, 0);
    a.Call(kHelperSkLookupUdp);
    a.Mov(R7, R0);
    {
      auto no_socket = a.IfImm(BPF_JEQ, R7, 0);
      a.MovImm(R0, static_cast<int32_t>(kXdpPass));
      a.Exit();
      a.EndIf(no_socket);
    }
  }

  // Bucket address from the 32-byte key.
  EmitHashKey32(a, R2, R6, kOffKey, R3);
  a.AndImm(R2, L::kNumBuckets - 1);
  a.LshImm(R2, 3);
  a.LoadHeapAddr(R9, L::kBucketsOff);
  a.Add(R9, R2);

  a.LoadHeapAddr(R1, L::kLockOff);
  a.Call(kHelperKflexSpinLock);

  auto set_label = a.NewLabel();
  auto del_label = a.NewLabel();
  auto finish_hit = a.NewLabel();
  auto finish_miss = a.NewLabel();
  a.Ldx(BPF_B, R2, R6, kOffOp);
  a.JmpImm(BPF_JEQ, R2, static_cast<int32_t>(KvOp::kSet), set_label);
  a.JmpImm(BPF_JEQ, R2, static_cast<int32_t>(KvOp::kDel), del_label);

  // ---- GET ----
  {
    a.Ldx(BPF_DW, R8, R9, 0);
    auto loop_head = a.NewLabel();
    a.Bind(loop_head);
    a.JmpImm(BPF_JEQ, R8, 0, finish_miss);
    auto differ = a.NewLabel();
    EmitKeyCompare32(a, R8, L::kNodeKey, R6, kOffKey, differ, R2, R3);
    a.Ldx(BPF_DW, R2, R8, L::kNodeValLen);
    a.Stx(BPF_H, R6, kOffValLen, R2);
    EmitCopyWords(a, R6, kOffResp, R8, L::kNodeValue, 8, R3);
    a.Jmp(finish_hit);
    a.Bind(differ);
    a.Ldx(BPF_DW, R8, R8, L::kNodeNext);
    a.Jmp(loop_head);
  }

  // ---- SET ----
  a.Bind(set_label);
  {
    a.Ldx(BPF_DW, R8, R9, 0);
    auto loop_head = a.NewLabel();
    auto insert = a.NewLabel();
    a.Bind(loop_head);
    a.JmpImm(BPF_JEQ, R8, 0, insert);
    auto differ = a.NewLabel();
    EmitKeyCompare32(a, R8, L::kNodeKey, R6, kOffKey, differ, R2, R3);
    // Update in place.
    a.Ldx(BPF_H, R2, R6, kOffValLen);
    a.Stx(BPF_DW, R8, L::kNodeValLen, R2);
    EmitCopyWords(a, R8, L::kNodeValue, R6, kOffValue, 8, R3);
    if (options.with_expiry) {
      a.Ldx(BPF_DW, R2, R6, kOffZScore);
      a.Stx(BPF_DW, R8, L::kNodeExpiry, R2);
    }
    a.Jmp(finish_hit);
    a.Bind(differ);
    a.Ldx(BPF_DW, R8, R8, L::kNodeNext);
    a.Jmp(loop_head);

    a.Bind(insert);
    a.MovImm(R1, L::kNodeSize);
    a.Call(kHelperKflexMalloc);
    {
      auto null = a.IfImm(BPF_JEQ, R0, 0);
      a.Jmp(finish_miss);
      a.EndIf(null);
    }
    EmitCopyWords(a, R0, L::kNodeKey, R6, kOffKey, 4, R2);
    a.Ldx(BPF_H, R2, R6, kOffValLen);
    a.Stx(BPF_DW, R0, L::kNodeValLen, R2);
    EmitCopyWords(a, R0, L::kNodeValue, R6, kOffValue, 8, R2);
    if (options.with_expiry) {
      a.Ldx(BPF_DW, R2, R6, kOffZScore);
      a.Stx(BPF_DW, R0, L::kNodeExpiry, R2);
    }
    a.Ldx(BPF_DW, R3, R9, 0);
    a.Stx(BPF_DW, R0, L::kNodeNext, R3);
    a.Stx(BPF_DW, R9, 0, R0);  // bucket head = node (stores a heap pointer)
    a.LoadHeapAddr(R2, L::kCountOff);
    a.Ldx(BPF_DW, R3, R2, 0);
    a.AddImm(R3, 1);
    a.Stx(BPF_DW, R2, 0, R3);
    a.Jmp(finish_hit);
  }

  // ---- DEL ----
  a.Bind(del_label);
  {
    a.Ldx(BPF_DW, R8, R9, 0);
    a.MovImm(R5, 0);  // prev
    auto loop_head = a.NewLabel();
    a.Bind(loop_head);
    a.JmpImm(BPF_JEQ, R8, 0, finish_miss);
    auto differ = a.NewLabel();
    EmitKeyCompare32(a, R8, L::kNodeKey, R6, kOffKey, differ, R2, R3);
    a.Ldx(BPF_DW, R2, R8, L::kNodeNext);
    {
      auto had_prev = a.IfImm(BPF_JNE, R5, 0);
      a.Stx(BPF_DW, R5, L::kNodeNext, R2);
      a.Else(had_prev);
      a.Stx(BPF_DW, R9, 0, R2);
      a.EndIf(had_prev);
    }
    a.Mov(R1, R8);
    a.Call(kHelperKflexFree);
    a.LoadHeapAddr(R2, L::kCountOff);
    a.Ldx(BPF_DW, R3, R2, 0);
    a.SubImm(R3, 1);
    a.Stx(BPF_DW, R2, 0, R3);
    a.Jmp(finish_hit);
    a.Bind(differ);
    a.Mov(R5, R8);
    a.Ldx(BPF_DW, R8, R8, L::kNodeNext);
    a.Jmp(loop_head);
  }

  a.Bind(finish_hit);
  a.StImm(BPF_B, R6, kOffRespFlag, 1);
  EmitFinish(a, options.socket_check);

  a.Bind(finish_miss);
  a.StImm(BPF_B, R6, kOffRespFlag, 0);
  EmitFinish(a, options.socket_check);

  auto p = a.Finish("kflex_memcached", Hook::kXdp, ExtensionMode::kKflex, options.heap_size);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

Program BuildBmcProgram(uint32_t map_id) {
  Assembler a;
  a.Mov(R6, R1);
  auto pass = a.NewLabel();
  auto set_label = a.NewLabel();
  a.Ldx(BPF_B, R2, R6, kOffOp);
  a.JmpImm(BPF_JEQ, R2, static_cast<int32_t>(KvOp::kSet), set_label);
  a.JmpImm(BPF_JEQ, R2, static_cast<int32_t>(KvOp::kDel), pass);

  // GET: key to the stack, look aside in the kernel map.
  EmitCopyWords(a, R10, -48, R6, kOffKey, 4, R3);
  a.LoadMapPtr(R1, map_id);
  a.Mov(R2, R10);
  a.AddImm(R2, -48);
  a.Call(kHelperMapLookupElem);
  {
    auto hit = a.IfImm(BPF_JNE, R0, 0);
    a.Ldx(BPF_DW, R2, R0, 0);  // vallen
    a.Stx(BPF_H, R6, kOffValLen, R2);
    EmitCopyWords(a, R6, kOffResp, R0, 8, 8, R3);
    a.StImm(BPF_B, R6, kOffRespFlag, 1);
    a.MovImm(R0, static_cast<int32_t>(kXdpTx));
    a.Exit();
    a.EndIf(hit);
  }
  a.Jmp(pass);  // miss: user space serves it (and the TX path fills the cache)

  // SET: invalidate the cached entry, then let user space process it.
  a.Bind(set_label);
  EmitCopyWords(a, R10, -48, R6, kOffKey, 4, R3);
  a.LoadMapPtr(R1, map_id);
  a.Mov(R2, R10);
  a.AddImm(R2, -48);
  a.Call(kHelperMapDeleteElem);

  a.Bind(pass);
  a.MovImm(R0, static_cast<int32_t>(kXdpPass));
  a.Exit();

  auto p = a.Finish("bmc", Hook::kXdp, ExtensionMode::kEbpf, /*heap=*/0);
  KFLEX_CHECK(p.ok());
  return std::move(p).value();
}

std::array<uint8_t, 32> MakeKey32(uint64_t id) {
  std::array<uint8_t, 32> key{};
  std::memcpy(key.data(), &id, 8);
  for (int i = 8; i < 32; i++) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(0xA5 ^ i);
  }
  return key;
}

// ---- UserMemcached -----------------------------------------------------------

bool UserMemcached::Set(uint64_t key_id, std::string_view value) {
  if (value.size() > 64) {
    return false;
  }
  Value v;
  v.len = static_cast<uint16_t>(value.size());
  std::memcpy(v.bytes.data(), value.data(), value.size());
  table_[key_id] = v;
  return true;
}

std::optional<std::string> UserMemcached::Get(uint64_t key_id) const {
  auto it = table_.find(key_id);
  if (it == table_.end()) {
    return std::nullopt;
  }
  return std::string(reinterpret_cast<const char*>(it->second.bytes.data()), it->second.len);
}

bool UserMemcached::Del(uint64_t key_id) { return table_.erase(key_id) == 1; }

// ---- KflexMemcachedDriver ------------------------------------------------------

StatusOr<KflexMemcachedDriver> KflexMemcachedDriver::Create(
    MockKernel& kernel, const MemcachedBuildOptions& options, const KieOptions& kie,
    const EngineChoice& engine) {
  kernel.sockets().Bind(kServerIp, kServerPort, kProtoUdp);
  Program program = BuildMemcachedExtension(options);
  LoadOptions lo = LoadOptionsFor(engine);
  lo.kie = kie;
  lo.heap_static_bytes = L::kStaticBytes;
  StatusOr<ExtensionId> id = kernel.runtime().Load(program, lo);
  if (!id.ok()) {
    return id.status();
  }
  KFLEX_RETURN_IF_ERROR(kernel.Attach(*id));
  return KflexMemcachedDriver(kernel, *id);
}

KflexMemcachedDriver::OpResult KflexMemcachedDriver::Deliver(int cpu, KvPacket& pkt) {
  pkt.SetTuple(kServerIp, 40000, kServerPort);
  InvokeResult r = kernel_->Deliver(Hook::kXdp, cpu, pkt.data(), pkt.size());
  OpResult out;
  out.served = r.attached && !r.cancelled && r.verdict == kXdpTx;
  out.insns = r.insns;
  out.instr_insns = r.instr_insns;
  out.hit = pkt.resp_flag() == 1;
  if (out.hit) {
    out.value = std::string(pkt.resp());
  }
  return out;
}

KflexMemcachedDriver::OpResult KflexMemcachedDriver::Set(int cpu, uint64_t key_id,
                                                         std::string_view value,
                                                         uint64_t expiry) {
  KvPacket pkt;
  pkt.SetOp(KvOp::kSet);
  pkt.SetProto(kProtoTcp);
  auto key = MakeKey32(key_id);
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  pkt.SetValue(value);
  pkt.SetZScore(expiry);
  return Deliver(cpu, pkt);
}

KflexMemcachedDriver::OpResult KflexMemcachedDriver::Get(int cpu, uint64_t key_id) {
  KvPacket pkt;
  pkt.SetOp(KvOp::kGet);
  pkt.SetProto(kProtoUdp);
  auto key = MakeKey32(key_id);
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  return Deliver(cpu, pkt);
}

KflexMemcachedDriver::OpResult KflexMemcachedDriver::Del(int cpu, uint64_t key_id) {
  KvPacket pkt;
  pkt.SetOp(KvOp::kDel);
  pkt.SetProto(kProtoTcp);
  auto key = MakeKey32(key_id);
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  return Deliver(cpu, pkt);
}

// ---- BmcDriver -----------------------------------------------------------------

StatusOr<BmcDriver> BmcDriver::Create(MockKernel& kernel) {
  auto desc = kernel.runtime().maps().CreateHash(32, kBmcValueSize, 1 << 16);
  if (!desc.ok()) {
    return desc.status();
  }
  Program program = BuildBmcProgram(desc->id);
  StatusOr<ExtensionId> id = kernel.runtime().Load(program, LoadOptions{});
  if (!id.ok()) {
    return id.status();
  }
  KFLEX_RETURN_IF_ERROR(kernel.Attach(*id));
  return BmcDriver(kernel, *id, desc->id);
}

void BmcDriver::FillCache(uint64_t key_id, const UserMemcached::Value& value) {
  Map* map = kernel_->runtime().maps().Find(map_id_);
  KFLEX_CHECK(map != nullptr);
  auto key = MakeKey32(key_id);
  uint8_t entry[kBmcValueSize] = {0};
  uint64_t len = value.len;
  std::memcpy(entry, &len, 8);
  std::memcpy(entry + 8, value.bytes.data(), 64);
  map->Update(key.data(), entry);
}

BmcDriver::OpResult BmcDriver::Deliver(int cpu, KvPacket& pkt) {
  InvokeResult r = kernel_->Deliver(Hook::kXdp, cpu, pkt.data(), pkt.size());
  OpResult out;
  out.xdp_insns = r.insns;
  out.instr_insns = r.instr_insns;
  out.served_at_xdp = r.attached && !r.cancelled && r.verdict == kXdpTx;
  out.hit = pkt.resp_flag() == 1;
  if (out.hit) {
    out.value = std::string(pkt.resp());
  }
  return out;
}

BmcDriver::OpResult BmcDriver::Get(int cpu, uint64_t key_id) {
  KvPacket pkt;
  pkt.SetOp(KvOp::kGet);
  pkt.SetProto(kProtoUdp);
  auto key = MakeKey32(key_id);
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  OpResult out = Deliver(cpu, pkt);
  if (out.served_at_xdp) {
    return out;
  }
  // Miss: served by the user-space Memcached; BMC's TX-side program caches
  // the reply.
  auto value = backend_.Get(key_id);
  out.hit = value.has_value();
  if (value.has_value()) {
    out.value = *value;
    UserMemcached::Value v;
    v.len = static_cast<uint16_t>(value->size());
    std::memcpy(v.bytes.data(), value->data(), value->size());
    FillCache(key_id, v);
  }
  return out;
}

BmcDriver::OpResult BmcDriver::Set(int cpu, uint64_t key_id, std::string_view value) {
  KvPacket pkt;
  pkt.SetOp(KvOp::kSet);
  pkt.SetProto(kProtoTcp);
  auto key = MakeKey32(key_id);
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  pkt.SetValue(value);
  OpResult out = Deliver(cpu, pkt);  // invalidates, then passes to user space
  backend_.Set(key_id, value);
  out.hit = true;
  return out;
}

BmcDriver::OpResult BmcDriver::Del(int cpu, uint64_t key_id) {
  KvPacket pkt;
  pkt.SetOp(KvOp::kDel);
  pkt.SetProto(kProtoTcp);
  auto key = MakeKey32(key_id);
  pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  OpResult out = Deliver(cpu, pkt);
  out.hit = backend_.Del(key_id);
  // Invalidate the look-aside entry as well.
  Map* map = kernel_->runtime().maps().Find(map_id_);
  map->Delete(MakeKey32(key_id).data());
  return out;
}

}  // namespace kflex
