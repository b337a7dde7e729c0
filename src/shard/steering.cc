#include "src/shard/steering.h"

#include <cstring>

#include "src/kernel/packet.h"

namespace kflex {

uint64_t ShardHashBytes(const uint8_t* data, uint32_t len) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (uint32_t i = 0; i < len; i++) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return Mix64(h + kGoldenGamma);
}

uint64_t ShardHashKvCtx(const uint8_t* ctx, uint32_t ctx_size) {
  if (ctx_size >= static_cast<uint32_t>(kOffKey) + kMaxKeyLen) {
    uint8_t keylen = ctx[kOffKeyLen];
    if (keylen > 0 && keylen <= kMaxKeyLen) {
      return ShardHashBytes(ctx + kOffKey, keylen);
    }
  }
  if (ctx_size >= static_cast<uint32_t>(kOffDstPort) + 2) {
    uint32_t src_ip;
    uint16_t src_port, dst_port;
    std::memcpy(&src_ip, ctx + kOffSrcIp, 4);
    std::memcpy(&src_port, ctx + kOffSrcPort, 2);
    std::memcpy(&dst_port, ctx + kOffDstPort, 2);
    uint64_t tuple = (static_cast<uint64_t>(src_ip) << 32) |
                     (static_cast<uint64_t>(src_port) << 16) | dst_port;
    return Mix64(tuple + kGoldenGamma);
  }
  return ShardHashBytes(ctx, ctx_size);
}

}  // namespace kflex
