// RSS-style flow steering (docs/sharding.md).
//
// A flow hash deterministically maps a request to a shard, exactly like a
// NIC's receive-side-scaling indirection: KV requests hash their key, raw
// packets hash the 5-tuple. Determinism is the correctness foundation of the
// sharded dispatcher — a given key only ever reaches one shard, so per-shard
// extension replicas (each with a private heap and map partition) together
// behave like one coherent store without cross-shard locking.
#ifndef SRC_SHARD_STEERING_H_
#define SRC_SHARD_STEERING_H_

#include <cstdint>

#include "src/base/rng.h"

namespace kflex {

// FNV-1a over the bytes, finalized with the seeded splitmix64 mix
// Mix64(h + kGoldenGamma) so low-entropy inputs (sequential keys, small
// tuples) still spread evenly across shards.
uint64_t ShardHashBytes(const uint8_t* data, uint32_t len);

// Flow hash for a 64-bit KV key (the sim/bench fast path).
inline uint64_t ShardHashKey(uint64_t key) { return Mix64(key + kGoldenGamma); }

// Flow hash for a KV ctx buffer (src/kernel/packet.h layout): the key bytes
// when the request carries one, otherwise the (src_ip, src_port, dst_port)
// tuple — the RSS fallback for keyless packets.
uint64_t ShardHashKvCtx(const uint8_t* ctx, uint32_t ctx_size);

// Indirection table: hash -> shard index. Re-mixes so callers may pass raw
// keys directly without biasing the modulo.
inline int ShardForHash(uint64_t hash, int num_shards) {
  if (num_shards <= 1) {
    return 0;
  }
  return static_cast<int>(Mix64(hash + kGoldenGamma) % static_cast<uint64_t>(num_shards));
}

}  // namespace kflex

#endif  // SRC_SHARD_STEERING_H_
