// The KFlex memory allocator (§3.2, §4.1).
//
// Size-class slab allocator over an extension heap: per-CPU object caches in
// front of a global free list, with pages carved on demand from the heap's
// dynamic region (which also populates their page-table presence — demand
// paging). kflex_malloc()/kflex_free() helpers call into this allocator. A
// per-CPU cache that misses pulls a batch from the global list inside Alloc;
// the paper's user-space refiller (§4.1) has no background counterpart here.
#ifndef SRC_RUNTIME_ALLOCATOR_H_
#define SRC_RUNTIME_ALLOCATOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/runtime/heap.h"

namespace kflex {

class HeapAllocator {
 public:
  // Objects up to one page; each heap page is dedicated to one size class.
  static constexpr uint64_t kMinClass = 16;
  static constexpr uint64_t kMaxClass = 4096;
  static constexpr int kNumClasses = 9;  // 16,32,...,4096
  static constexpr size_t kCacheRefill = 32;   // objects moved per refill
  static constexpr size_t kCacheMax = 128;     // per-CPU cache cap per class

  HeapAllocator(ExtensionHeap* heap, int num_cpus);

  HeapAllocator(const HeapAllocator&) = delete;
  HeapAllocator& operator=(const HeapAllocator&) = delete;

  // Allocates `size` bytes for CPU `cpu`; returns the heap offset, or 0 on
  // failure (size too large / heap exhausted).
  uint64_t Alloc(int cpu, uint64_t size);
  // Frees an allocation by heap offset. Returns false for addresses that are
  // not live allocations (tolerated: extensions may pass garbage).
  bool Free(int cpu, uint64_t off);

  static int ClassForSize(uint64_t size);
  static uint64_t ClassSize(int cls) { return kMinClass << cls; }

  // Number of per-CPU cache arenas. Runtime::Invoke bounds its `cpu`
  // argument by this (the shard dispatcher computes cpu = shard index).
  int num_cpu_slots() const { return static_cast<int>(cpus_.size()); }

  struct Stats {
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t pages_carved = 0;
    uint64_t cache_hits = 0;
    uint64_t global_refills = 0;
    uint64_t failures = 0;
  };
  Stats GetStats() const;

  // Invariant audit for the post-fault sweep (Runtime::SweepInvariants):
  // accounting balances (allocs - frees == carved capacity - free objects),
  // and every free-list offset lies in a page of its class, is
  // object-aligned, and appears at most once. Returns human-readable
  // violations; empty = consistent. Call quiesced (no concurrent ops).
  std::vector<std::string> Audit() const;

 private:
  struct PerCpu {
    std::array<std::vector<uint64_t>, kNumClasses> cache;
    // Refiller thread synchronizes with the owning CPU; mutable so the
    // (logically read-only) Audit can snapshot caches under the lock.
    mutable std::mutex mu;
  };

  // Carves a fresh page for `cls` into the global list. Caller holds mu_.
  bool CarvePageLocked(int cls);

  ExtensionHeap* heap_;
  std::vector<std::unique_ptr<PerCpu>> cpus_;

  mutable std::mutex mu_;
  std::array<std::vector<uint64_t>, kNumClasses> global_;
  uint64_t cursor_;             // next page offset to carve
  std::vector<uint8_t> page_class_;  // page index -> class + 1 (0 = unassigned)

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace kflex

#endif  // SRC_RUNTIME_ALLOCATOR_H_
