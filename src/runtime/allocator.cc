#include "src/runtime/allocator.h"

#include <bit>
#include <unordered_set>

#include "src/base/logging.h"
#include "src/fault/fault.h"
#include "src/obs/obs.h"

namespace kflex {

HeapAllocator::HeapAllocator(ExtensionHeap* heap, int num_cpus)
    : heap_(heap),
      cursor_(heap->dynamic_base()),
      page_class_(heap->size() / kHeapPageSize, 0) {
  KFLEX_CHECK(num_cpus > 0);
  cpus_.reserve(static_cast<size_t>(num_cpus));
  for (int i = 0; i < num_cpus; i++) {
    cpus_.push_back(std::make_unique<PerCpu>());
  }
}

int HeapAllocator::ClassForSize(uint64_t size) {
  if (size == 0 || size > kMaxClass) {
    return -1;
  }
  uint64_t rounded = std::max<uint64_t>(size, kMinClass);
  int cls = 64 - std::countl_zero(rounded - 1) - 4;  // log2(ceil_pow2(size)) - log2(16)
  if (cls < 0) {
    cls = 0;
  }
  return cls;
}

bool HeapAllocator::CarvePageLocked(int cls) {
  // Injected slab failure: the page carve fails as if the heap's dynamic
  // region were exhausted; Alloc turns this into a NULL return (§4.3).
  if (KFLEX_FAULT_FIRE("alloc.slab")) {
    return false;
  }
  if (cursor_ + kHeapPageSize > heap_->size()) {
    return false;
  }
  uint64_t page_off = cursor_;
  cursor_ += kHeapPageSize;
  page_class_[page_off / kHeapPageSize] = static_cast<uint8_t>(cls + 1);
  // Demand paging: carving a page populates its PTE (§3.2).
  heap_->PopulatePages(page_off, kHeapPageSize);
  uint64_t obj_size = ClassSize(cls);
  for (uint64_t off = page_off; off + obj_size <= page_off + kHeapPageSize; off += obj_size) {
    global_[static_cast<size_t>(cls)].push_back(off);
  }
  KFLEX_TRACE(ObsEvent::kAllocCarve, obj_size, kHeapPageSize / obj_size);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.pages_carved++;
  return true;
}

uint64_t HeapAllocator::Alloc(int cpu, uint64_t size) {
  int cls = ClassForSize(size);
  if (cls < 0 || cpu < 0 || static_cast<size_t>(cpu) >= cpus_.size()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.failures++;
    return 0;
  }
  // Injected per-CPU cache failure: the whole allocation attempt fails
  // before touching any free list, mirroring a refiller that cannot keep up.
  if (KFLEX_FAULT_FIRE("alloc.percpu")) {
    KFLEX_TRACE(ObsEvent::kAllocFail, size, 0);
    KFLEX_OBS_COUNT(kAllocFailures);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.failures++;
    return 0;
  }
  PerCpu& pcpu = *cpus_[static_cast<size_t>(cpu)];
  {
    std::lock_guard<std::mutex> lock(pcpu.mu);
    auto& cache = pcpu.cache[static_cast<size_t>(cls)];
    if (!cache.empty()) {
      uint64_t off = cache.back();
      cache.pop_back();
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.allocs++;
      stats_.cache_hits++;
      return off;
    }
  }
  // Cache miss: pull a batch from the global list.
  std::vector<uint64_t> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& global = global_[static_cast<size_t>(cls)];
    if (global.empty() && !CarvePageLocked(cls)) {
      KFLEX_TRACE(ObsEvent::kAllocFail, size, 0);
      KFLEX_OBS_COUNT(kAllocFailures);
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.failures++;
      return 0;
    }
    size_t take = std::min(global.size(), kCacheRefill);
    batch.assign(global.end() - static_cast<ptrdiff_t>(take), global.end());
    global.resize(global.size() - take);
    KFLEX_TRACE(ObsEvent::kAllocRefill, ClassSize(cls), take);
    KFLEX_OBS_COUNT(kAllocRefills);
  }
  uint64_t result = batch.back();
  batch.pop_back();
  {
    std::lock_guard<std::mutex> lock(pcpu.mu);
    auto& cache = pcpu.cache[static_cast<size_t>(cls)];
    cache.insert(cache.end(), batch.begin(), batch.end());
  }
  std::lock_guard<std::mutex> slock(stats_mu_);
  stats_.allocs++;
  stats_.global_refills++;
  return result;
}

bool HeapAllocator::Free(int cpu, uint64_t off) {
  if (off >= heap_->size() || cpu < 0 || static_cast<size_t>(cpu) >= cpus_.size()) {
    return false;
  }
  uint8_t tag = page_class_[off / kHeapPageSize];
  if (tag == 0) {
    return false;  // Not an allocator-owned page (e.g., static globals).
  }
  int cls = tag - 1;
  uint64_t obj_size = ClassSize(cls);
  if (off % obj_size != 0) {
    return false;  // Interior pointer.
  }
  PerCpu& pcpu = *cpus_[static_cast<size_t>(cpu)];
  {
    std::lock_guard<std::mutex> lock(pcpu.mu);
    auto& cache = pcpu.cache[static_cast<size_t>(cls)];
    if (cache.size() < kCacheMax) {
      cache.push_back(off);
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.frees++;
      return true;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  global_[static_cast<size_t>(cls)].push_back(off);
  std::lock_guard<std::mutex> slock(stats_mu_);
  stats_.frees++;
  return true;
}

HeapAllocator::Stats HeapAllocator::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::vector<std::string> HeapAllocator::Audit() const {
  std::vector<std::string> violations;
  auto violation = [&violations](std::string msg) { violations.push_back(std::move(msg)); };

  // Snapshot the free lists. The audit is meant to run quiesced (no
  // concurrent Alloc/Free); locks are taken one at a time, matching the
  // established order (never pcpu.mu and mu_ nested).
  std::array<std::vector<uint64_t>, kNumClasses> free_objs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int cls = 0; cls < kNumClasses; cls++) {
      free_objs[static_cast<size_t>(cls)] = global_[static_cast<size_t>(cls)];
    }
  }
  for (const auto& pcpu_ptr : cpus_) {
    std::lock_guard<std::mutex> lock(pcpu_ptr->mu);
    for (int cls = 0; cls < kNumClasses; cls++) {
      const auto& cache = pcpu_ptr->cache[static_cast<size_t>(cls)];
      auto& list = free_objs[static_cast<size_t>(cls)];
      list.insert(list.end(), cache.begin(), cache.end());
    }
  }

  uint64_t carved_pages = 0;
  uint64_t capacity = 0;
  std::vector<uint8_t> page_class;
  {
    std::lock_guard<std::mutex> lock(mu_);
    page_class = page_class_;
    if (cursor_ > heap_->size() || cursor_ % kHeapPageSize != 0) {
      violation("allocator cursor out of bounds or misaligned");
    }
  }
  for (uint8_t tag : page_class) {
    if (tag == 0) {
      continue;
    }
    if (tag > kNumClasses) {
      violation("page tagged with out-of-range size class");
      continue;
    }
    carved_pages++;
    uint64_t obj_size = ClassSize(tag - 1);
    capacity += kHeapPageSize / obj_size;
  }

  // Every free object must lie in a page of its own class, aligned to the
  // class size, and appear exactly once across all free lists.
  std::unordered_set<uint64_t> seen;
  uint64_t free_count = 0;
  for (int cls = 0; cls < kNumClasses; cls++) {
    uint64_t obj_size = ClassSize(cls);
    for (uint64_t off : free_objs[static_cast<size_t>(cls)]) {
      free_count++;
      if (off >= heap_->size()) {
        violation("free object outside the heap");
        continue;
      }
      uint8_t tag = page_class[off / kHeapPageSize];
      if (tag != static_cast<uint8_t>(cls + 1)) {
        violation("free object in a page of a different size class");
      }
      if (off % obj_size != 0) {
        violation("free object misaligned for its size class");
      }
      if (!seen.insert(off).second) {
        violation("free object appears twice (double free / list corruption)");
      }
    }
  }

  Stats stats = GetStats();
  if (stats.pages_carved != carved_pages) {
    violation("pages_carved stat disagrees with page class table");
  }
  if (stats.allocs < stats.frees) {
    violation("more frees than allocs recorded");
  } else if (capacity < free_count ||
             stats.allocs - stats.frees != capacity - free_count) {
    violation("allocator accounting does not balance: allocs-frees=" +
              std::to_string(stats.allocs - stats.frees) + " but capacity-free=" +
              std::to_string(capacity) + "-" + std::to_string(free_count));
  }
  return violations;
}

}  // namespace kflex
