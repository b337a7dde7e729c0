#include "src/runtime/maps.h"

#include <cstring>

#include "src/fault/fault.h"

namespace kflex {

namespace {

uint64_t HashKey(const uint8_t* key, uint32_t len) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (uint32_t i = 0; i < len; i++) {
    h ^= key[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

// ---- ArrayMap ----------------------------------------------------------------

ArrayMap::ArrayMap(MapDescriptor desc, uint64_t handle_va)
    : Map(desc, handle_va), values_(desc.max_entries * desc.value_size, 0) {}

uint64_t ArrayMap::Lookup(const uint8_t* key) {
  uint32_t idx;
  std::memcpy(&idx, key, sizeof(idx));
  if (idx >= desc_.max_entries) {
    return 0;
  }
  return value_area_va() + static_cast<uint64_t>(idx) * desc_.value_size;
}

int ArrayMap::Update(const uint8_t* key, const uint8_t* value) {
  // Injected update failure: -ENOMEM, as if the kernel could not allocate
  // the element (the real bpf_map_update_elem contract).
  if (KFLEX_FAULT_FIRE("map.update")) {
    return -12;  // -ENOMEM
  }
  uint32_t idx;
  std::memcpy(&idx, key, sizeof(idx));
  if (idx >= desc_.max_entries) {
    return -1;
  }
  std::memcpy(values_.data() + static_cast<uint64_t>(idx) * desc_.value_size, value,
              desc_.value_size);
  return 0;
}

int ArrayMap::Delete(const uint8_t* key) {
  return -1;  // Array elements cannot be deleted (eBPF semantics).
}

uint8_t* ArrayMap::TranslateValue(uint64_t va, uint64_t size) {
  uint64_t base = value_area_va();
  uint64_t total = static_cast<uint64_t>(desc_.max_entries) * desc_.value_size;
  if (va < base || va + size > base + total) {
    return nullptr;
  }
  return values_.data() + (va - base);
}

bool ArrayMap::ValueWindow(VaWindow* out) {
  out->start = value_area_va();
  out->end = out->start + values_.size();
  out->host = values_.data();
  return true;
}

// ---- BpfHashMap --------------------------------------------------------------

BpfHashMap::BpfHashMap(MapDescriptor desc, uint64_t handle_va)
    : Map(desc, handle_va),
      meta_(desc.max_entries * 2, kSlotEmpty),
      keys_(desc.max_entries * 2 * desc.key_size, 0),
      values_(desc.max_entries * 2 * desc.value_size, 0),
      capacity_(desc.max_entries * 2) {}

size_t BpfHashMap::FindSlot(const uint8_t* key, bool for_insert, bool& found) {
  uint64_t h = HashKey(key, desc_.key_size);
  size_t first_free = capacity_;
  for (size_t probe = 0; probe < capacity_; probe++) {
    size_t idx = (h + probe) % capacity_;
    uint8_t state = meta_[idx];
    if (state != kSlotUsed) {
      if (first_free == capacity_) {
        first_free = idx;
      }
      if (state == kSlotEmpty) {
        break;  // Never-used slot terminates the probe chain.
      }
      continue;  // Tombstone: keep probing.
    }
    if (std::memcmp(keys_.data() + idx * desc_.key_size, key, desc_.key_size) == 0) {
      found = true;
      return idx;
    }
  }
  found = false;
  return for_insert ? first_free : capacity_;
}

uint64_t BpfHashMap::Lookup(const uint8_t* key) {
  std::lock_guard<std::mutex> lock(mu_);
  bool found = false;
  size_t idx = FindSlot(key, /*for_insert=*/false, found);
  if (!found) {
    return 0;
  }
  return value_area_va() + idx * desc_.value_size;
}

int BpfHashMap::Update(const uint8_t* key, const uint8_t* value) {
  if (KFLEX_FAULT_FIRE("map.update")) {
    return -12;  // -ENOMEM
  }
  std::lock_guard<std::mutex> lock(mu_);
  bool found = false;
  size_t idx = FindSlot(key, /*for_insert=*/true, found);
  if (idx >= capacity_) {
    return -1;
  }
  if (!found) {
    if (size_ >= desc_.max_entries) {
      return -1;
    }
    // Entry-moving mutation: bump the seqlock (odd = in progress) so a
    // concurrent native inline probe retries through the locked slow path
    // instead of matching a half-written key. Value-only overwrites below
    // need no bump — the inline reader never touches value bytes.
    seq_.fetch_add(1, std::memory_order_release);
    std::memcpy(keys_.data() + idx * desc_.key_size, key, desc_.key_size);
    meta_[idx] = kSlotUsed;
    seq_.fetch_add(1, std::memory_order_release);
    size_++;
  }
  std::memcpy(values_.data() + idx * desc_.value_size, value, desc_.value_size);
  return 0;
}

int BpfHashMap::Delete(const uint8_t* key) {
  std::lock_guard<std::mutex> lock(mu_);
  bool found = false;
  size_t idx = FindSlot(key, /*for_insert=*/false, found);
  if (!found) {
    return -1;
  }
  seq_.fetch_add(1, std::memory_order_release);
  meta_[idx] = kSlotTombstone;
  seq_.fetch_add(1, std::memory_order_release);
  size_--;
  return 0;
}

uint8_t* BpfHashMap::TranslateValue(uint64_t va, uint64_t size) {
  uint64_t base = value_area_va();
  if (va < base || va + size > base + values_.size()) {
    return nullptr;
  }
  return values_.data() + (va - base);
}

bool BpfHashMap::ValueWindow(VaWindow* out) {
  out->start = value_area_va();
  out->end = out->start + values_.size();
  out->host = values_.data();
  return true;
}

BpfHashMap::InlineView BpfHashMap::inline_view() const {
  static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t),
                "inline probe reads seq_ as a plain uint64_t");
  InlineView v;
  v.meta = meta_.data();
  v.keys = keys_.data();
  v.seq = reinterpret_cast<const uint64_t*>(&seq_);
  v.capacity = capacity_;
  v.key_size = desc_.key_size;
  v.value_size = desc_.value_size;
  v.value_area_va = value_area_va();
  return v;
}

// ---- RingBufMap --------------------------------------------------------------

RingBufMap::RingBufMap(MapDescriptor desc, uint64_t handle_va)
    : Map(desc, handle_va), capacity_(desc.max_entries) {}

int RingBufMap::Output(const uint8_t* data, uint32_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  // Account the record header the kernel would add (8 bytes, 8-aligned).
  uint64_t footprint = 8 + ((size + 7) & ~7u);
  if (bytes_used_ + footprint > capacity_) {
    dropped_++;
    return -1;
  }
  records_.emplace_back(data, data + size);
  bytes_used_ += footprint;
  return 0;
}

size_t RingBufMap::Drain(const std::function<void(const uint8_t*, uint32_t)>& fn) {
  std::deque<std::vector<uint8_t>> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken.swap(records_);
    bytes_used_ = 0;
  }
  for (const auto& record : taken) {
    fn(record.data(), static_cast<uint32_t>(record.size()));
  }
  return taken.size();
}

size_t RingBufMap::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t RingBufMap::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// ---- MapRegistry -------------------------------------------------------------

StatusOr<MapDescriptor> MapRegistry::CreateArray(uint32_t key_size, uint32_t value_size,
                                                 uint64_t max_entries) {
  if (key_size != 4 || value_size == 0 || max_entries == 0) {
    return InvalidArgument("array map requires u32 keys and nonzero value size/entries");
  }
  std::lock_guard<std::mutex> lock(mu_);
  MapDescriptor desc{static_cast<uint32_t>(maps_.size() + 1), key_size, value_size,
                     max_entries, MapType::kArray};
  maps_.push_back(std::make_unique<ArrayMap>(desc, HandleVaForId(desc.id)));
  RebuildWindows();
  return desc;
}

StatusOr<MapDescriptor> MapRegistry::CreateHash(uint32_t key_size, uint32_t value_size,
                                                uint64_t max_entries) {
  if (key_size == 0 || value_size == 0 || max_entries == 0) {
    return InvalidArgument("hash map requires nonzero key/value size and entries");
  }
  std::lock_guard<std::mutex> lock(mu_);
  MapDescriptor desc{static_cast<uint32_t>(maps_.size() + 1), key_size, value_size,
                     max_entries, MapType::kHash};
  maps_.push_back(std::make_unique<BpfHashMap>(desc, HandleVaForId(desc.id)));
  RebuildWindows();
  return desc;
}

StatusOr<MapDescriptor> MapRegistry::CreateRingBuf(uint64_t capacity_bytes) {
  if (capacity_bytes < 64 || capacity_bytes > (1ULL << 30)) {
    return InvalidArgument("ring buffer capacity out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  MapDescriptor desc{static_cast<uint32_t>(maps_.size() + 1), 0, 0, capacity_bytes,
                     MapType::kRingBuf};
  maps_.push_back(std::make_unique<RingBufMap>(desc, HandleVaForId(desc.id)));
  RebuildWindows();
  return desc;
}

Map* MapRegistry::Find(uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > maps_.size()) {
    return nullptr;
  }
  return maps_[id - 1].get();
}

const Map* MapRegistry::Find(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > maps_.size()) {
    return nullptr;
  }
  return maps_[id - 1].get();
}

Map* MapRegistry::FindByVa(uint64_t va) {
  if (va < kMapRegion) {
    return nullptr;
  }
  uint32_t id = static_cast<uint32_t>((va - kMapRegion) >> 32);
  return Find(id);
}

std::shared_ptr<const std::vector<VaWindow>> MapRegistry::ValueWindows() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (windows_ == nullptr) {
    return std::make_shared<const std::vector<VaWindow>>();
  }
  return windows_;
}

void MapRegistry::RebuildWindows() {
  auto next = std::make_shared<std::vector<VaWindow>>();
  next->reserve(maps_.size());
  for (const auto& map : maps_) {
    VaWindow w;
    if (map->ValueWindow(&w)) {
      next->push_back(w);
    }
  }
  // Map ids (and thus value-area VAs) are assigned in ascending order, so
  // the snapshot is already sorted by start.
  windows_ = std::move(next);
}

std::vector<MapDescriptor> MapRegistry::Descriptors() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MapDescriptor> out;
  out.reserve(maps_.size());
  for (const auto& map : maps_) {
    out.push_back(map->desc());
  }
  return out;
}

}  // namespace kflex
