// Executable code cache for the template JIT (§4.2).
//
// Compiled extensions live in mmap'd regions the backend fills while they are
// writable and then seals to PROT_READ|PROT_EXEC before first execution
// (W^X: the region is never writable and executable at the same time). Each
// compiled program owns one CodeBuffer.
#ifndef SRC_JIT_CODE_CACHE_H_
#define SRC_JIT_CODE_CACHE_H_

#include <cstddef>
#include <cstdint>

namespace kflex {

// One executable mapping holding the native code of a single compiled
// extension. Movable, not copyable; unmaps on destruction.
class CodeBuffer {
 public:
  CodeBuffer() = default;
  ~CodeBuffer();

  CodeBuffer(CodeBuffer&& other) noexcept;
  CodeBuffer& operator=(CodeBuffer&& other) noexcept;
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;

  // Maps a writable region of at least `size` bytes (page-rounded). Returns
  // false if the host refuses (no mmap, RWX policy, ...), in which case the
  // caller falls back to the interpreter.
  bool Allocate(size_t size);

  // Copies `code` into the mapping and flips it to PROT_READ|PROT_EXEC.
  // After sealing the buffer is immutable.
  bool Seal(const uint8_t* code, size_t size);

  const uint8_t* data() const { return data_; }
  size_t code_size() const { return code_size_; }
  size_t mapped_size() const { return mapped_size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  void Release();

  uint8_t* data_ = nullptr;
  size_t mapped_size_ = 0;
  size_t code_size_ = 0;
};

}  // namespace kflex

#endif  // SRC_JIT_CODE_CACHE_H_
