// Deterministic pseudo-random number generation (xorshift64* / splitmix64).
//
// Benchmarks and property tests need reproducible randomness that does not
// depend on libstdc++'s distribution implementations.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstdint>

namespace kflex {

// The splitmix64 increment (2^64 / golden ratio).
inline constexpr uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

// splitmix64 finalizer: full-avalanche 64-bit mix. The host-side hash of
// every flow, seed and rendezvous weight; EmitHashFinalize is its bytecode
// twin.
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// splitmix64 step: used for seeding and hashing seeds.
inline uint64_t SplitMix64(uint64_t& state) { return Mix64(state += kGoldenGamma); }

// xorshift64* generator. Small, fast, good enough statistical quality for
// workload generation; identical algorithm is re-implemented in extension
// bytecode for the skip list (so both sides can be cross-checked).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853C49E6748FEA9BULL) {
    uint64_t s = seed;
    state_ = SplitMix64(s);
    if (state_ == 0) {
      state_ = 0x2545F4914F6CDD1DULL;
    }
  }

  uint64_t Next() {
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) { return Next() % bound; }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

}  // namespace kflex

#endif  // SRC_BASE_RNG_H_
