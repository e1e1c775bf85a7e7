// Deterministic pseudo-random number generation (splitmix64).
//
// Used to fill message payloads in tests and in the `_mb` microbenchmark
// variants that rewrite the buffer before every call (paper §V-A). A fixed,
// tiny generator keeps payload generation reproducible and dependency-free.
#pragma once

#include <cstdint>

namespace xhc::util {

/// splitmix64 — a high-quality 64-bit mixer; passes BigCrush as a stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Fills `bytes` of memory with a deterministic pattern derived from `seed`.
inline void fill_pattern(void* dst, std::size_t bytes,
                         std::uint64_t seed) noexcept {
  SplitMix64 rng(seed);
  auto* p = static_cast<unsigned char*>(dst);
  std::size_t i = 0;
  while (i + 8 <= bytes) {
    const std::uint64_t v = rng.next();
    for (int b = 0; b < 8; ++b) p[i + static_cast<std::size_t>(b)] =
        static_cast<unsigned char>(v >> (8 * b));
    i += 8;
  }
  const std::size_t tail = bytes - i;  // < 8
  if (tail != 0) {
    const std::uint64_t v = rng.next();
    for (std::size_t b = 0; b < tail; ++b) {
      p[i + b] = static_cast<unsigned char>(v >> (8 * b));
    }
  }
}

}  // namespace xhc::util
