#ifndef GPL_COMMON_RANDOM_H_
#define GPL_COMMON_RANDOM_H_

#include <cstdint>

namespace gpl {

/// Deterministic xorshift128+ pseudo-random generator. Used everywhere a
/// random stream is needed (data generation, property tests) so that results
/// are reproducible across runs and platforms.
///
/// The draws are defined inline so that a call with constant bounds, such as
/// Uniform(0, kNumShipModes - 1), reduces modulo a constant (a multiply and
/// shift) instead of a 64-bit division. A Random is two words of state:
/// copying it forks the stream at that point (dbgen saves one per chunk).
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    if (lo > hi) [[unlikely]] FailEmptyRange(lo, hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
    return lo + static_cast<int64_t>(Next() % span);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 random bits into the mantissa.
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Skewed (approximately Zipf-like) integer in [lo, hi] biased towards lo.
  int64_t Skewed(int64_t lo, int64_t hi, double exponent);

 private:
  /// Aborts on Uniform(lo, hi) with lo > hi. Out of line, so that the check
  /// does not keep Uniform from inlining.
  static void FailEmptyRange(int64_t lo, int64_t hi);

  uint64_t s0_;
  uint64_t s1_;
};

}  // namespace gpl

#endif  // GPL_COMMON_RANDOM_H_
