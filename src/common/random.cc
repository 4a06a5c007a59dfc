#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace gpl {

namespace {
uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Random::Random(uint64_t seed) {
  uint64_t state = seed;
  s0_ = SplitMix64(state);
  s1_ = SplitMix64(state);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;  // xorshift state must be non-zero.
}

void Random::FailEmptyRange(int64_t lo, int64_t hi) {
  GPL_CHECK(lo <= hi) << "Uniform(" << lo << ", " << hi << ")";
}

int64_t Random::Skewed(int64_t lo, int64_t hi, double exponent) {
  GPL_DCHECK(lo <= hi);
  const double u = NextDouble();
  const double span = static_cast<double>(hi - lo + 1);
  const double v = std::pow(u, exponent) * span;
  int64_t result = lo + static_cast<int64_t>(v);
  if (result > hi) result = hi;
  return result;
}

}  // namespace gpl
