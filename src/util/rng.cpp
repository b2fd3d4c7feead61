#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace abg::util {

namespace {

// std::mt19937_64's parameters (the standard's [rand.predef]).
constexpr std::size_t kN = LazyMt19937_64::kStateSize;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// One word of the twist: the top bit of `word`, the low 31 bits of the
// word after it, and the word kM places on.
constexpr std::uint64_t twist(std::uint64_t word, std::uint64_t after,
                              std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (after & kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1U) != 0 ? kMatrixA : 0);
}

}  // namespace

void LazyMt19937_64::advance() {
  if (twisted_ < kN) {
    // First pass: twist words [twisted_, end) in index order, the order
    // the standard's in-place loop twists them, so each twist reads the
    // already-twisted words below it.  Word k's twist reads words k + 1
    // and k + kM (mod kN); seed those first.  The batch doubles, so n
    // draws seed and twist O(n + kM) words in O(log n) calls.
    const std::size_t end = std::min(2 * twisted_ + 1, kN);
    const std::size_t need = std::min(end + kM, kN);
    if (seeded_ < need) {
      // Locals, not members: the state words alias std::size_t, and the
      // recurrence should stay in a register.
      std::uint64_t word = state_[seeded_ - 1];
      for (std::size_t j = seeded_; j < need; ++j) {
        word = kInitMultiplier * (word ^ (word >> 62)) + j;
        state_[j] = word;
      }
      seeded_ = need;
    }
    for (std::size_t k = twisted_; k < end; ++k) {
      const std::size_t after = k + 1 < kN ? k + 1 : 0;
      const std::size_t far = k < kN - kM ? k + kM : k + kM - kN;
      state_[k] = twist(state_[k], state_[after], state_[far]);
    }
    twisted_ = end;
    return;
  }
  // Later passes: the standard's whole-state twist, in its loop order.
  std::size_t k = 0;
  for (; k < kN - kM; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (; k < kN - 1; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  next_ = 0;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) {
    throw std::invalid_argument("Rng::uniform_int: lo > hi");
  }
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::uniform_real(double lo, double hi) {
  if (!(lo < hi)) {
    throw std::invalid_argument("Rng::uniform_real: requires lo < hi");
  }
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::log_uniform(double lo, double hi) {
  if (!(lo > 0.0) || lo > hi) {
    throw std::invalid_argument("Rng::log_uniform: requires 0 < lo <= hi");
  }
  if (lo == hi) {
    return lo;
  }
  const double u = uniform_real(std::log(lo), std::log(hi));
  return std::clamp(std::exp(u), lo, hi);
}

bool Rng::bernoulli(double p) {
  const double q = std::clamp(p, 0.0, 1.0);
  if (q <= 0.0) {
    return false;
  }
  if (q >= 1.0) {
    return true;
  }
  std::bernoulli_distribution dist(q);
  return dist(engine_);
}

std::int64_t Rng::geometric(double p, std::int64_t max_value) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument("Rng::geometric: requires 0 < p <= 1");
  }
  if (max_value < 0) {
    throw std::invalid_argument("Rng::geometric: requires max_value >= 0");
  }
  if (p >= 1.0) {
    return 0;
  }
  std::geometric_distribution<std::int64_t> dist(p);
  return std::min<std::int64_t>(dist(engine_), max_value);
}

namespace {

// splitmix64 finalizer: the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t Rng::derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  // Two rounds of splitmix64 over base and index keep distinct indices
  // (and distinct bases) statistically independent even for small inputs.
  const std::uint64_t a = mix64(base_seed + 0x9E3779B97F4A7C15ULL);
  const std::uint64_t b = mix64(index + 0xD1B54A32D192ED03ULL);
  return mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

Rng Rng::split() {
  // Mix two draws through splitmix64-style finalization so child streams do
  // not overlap with the parent's continued output in practice.
  std::uint64_t z = engine_() + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= (z >> 31);
  return Rng(z ^ engine_());
}

}  // namespace abg::util
