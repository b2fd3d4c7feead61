// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library takes an explicit 64-bit seed so
// that experiments are exactly reproducible: the same seed always yields the
// same job, job set, and schedule.  Rng adds the handful of draw shapes the
// workload generators need (uniform ints/reals, log-uniform, bounded
// geometric) and `split`/`derive` operations for child streams over
// LazyMt19937_64, an engine whose output equals std::mt19937_64 draw for
// draw but which builds its state on demand.  The open engine derives one
// stream per admitted job and draws only a handful of values from it, so a
// derived stream costs O(draws), not the 312-word seeding and twist of the
// standard engine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace abg::util {

/// The 64-bit Mersenne Twister (std::mt19937_64's parameters), seeded and
/// twisted lazily on its first pass over the state.  The standard engine
/// seeds all 312 state words on construction and twists all of them on the
/// first draw.  This one twists the words in the standard's index order
/// but only as draws reach them, in batches that double (1, 2, 4, ...
/// words), and seeds a word only when a twist first reads it (twisting
/// word i < 156 reads words up to i + 156).  Every output is the
/// standard's, and a stream of n < 156 draws seeds fewer than 2n + 157
/// words and twists fewer than 2n, where the standard does 312 of each.
/// Later passes twist the whole state at once, as the standard does, so a
/// long stream costs what std::mt19937_64 costs.  Satisfies
/// UniformRandomBitGenerator, so every <random> distribution works over it.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kStateSize = 312;

  explicit LazyMt19937_64(result_type seed) { state_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == twisted_) {
      advance();
    }
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  /// Makes state_[next_] the next untempered output: on the first pass,
  /// twists the next batch of words, seeding what their twists read; on
  /// later passes, twists the whole state and rewinds next_.
  void advance();

  // Zero-initialised so that copying a partly seeded engine reads no
  // indeterminate words.
  std::array<std::uint64_t, kStateSize> state_{};
  std::size_t next_ = 0;     // index of the next word to temper and return
  std::size_t twisted_ = 0;  // words [0, twisted_) of this pass are twisted
  std::size_t seeded_ = 1;   // words [0, seeded_) have been seeded
};

/// Seeded pseudo-random generator with convenience draw methods.
class Rng {
 public:
  /// Constructs a generator from an explicit seed.  Equal seeds produce
  /// identical draw sequences on every platform (the engine reproduces
  /// std::mt19937_64, which the standard fully specifies).
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in the closed interval [lo, hi].  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in the half-open interval [lo, hi).  Requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Uniform real in [0, 1).
  double uniform01() { return uniform_real(0.0, 1.0); }

  /// Log-uniformly distributed real in [lo, hi]; useful for sampling scale
  /// parameters (e.g. phase lengths spanning orders of magnitude).
  /// Requires 0 < lo <= hi.
  double log_uniform(double lo, double hi);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Geometric draw (number of failures before first success) truncated to
  /// at most `max_value`.  Requires 0 < p <= 1 and max_value >= 0.
  std::int64_t geometric(double p, std::int64_t max_value);

  /// Derives an independent child generator.  The child stream is a pure
  /// function of the parent's seed and the sequence of prior splits, so
  /// workload generation stays reproducible when components draw in
  /// different orders.
  Rng split();

  /// Seed of the `index`-th derived stream of `base_seed`: a stateless
  /// splitmix64-style hash of (base_seed, index).  Unlike split(), the
  /// result does not depend on any generator state or call order, which is
  /// what lets N-thread and 1-thread sweeps produce identical runs —
  /// every run's stream is a pure function of (base seed, run index).
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   std::uint64_t index);

  /// Generator seeded with derive_seed(base_seed, index).  Replaces the
  /// ad-hoc `Rng(seed + k)` / `seed ^ salt` reseeding the harnesses used
  /// to write by hand.  Costs O(draws made from it), not O(engine state).
  static Rng derive(std::uint64_t base_seed, std::uint64_t index) {
    return Rng(derive_seed(base_seed, index));
  }

  /// Access to the raw engine for use with standard distributions.
  LazyMt19937_64& engine() { return engine_; }

 private:
  LazyMt19937_64 engine_;
};

}  // namespace abg::util
