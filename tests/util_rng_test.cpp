#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

namespace abg::util {
namespace {

// Rng as it was written over std::mt19937_64: the same draw shapes, split
// and derive, so the library's engine can be checked against the standard
// one through every entry point.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : engine_(seed) {}

  static ReferenceRng derive(std::uint64_t base_seed, std::uint64_t index) {
    return ReferenceRng(Rng::derive_seed(base_seed, index));
  }

  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double log_uniform(double lo, double hi) {
    return std::clamp(std::exp(uniform_real(std::log(lo), std::log(hi))), lo,
                      hi);
  }
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  std::int64_t geometric(double p, std::int64_t max_value) {
    return std::min<std::int64_t>(
        std::geometric_distribution<std::int64_t>(p)(engine_), max_value);
  }
  ReferenceRng split() {
    std::uint64_t z = engine_() + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= (z >> 31);
    return ReferenceRng(z ^ engine_());
  }

 private:
  std::mt19937_64 engine_;
};

// One draw of every shape, from both generators; false on the first
// mismatch.
bool same_draws(Rng& rng, ReferenceRng& ref) {
  return rng.uniform_int(-1000, 1 << 30) == ref.uniform_int(-1000, 1 << 30) &&
         rng.uniform_real(0.5, 2.5) == ref.uniform_real(0.5, 2.5) &&
         rng.log_uniform(2.0, 100.0) == ref.log_uniform(2.0, 100.0) &&
         rng.bernoulli(0.3) == ref.bernoulli(0.3) &&
         rng.geometric(0.05, 40) == ref.geometric(0.05, 40);
}

// The draw counts around the engine's first-pass boundaries: 156 is where
// the twist starts reading already-twisted words, 312 where the first pass
// ends and the whole-state twist takes over.
constexpr std::array<int, 12> kBoundaryCounts = {
    0, 1, 2, 5, 155, 156, 157, 311, 312, 313, 624, 1000};

TEST(LazyMt19937_64, MatchesStdMt19937_64AtEveryBoundaryDrawCount) {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seeds.push_back(Rng::derive_seed(20081, i));
  }
  for (const std::uint64_t seed : seeds) {
    LazyMt19937_64 lazy(seed);
    std::mt19937_64 standard(seed);
    int drawn = 0;
    for (const int count : kBoundaryCounts) {
      for (; drawn < count; ++drawn) {
        if (lazy() != standard()) {
          FAIL() << "seed " << seed << " differs at draw " << drawn;
        }
      }
      // The state after `count` draws, checked through a copy so the main
      // sequence continues undisturbed.
      LazyMt19937_64 lazy_copy = lazy;
      std::mt19937_64 standard_copy = standard;
      if (lazy_copy() != standard_copy()) {
        FAIL() << "seed " << seed << " differs after " << count << " draws";
      }
    }
  }
}

TEST(LazyMt19937_64, CopyMidFirstPassContinuesIdentically) {
  for (const int count : {1, 2, 3, 7, 77, 155, 156, 157, 200, 255, 311}) {
    LazyMt19937_64 original(Rng::derive_seed(7, count));
    std::mt19937_64 standard(Rng::derive_seed(7, count));
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(original(), standard());
    }
    LazyMt19937_64 copy = original;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t expected = standard();
      ASSERT_EQ(copy(), expected) << "copy after " << count << ", draw " << i;
      ASSERT_EQ(original(), expected)
          << "original after " << count << ", draw " << i;
    }
  }
}

TEST(LazyMt19937_64, TenThousandthOutputOfTheDefaultSeed) {
  // The standard's own check on mt19937_64 ([rand.predef]): the 10000th
  // consecutive output of a default-constructed engine (seed 5489).
  LazyMt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) {
    engine();
  }
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(LazyMt19937_64, StandardDistributionsDrawTheSameValues) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    LazyMt19937_64 lazy(Rng::derive_seed(3, seed));
    std::mt19937_64 standard(Rng::derive_seed(3, seed));
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(std::normal_distribution<double>(5.0, 2.0)(lazy),
                std::normal_distribution<double>(5.0, 2.0)(standard));
      ASSERT_EQ(std::exponential_distribution<double>(0.25)(lazy),
                std::exponential_distribution<double>(0.25)(standard));
      ASSERT_EQ(std::poisson_distribution<int>(30.0)(lazy),
                std::poisson_distribution<int>(30.0)(standard));
      ASSERT_EQ(std::uniform_int_distribution<int>(0, 6)(lazy),
                std::uniform_int_distribution<int>(0, 6)(standard));
      ASSERT_EQ((std::generate_canonical<double, 64>(lazy)),
                (std::generate_canonical<double, 64>(standard)));
    }
    std::vector<int> a(50);
    std::iota(a.begin(), a.end(), 0);
    std::vector<int> b = a;
    std::shuffle(a.begin(), a.end(), lazy);
    std::shuffle(b.begin(), b.end(), standard);
    ASSERT_EQ(a, b);
  }
}

TEST(Rng, SplitAndDeriveMatchAReferenceOverStdMt19937_64) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    ReferenceRng ref(seed);
    for (int generation = 0; generation < 4; ++generation) {
      Rng child = rng.split();
      ReferenceRng ref_child = ref.split();
      for (int i = 0; i < 80; ++i) {
        ASSERT_TRUE(same_draws(child, ref_child))
            << "seed " << seed << " split " << generation << " draw " << i;
      }
      ASSERT_TRUE(same_draws(rng, ref)) << "seed " << seed;
    }
    Rng derived = Rng::derive(seed, seed * 31 + 7);
    ReferenceRng ref_derived = ReferenceRng::derive(seed, seed * 31 + 7);
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(same_draws(derived, ref_derived))
          << "derived stream of seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 32);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformRealStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(0.5, 2.5);
    EXPECT_GE(v, 0.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, UniformRealRejectsEmptyRange) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform_real(1.0, 1.0), std::invalid_argument);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.log_uniform(2.0, 100.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(Rng, LogUniformDegenerateRange) {
  Rng rng(13);
  EXPECT_DOUBLE_EQ(rng.log_uniform(5.0, 5.0), 5.0);
}

TEST(Rng, LogUniformRejectsNonPositive) {
  Rng rng(13);
  EXPECT_THROW(rng.log_uniform(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.log_uniform(-1.0, 1.0), std::invalid_argument);
}

TEST(Rng, LogUniformFavorsSmallValues) {
  // Median of log-uniform on [1, 100] is 10 — far below the arithmetic
  // midpoint 50.5.
  Rng rng(17);
  int below_ten = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (rng.log_uniform(1.0, 100.0) < 10.0) {
      ++below_ten;
    }
  }
  EXPECT_NEAR(static_cast<double>(below_ten) / n, 0.5, 0.05);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliClampsOutOfRange) {
  Rng rng(19);
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(23);
  int heads = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    heads += rng.bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.5, 0.05);
}

TEST(Rng, GeometricTruncates) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(rng.geometric(0.01, 5), 5);
  }
}

TEST(Rng, GeometricCertainSuccessIsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.geometric(1.0, 100), 0);
}

TEST(Rng, GeometricRejectsBadProbability) {
  Rng rng(29);
  EXPECT_THROW(rng.geometric(0.0, 10), std::invalid_argument);
  EXPECT_THROW(rng.geometric(1.5, 10), std::invalid_argument);
  EXPECT_THROW(rng.geometric(0.5, -1), std::invalid_argument);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ca.uniform_int(0, 1 << 30), cb.uniform_int(0, 1 << 30));
  }
}

TEST(Rng, SplitChildDiffersFromParentContinuation) {
  Rng parent(123);
  Rng child = parent.split();
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.uniform_int(0, 1 << 30) != child.uniform_int(0, 1 << 30)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 32);
}

TEST(Rng, SequentialSplitsDiffer) {
  Rng parent(7);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.uniform_int(0, 1 << 30) != c2.uniform_int(0, 1 << 30)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 32);
}


TEST(Rng, DeriveSeedIsAPureFunction) {
  EXPECT_EQ(Rng::derive_seed(2008, 0), Rng::derive_seed(2008, 0));
  EXPECT_EQ(Rng::derive_seed(2008, 41), Rng::derive_seed(2008, 41));
  EXPECT_NE(Rng::derive_seed(2008, 0), Rng::derive_seed(2008, 1));
  EXPECT_NE(Rng::derive_seed(2008, 0), Rng::derive_seed(2009, 0));
}

TEST(Rng, DeriveMatchesDeriveSeed) {
  Rng from_seed(Rng::derive_seed(5, 17));
  Rng derived = Rng::derive(5, 17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(from_seed.uniform_int(0, 1 << 30),
              derived.uniform_int(0, 1 << 30));
  }
}

TEST(Rng, DerivedStreamsAreIndependent) {
  // Neighbouring indices and neighbouring bases must not produce
  // correlated streams (ad-hoc `seed + 1` reseeding used to risk this).
  Rng a = Rng::derive(1000, 1);
  Rng b = Rng::derive(1000, 2);
  Rng c = Rng::derive(1001, 1);
  int ab = 0;
  int ac = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.uniform_int(0, 1 << 30);
    const auto vb = b.uniform_int(0, 1 << 30);
    const auto vc = c.uniform_int(0, 1 << 30);
    ab += va != vb;
    ac += va != vc;
  }
  EXPECT_GT(ab, 32);
  EXPECT_GT(ac, 32);
}

}  // namespace
}  // namespace abg::util
