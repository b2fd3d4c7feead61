#include <gtest/gtest.h>

#include <algorithm>
#include <complex>

#include "control/transfer_function.hpp"

namespace abg::control {
namespace {

TEST(Polynomial, DefaultIsZero) {
  Polynomial p;
  EXPECT_TRUE(p.is_zero());
  EXPECT_EQ(p.degree(), -1);
  EXPECT_EQ(p.eval(3.0), std::complex<double>(0.0));
}

TEST(Polynomial, TrimsTrailingZeros) {
  Polynomial p({1.0, 2.0, 0.0, 0.0});
  EXPECT_EQ(p.degree(), 1);
  EXPECT_DOUBLE_EQ(p.coeff(0), 1.0);
  EXPECT_DOUBLE_EQ(p.coeff(1), 2.0);
  EXPECT_DOUBLE_EQ(p.coeff(5), 0.0);
}

TEST(Polynomial, AllZeroCoefficientsIsZero) {
  Polynomial p({0.0, 0.0});
  EXPECT_TRUE(p.is_zero());
}

TEST(Polynomial, EvalHorner) {
  // p(z) = 2 - 3z + z^2; p(2) = 2 - 6 + 4 = 0; p(5) = 2 - 15 + 25 = 12.
  Polynomial p({2.0, -3.0, 1.0});
  EXPECT_EQ(p.eval(2.0), std::complex<double>(0.0));
  EXPECT_EQ(p.eval(5.0), std::complex<double>(12.0));
}

TEST(Polynomial, ComplexEval) {
  // p(z) = z^2 + 1; p(i) = 0.
  Polynomial p({1.0, 0.0, 1.0});
  const auto v = p.eval(std::complex<double>(0.0, 1.0));
  EXPECT_NEAR(std::abs(v), 0.0, 1e-12);
}

TEST(Polynomial, Addition) {
  Polynomial a({1.0, 2.0});
  Polynomial b({3.0, -2.0, 5.0});
  const Polynomial c = a + b;
  EXPECT_EQ(c.degree(), 2);
  EXPECT_DOUBLE_EQ(c.coeff(0), 4.0);
  EXPECT_DOUBLE_EQ(c.coeff(1), 0.0);
  EXPECT_DOUBLE_EQ(c.coeff(2), 5.0);
}

TEST(Polynomial, AdditionCancelsToLowerDegree) {
  Polynomial a({1.0, 1.0});
  Polynomial b({0.0, -1.0});
  const Polynomial c = a + b;
  EXPECT_EQ(c.degree(), 0);
}

TEST(Polynomial, Subtraction) {
  Polynomial a({5.0, 5.0});
  Polynomial b({2.0, 3.0});
  const Polynomial c = a - b;
  EXPECT_DOUBLE_EQ(c.coeff(0), 3.0);
  EXPECT_DOUBLE_EQ(c.coeff(1), 2.0);
}

TEST(Polynomial, Multiplication) {
  // (1 + z)(1 - z) = 1 - z^2.
  Polynomial a({1.0, 1.0});
  Polynomial b({1.0, -1.0});
  const Polynomial c = a * b;
  EXPECT_EQ(c.degree(), 2);
  EXPECT_DOUBLE_EQ(c.coeff(0), 1.0);
  EXPECT_DOUBLE_EQ(c.coeff(1), 0.0);
  EXPECT_DOUBLE_EQ(c.coeff(2), -1.0);
}

TEST(Polynomial, MultiplicationByZero) {
  Polynomial a({1.0, 1.0});
  const Polynomial c = a * Polynomial();
  EXPECT_TRUE(c.is_zero());
}

TEST(Polynomial, ScalarMultiplication) {
  Polynomial a({1.0, -2.0});
  const Polynomial c = a * 3.0;
  EXPECT_DOUBLE_EQ(c.coeff(0), 3.0);
  EXPECT_DOUBLE_EQ(c.coeff(1), -6.0);
}

TEST(Polynomial, RootsLinear) {
  // 3z - 6 = 0 -> z = 2.
  Polynomial p({-6.0, 3.0});
  const auto roots = p.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_NEAR(roots[0].real(), 2.0, 1e-12);
  EXPECT_NEAR(roots[0].imag(), 0.0, 1e-12);
}

TEST(Polynomial, RootsQuadraticReal) {
  // (z-1)(z-3) = 3 - 4z + z^2.
  Polynomial p({3.0, -4.0, 1.0});
  auto roots = p.roots();
  ASSERT_EQ(roots.size(), 2u);
  std::sort(roots.begin(), roots.end(),
            [](auto a, auto b) { return a.real() < b.real(); });
  EXPECT_NEAR(roots[0].real(), 1.0, 1e-9);
  EXPECT_NEAR(roots[1].real(), 3.0, 1e-9);
  EXPECT_NEAR(roots[0].imag(), 0.0, 1e-9);
}

TEST(Polynomial, RootsComplexConjugates) {
  // z^2 + 1 = 0 -> z = ±i.
  Polynomial p({1.0, 0.0, 1.0});
  const auto roots = p.roots();
  ASSERT_EQ(roots.size(), 2u);
  for (const auto& r : roots) {
    EXPECT_NEAR(std::abs(r), 1.0, 1e-9);
    EXPECT_NEAR(r.real(), 0.0, 1e-9);
  }
}

TEST(Polynomial, RootsCubic) {
  // (z-1)(z-2)(z+3) = z^3 - 7z + 6... expand: (z-1)(z-2) = z^2-3z+2;
  // times (z+3): z^3 + 3z^2 - 3z^2 - 9z + 2z + 6 = z^3 - 7z + 6.
  Polynomial p({6.0, -7.0, 0.0, 1.0});
  auto roots = p.roots();
  ASSERT_EQ(roots.size(), 3u);
  std::vector<double> reals;
  for (const auto& r : roots) {
    EXPECT_NEAR(r.imag(), 0.0, 1e-8);
    reals.push_back(r.real());
  }
  std::sort(reals.begin(), reals.end());
  EXPECT_NEAR(reals[0], -3.0, 1e-8);
  EXPECT_NEAR(reals[1], 1.0, 1e-8);
  EXPECT_NEAR(reals[2], 2.0, 1e-8);
}

TEST(Polynomial, RootsConstantHasNone) {
  Polynomial p({4.0});
  EXPECT_TRUE(p.roots().empty());
}

TEST(Polynomial, RootsZeroThrows) {
  Polynomial p;
  EXPECT_THROW(p.roots(), std::invalid_argument);
}

TEST(Polynomial, Equality) {
  EXPECT_EQ(Polynomial({1.0, 2.0}), Polynomial({1.0, 2.0, 0.0}));
  EXPECT_NE(Polynomial({1.0}), Polynomial({2.0}));
}

}  // namespace
}  // namespace abg::control
