// Discrete-time (z-domain) rational transfer functions.
//
// Section 4 of the paper analyses ABG as a feedback loop in the z-domain:
// the controller G(z) = K/(z−1), the plant ("B-Greedy") S(z) = 1/A, and the
// closed loop T(z) = G·S / (1 + G·S) = (K/A) / (z − (1 − K/A)).  This module
// provides the small amount of linear-systems machinery needed to state and
// test those results exactly: polynomials over z, rational functions,
// pole computation (Durand–Kerner), and time-domain simulation of the
// difference equation a rational T(z) induces.
#pragma once

#include <complex>
#include <vector>

namespace abg::control {

/// Polynomial in z with real coefficients, stored lowest power first:
/// coeffs[k] multiplies z^k.  The zero polynomial has an empty coefficient
/// vector after normalization.
class Polynomial {
 public:
  Polynomial() = default;

  /// Constructs from coefficients, lowest power first; trailing (highest
  /// power) zeros are trimmed.
  explicit Polynomial(std::vector<double> coeffs);

  /// Degree; -1 for the zero polynomial.
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }

  bool is_zero() const { return coeffs_.empty(); }

  /// Coefficient of z^k (0 beyond the degree).
  double coeff(std::size_t k) const;

  const std::vector<double>& coeffs() const { return coeffs_; }

  /// Evaluation at a complex point.
  std::complex<double> eval(std::complex<double> z) const;

  Polynomial operator+(const Polynomial& other) const;
  Polynomial operator-(const Polynomial& other) const;
  Polynomial operator*(const Polynomial& other) const;
  Polynomial operator*(double scalar) const;

  bool operator==(const Polynomial& other) const = default;

  /// All complex roots (Durand–Kerner iteration).  Throws for the zero
  /// polynomial; a constant polynomial has no roots.
  std::vector<std::complex<double>> roots() const;

 private:
  void trim();
  std::vector<double> coeffs_;
};

/// Rational transfer function H(z) = num(z) / den(z).
class TransferFunction {
 public:
  /// Requires a non-zero denominator.
  TransferFunction(Polynomial num, Polynomial den);

  const Polynomial& num() const { return num_; }
  const Polynomial& den() const { return den_; }

  /// Poles: roots of the denominator.  (No pole/zero cancellation is
  /// attempted; callers compose loops symbolically and cancellations do not
  /// arise in the first-order systems used here.)
  std::vector<std::complex<double>> poles() const { return den_.roots(); }

  /// Zeros: roots of the numerator.
  std::vector<std::complex<double>> zeros() const;

  /// Evaluation at a complex point; the point must not be a pole.
  std::complex<double> eval(std::complex<double> z) const;

  /// DC gain H(1) — the steady-state amplification of a unit step (final
  /// value theorem).  Throws if z = 1 is a pole.
  double dc_gain() const;

  /// Series composition: this(z) * other(z).
  TransferFunction series(const TransferFunction& other) const;

  /// Unity negative feedback closure: H / (1 + H).
  TransferFunction feedback() const;

  /// Simulates the induced difference equation with zero initial
  /// conditions on the given input sequence, returning the output sequence
  /// of equal length.  Requires deg(num) <= deg(den) (proper system).
  std::vector<double> simulate(const std::vector<double>& input) const;

 private:
  Polynomial num_;
  Polynomial den_;
};

/// Convenience inputs.
std::vector<double> unit_step(std::size_t length, double amplitude = 1.0);
std::vector<double> impulse(std::size_t length, double amplitude = 1.0);

}  // namespace abg::control
