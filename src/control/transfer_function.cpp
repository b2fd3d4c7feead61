#include "control/transfer_function.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace abg::control {

Polynomial::Polynomial(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs)) {
  trim();
}

void Polynomial::trim() {
  while (!coeffs_.empty() && coeffs_.back() == 0.0) {
    coeffs_.pop_back();
  }
}

double Polynomial::coeff(std::size_t k) const {
  return k < coeffs_.size() ? coeffs_[k] : 0.0;
}

std::complex<double> Polynomial::eval(std::complex<double> z) const {
  std::complex<double> acc{0.0, 0.0};
  for (auto it = coeffs_.rbegin(); it != coeffs_.rend(); ++it) {
    acc = acc * z + *it;
  }
  return acc;
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  std::vector<double> out(std::max(coeffs_.size(), other.coeffs_.size()), 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = coeff(k) + other.coeff(k);
  }
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator-(const Polynomial& other) const {
  std::vector<double> out(std::max(coeffs_.size(), other.coeffs_.size()), 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = coeff(k) - other.coeff(k);
  }
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  if (is_zero() || other.is_zero()) {
    return Polynomial();
  }
  std::vector<double> out(coeffs_.size() + other.coeffs_.size() - 1, 0.0);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    for (std::size_t j = 0; j < other.coeffs_.size(); ++j) {
      out[i + j] += coeffs_[i] * other.coeffs_[j];
    }
  }
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator*(double scalar) const {
  std::vector<double> out = coeffs_;
  for (double& c : out) {
    c *= scalar;
  }
  return Polynomial(std::move(out));
}

std::vector<std::complex<double>> Polynomial::roots() const {
  if (is_zero()) {
    throw std::invalid_argument("Polynomial::roots: zero polynomial");
  }
  const int deg = degree();
  if (deg == 0) {
    return {};
  }
  if (deg == 1) {
    return {std::complex<double>(-coeffs_[0] / coeffs_[1], 0.0)};
  }
  // Durand–Kerner on the monic normalization.
  std::vector<std::complex<double>> monic(coeffs_.begin(), coeffs_.end());
  const std::complex<double> lead = monic.back();
  for (auto& c : monic) {
    c /= lead;
  }
  auto eval_monic = [&](std::complex<double> z) {
    std::complex<double> acc{0.0, 0.0};
    for (auto it = monic.rbegin(); it != monic.rend(); ++it) {
      acc = acc * z + *it;
    }
    return acc;
  };
  std::vector<std::complex<double>> zs(static_cast<std::size_t>(deg));
  const std::complex<double> seed{0.4, 0.9};
  std::complex<double> p{1.0, 0.0};
  for (auto& z : zs) {
    p *= seed;
    z = p;
  }
  for (int iter = 0; iter < 500; ++iter) {
    double shift = 0.0;
    for (std::size_t i = 0; i < zs.size(); ++i) {
      std::complex<double> denom{1.0, 0.0};
      for (std::size_t j = 0; j < zs.size(); ++j) {
        if (j != i) {
          denom *= zs[i] - zs[j];
        }
      }
      const std::complex<double> delta = eval_monic(zs[i]) / denom;
      zs[i] -= delta;
      shift = std::max(shift, std::abs(delta));
    }
    if (shift < 1e-13) {
      break;
    }
  }
  return zs;
}

TransferFunction::TransferFunction(Polynomial num, Polynomial den)
    : num_(std::move(num)), den_(std::move(den)) {
  if (den_.is_zero()) {
    throw std::invalid_argument("TransferFunction: zero denominator");
  }
}

std::vector<std::complex<double>> TransferFunction::zeros() const {
  if (num_.is_zero()) {
    return {};
  }
  return num_.roots();
}

std::complex<double> TransferFunction::eval(std::complex<double> z) const {
  const std::complex<double> d = den_.eval(z);
  if (std::abs(d) < 1e-300) {
    throw std::invalid_argument("TransferFunction::eval: evaluated at a pole");
  }
  return num_.eval(z) / d;
}

double TransferFunction::dc_gain() const {
  return eval(std::complex<double>(1.0, 0.0)).real();
}

TransferFunction TransferFunction::series(const TransferFunction& other) const {
  return TransferFunction(num_ * other.num_, den_ * other.den_);
}

TransferFunction TransferFunction::feedback() const {
  // H/(1+H) with H = num/den  =>  num / (den + num).
  return TransferFunction(num_, den_ + num_);
}

std::vector<double> TransferFunction::simulate(
    const std::vector<double>& input) const {
  const int m = den_.degree();
  const int d = num_.degree();
  if (d > m) {
    throw std::invalid_argument(
        "TransferFunction::simulate: improper (non-causal) system");
  }
  const double am = den_.coeff(static_cast<std::size_t>(m));
  std::vector<double> output(input.size(), 0.0);
  for (std::size_t t = 0; t < input.size(); ++t) {
    double acc = 0.0;
    // Σ b_k u[t-m+k]  for k = 0..d
    for (int k = 0; k <= d; ++k) {
      const std::ptrdiff_t idx =
          static_cast<std::ptrdiff_t>(t) - m + k;
      if (idx >= 0) {
        acc += num_.coeff(static_cast<std::size_t>(k)) *
               input[static_cast<std::size_t>(idx)];
      }
    }
    // − Σ a_k y[t-m+k]  for k = 0..m-1
    for (int k = 0; k < m; ++k) {
      const std::ptrdiff_t idx =
          static_cast<std::ptrdiff_t>(t) - m + k;
      if (idx >= 0) {
        acc -= den_.coeff(static_cast<std::size_t>(k)) *
               output[static_cast<std::size_t>(idx)];
      }
    }
    output[t] = acc / am;
  }
  return output;
}

std::vector<double> unit_step(std::size_t length, double amplitude) {
  return std::vector<double>(length, amplitude);
}

std::vector<double> impulse(std::size_t length, double amplitude) {
  std::vector<double> u(length, 0.0);
  if (!u.empty()) {
    u[0] = amplitude;
  }
  return u;
}

}  // namespace abg::control
