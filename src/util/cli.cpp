#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

namespace abg::util {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string name = body.substr(0, eq);
      if (name.empty()) {
        throw std::invalid_argument("Cli: malformed flag '" + arg + "'");
      }
      flags_[name].push_back(body.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean flag.
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      flags_[body].push_back(argv[i + 1]);
      ++i;
    } else {
      flags_[body].push_back("true");
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.contains(name); }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second.back();
}

std::vector<std::string> Cli::get_all(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(it->second.back(), &pos);
    if (pos != it->second.back().size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Cli: flag --" + name +
                                " expects an integer, got '" + it->second.back() +
                                "'");
  }
}

std::int64_t Cli::get_positive_int(const std::string& name,
                                   std::int64_t fallback) const {
  if (!has(name)) {
    return fallback;
  }
  const std::int64_t value = get_int(name, fallback);
  if (value < 1) {
    throw std::invalid_argument("Cli: flag --" + name +
                                " expects a positive integer, got '" +
                                get(name, "") + "'");
  }
  return value;
}

std::int64_t Cli::get_non_negative_int(const std::string& name,
                                       std::int64_t fallback) const {
  if (!has(name)) {
    return fallback;
  }
  const std::int64_t value = get_int(name, fallback);
  if (value < 0) {
    throw std::invalid_argument("Cli: flag --" + name +
                                " expects a non-negative integer, got '" +
                                get(name, "") + "'");
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const double value = std::stod(it->second.back(), &pos);
    if (pos != it->second.back().size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Cli: flag --" + name +
                                " expects a real number, got '" + it->second.back() +
                                "'");
  }
}

double Cli::get_positive_double(const std::string& name,
                                double fallback) const {
  if (!has(name)) {
    return fallback;
  }
  const double value = get_double(name, fallback);
  if (!(value > 0.0)) {
    throw std::invalid_argument("Cli: flag --" + name +
                                " expects a positive real number, got '" +
                                get(name, "") + "'");
  }
  return value;
}

void Cli::reject_unknown(const std::vector<std::string>& allowed) const {
  for (const auto& [name, values] : flags_) {
    bool known = false;
    for (const std::string& a : allowed) {
      if (name == a) {
        known = true;
        break;
      }
    }
    if (known) {
      continue;
    }
    std::vector<std::string> sorted = allowed;
    std::sort(sorted.begin(), sorted.end());
    std::string list;
    for (const std::string& a : sorted) {
      if (!list.empty()) {
        list += ", --";
      }
      list += a;
    }
    throw std::invalid_argument("Cli: unknown flag --" + name +
                                " (valid flags: --" + list + ")");
  }
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  const std::string& v = it->second.back();
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw std::invalid_argument("Cli: flag --" + name +
                              " expects a boolean, got '" + v + "'");
}

}  // namespace abg::util
