// Minimal command-line flag parsing for the bench / example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms.  The
// binaries use only a handful of flags (seed, sizes, --full, --csv), so a
// small hand-rolled parser keeps the repository dependency-free.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace abg::util {

/// Parsed command-line flags.
class Cli {
 public:
  /// Parses argv.  Unrecognized positional arguments are collected in
  /// `positional()`.  Throws std::invalid_argument on a malformed flag
  /// (e.g. `--=3`).
  Cli(int argc, const char* const* argv);

  /// True if --name was present in any form.
  bool has(const std::string& name) const;

  /// Returns the flag's value, or `fallback` if absent.  A bare boolean flag
  /// returns "true".  When the flag was repeated, the last occurrence wins.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Every value the flag was given, in order of appearance; empty when the
  /// flag is absent.  This is how grid flags (`--param k=v1,v2 --param ...`)
  /// are collected.
  std::vector<std::string> get_all(const std::string& name) const;

  /// Integer-valued flag; throws std::invalid_argument when the value does
  /// not parse.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// As get_int, but additionally throws std::invalid_argument when the
  /// flag is present with a value < 1 — for count-like flags where 0 or a
  /// negative value is a contradiction, not a fallback request.  The
  /// fallback itself is returned unvalidated when the flag is absent.
  std::int64_t get_positive_int(const std::string& name,
                                std::int64_t fallback) const;

  /// As get_int, but additionally throws std::invalid_argument when the
  /// flag is present with a value < 0 — for budget-like flags (retry
  /// counts) where 0 is meaningful but a negative value is garbage.
  std::int64_t get_non_negative_int(const std::string& name,
                                    std::int64_t fallback) const;

  /// Real-valued flag; throws std::invalid_argument when the value does not
  /// parse.
  double get_double(const std::string& name, double fallback) const;

  /// As get_double, but additionally throws std::invalid_argument when the
  /// flag is present with a value <= 0 — for duration-like flags (timeouts,
  /// backoff bases) where zero or negative time is a contradiction.
  double get_positive_double(const std::string& name, double fallback) const;

  /// Boolean flag: present without value, or with value true/false/1/0.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Strict-flag validation: throws std::invalid_argument naming the first
  /// flag not in `allowed`, with the full allowed list in the message
  /// (sorted).  Tools that take a closed flag set call this once after
  /// construction so a typo fails loudly instead of being ignored.
  void reject_unknown(const std::vector<std::string>& allowed) const;

 private:
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace abg::util
