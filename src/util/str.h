// Small string / CLI helpers shared by benches and examples.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xhc::util {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses sizes like "4", "2K", "1M" (powers of 1024). Returns nullopt on
/// malformed input.
std::optional<std::size_t> parse_size(std::string_view s);

/// Minimal --key=value / --flag argument scanner for the bench binaries.
/// Any other token throws util::Error naming it (`--preset armn1` would
/// otherwise drop `armn1` and run every preset).
class Args {
 public:
  Args(int argc, char** argv);

  bool has(std::string_view key) const;
  std::string get(std::string_view key, std::string def) const;
  /// Every value given for a repeatable --key=value flag, in argv order.
  std::vector<std::string> get_all(std::string_view key) const;
  /// Numeric values must parse in full: garbage, trailing junk or an
  /// out-of-range value throws util::Error naming the flag. An empty value
  /// (`--key=`) yields `def`.
  long get_long(std::string_view key, long def) const;
  double get_double(std::string_view key, double def) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

}  // namespace xhc::util
