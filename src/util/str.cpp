#include "util/str.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/check.h"

namespace xhc::util {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<std::size_t> parse_size(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::size_t mult = 1;
  const char last = s.back();
  if (last == 'K' || last == 'k') {
    mult = 1024;
    s.remove_suffix(1);
  } else if (last == 'M' || last == 'm') {
    mult = 1024 * 1024;
    s.remove_suffix(1);
  } else if (last == 'G' || last == 'g') {
    mult = 1024ull * 1024 * 1024;
    s.remove_suffix(1);
  }
  if (s.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value * mult;
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      throw Error("unexpected argument '" + std::string(arg) +
                  "': flags take the form --key or --key=value");
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      kv_.emplace_back(std::string(arg), "");
    } else {
      kv_.emplace_back(std::string(arg.substr(0, eq)),
                       std::string(arg.substr(eq + 1)));
    }
  }
}

bool Args::has(std::string_view key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

std::vector<std::string> Args::get_all(std::string_view key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

std::string Args::get(std::string_view key, std::string def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return def;
}

namespace {

/// Parses all of `v` with the strtol/strtod-style `parse`; garbage,
/// trailing junk or an out-of-range value throws naming the flag.
template <typename Parse>
auto parse_number(std::string_view key, const std::string& v, Parse parse) {
  char* end = nullptr;
  errno = 0;
  const auto x = parse(v.c_str(), &end);
  const bool range = errno == ERANGE;
  if (end == v.c_str() || *end != '\0' || range) {
    throw Error("--" + std::string(key) + "=" + v +
                (range ? ": out of range" : ": not a number"));
  }
  return x;
}

}  // namespace

long Args::get_long(std::string_view key, long def) const {
  const std::string v = get(key, "");
  if (v.empty()) return def;
  return parse_number(key, v, [](const char* s, char** end) {
    return std::strtol(s, end, 10);
  });
}

double Args::get_double(std::string_view key, double def) const {
  const std::string v = get(key, "");
  if (v.empty()) return def;
  return parse_number(key, v, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

}  // namespace xhc::util
