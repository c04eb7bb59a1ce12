#include "src/common/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace macaron::cli {

void BadValue(const char* name, const std::string& v, const char* expected) {
  std::fprintf(stderr, "invalid value '%s' for %s: expected %s\n", v.c_str(), name, expected);
  std::exit(2);
}

double ParseReal(const char* name, const std::string& v, double lo, double hi,
                 const char* expected) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) != 0 ||
      end != v.c_str() + v.size() || errno == ERANGE || !std::isfinite(x) || x < lo || x > hi) {
    BadValue(name, v, expected);
  }
  return x;
}

uint64_t ParseUnsigned(const char* name, const std::string& v, uint64_t lo, uint64_t hi,
                       const char* expected) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || std::isdigit(static_cast<unsigned char>(v[0])) == 0 ||
      end != v.c_str() + v.size() || errno == ERANGE || x < lo || x > hi) {
    BadValue(name, v, expected);
  }
  return x;
}

}  // namespace macaron::cli
