#include "src/common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace fabricsim {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string StrTrim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r'))
    ++b;
  while (e > b &&
         (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
          s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::string PadKey(uint64_t value, int width) {
  std::string digits = std::to_string(value);
  if (static_cast<int>(digits.size()) >= width) return digits;
  return std::string(static_cast<size_t>(width) - digits.size(), '0') + digits;
}

namespace {
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

uint64_t Fnv1a(const std::string& data) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace fabricsim
