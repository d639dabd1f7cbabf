#ifndef FABRICSIM_COMMON_STRINGS_H_
#define FABRICSIM_COMMON_STRINGS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace fabricsim {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(const std::string& s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string StrTrim(const std::string& s);

/// Zero-pads `value` to `width` digits, e.g. PadKey(7, 4) == "0007".
/// Fabric range queries compare keys lexicographically, so all numeric
/// keys in the chaincodes use fixed-width encoding.
std::string PadKey(uint64_t value, int width);

/// FNV-1a 64-bit hash, one byte per multiply. The trace goldens
/// (ChannelGoldenTest) pin its value on exported trace text, so it
/// keeps this bytewise form; in-process digests use MixWord/MixString.
uint64_t Fnv1a(const std::string& data);

/// One step of the word-at-a-time hash behind rw-set digests and block
/// content and chain hashes: folds 8 bytes into `h` with one 64-bit
/// multiply and an xorshift. For a fixed `h` the step is a bijection of
/// `word`. These hashes are only compared for equality inside one
/// process; none is pinned or printed.
inline uint64_t MixWord(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

/// Folds `data` into `h`: its length first, so adjacent strings cannot
/// shift bytes into each other, then 8 bytes per MixWord step. The last
/// partial word is an overlapping load that ends at the last byte;
/// strings shorter than 8 bytes are packed into one word. Loads follow
/// the host's byte order.
inline uint64_t MixString(uint64_t h, std::string_view data) {
  const char* p = data.data();
  const size_t n = data.size();
  h = MixWord(h, n);
  if (n >= 8) {
    uint64_t word = 0;
    const char* last = p + n - 8;
    for (; p < last; p += 8) {
      std::memcpy(&word, p, 8);
      h = MixWord(h, word);
    }
    std::memcpy(&word, last, 8);
    return MixWord(h, word);
  }
  if (n >= 4) {
    uint32_t head = 0;
    uint32_t tail = 0;
    std::memcpy(&head, p, 4);
    std::memcpy(&tail, p + n - 4, 4);
    return MixWord(h, (static_cast<uint64_t>(head) << 32) | tail);
  }
  if (n > 0) {
    const auto byte = [p](size_t i) {
      return static_cast<uint64_t>(static_cast<unsigned char>(p[i]));
    };
    return MixWord(h, (byte(0) << 16) | (byte(n / 2) << 8) | byte(n - 1));
  }
  return h;
}

}  // namespace fabricsim

#endif  // FABRICSIM_COMMON_STRINGS_H_
