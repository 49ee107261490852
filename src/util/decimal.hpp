// printf("%.17g") for doubles, from exact integer arithmetic.
//
// The text output writes every coordinate and weight as "%.17g", which
// round-trips every double. std::to_chars(v, general, 17) writes the same
// bytes but takes its general precision path at ~100 ns a value; here a
// double in the range the clustered data lives in is formatted from one
// 128-bit product instead. A double is m * 2^e with m < 2^53. When e < 0
// and the value is at least 2^-19, the 17 significant digits are
// n = m * 10^q >> -e with q = 16 - floor(log10 |v|) <= 22, so m * 10^q
// fits in 128 bits and n and its remainder are exact; the remainder
// rounds n half to even, as printf and to_chars do. Integral values
// below 1e17 take the integer formatter, and the other values outside
// the kernel's range std::to_chars.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace mrscan::util {

/// The most bytes write_g17 stores from `first`. The longest result is 24
/// characters ("-1.2345678901234567e-308"), but the kernel copies digits
/// in fixed 16- and 17-byte moves, which reach 34 bytes and leave a tail
/// past the returned end for the next write to overwrite.
inline constexpr std::ptrdiff_t kG17WriteBytes = 34;

namespace detail {

using u128 = unsigned __int128;

/// 10^i for i in [0, 22].
constexpr std::array<u128, 23> kPow10 = [] {
  std::array<u128, 23> pow10{};
  pow10[0] = 1;
  for (std::size_t i = 1; i < pow10.size(); ++i) pow10[i] = pow10[i - 1] * 10;
  return pow10;
}();

/// "00" "01" ... "99".
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Write the 8 decimal digits of x < 10^8, leading zeros included.
inline void put8(char* out, std::uint32_t x) {
  for (int i = 6; i >= 0; i -= 2) {
    std::memcpy(out + i, kDigitPairs.data() + 2 * (x % 100), 2);
    x /= 100;
  }
}

/// Biased exponents of the doubles the kernel formats: [2^-19, 2^53).
constexpr int kKernelMinExponent = 1075 - 52 - 19;
constexpr int kKernelEndExponent = 1075;

/// floor(x * log10(2)) for x in [-19, 51], the exponents of 2^(52 - shift).
constexpr int floor_log10_pow2(int x) { return (x * 78913) >> 18; }

/// For each shift in [1, 71], the least mantissa m with m * 2^-shift >=
/// 10^(floor_log10_pow2(52 - shift) + 1), or 2^53 when no mantissa gets
/// there: a double's decimal exponent is its binade's estimate plus
/// (m >= threshold).
constexpr std::array<std::uint64_t, 72> kNextDecadeMantissa = [] {
  std::array<std::uint64_t, 72> threshold{};
  for (int shift = 1; shift < 72; ++shift) {
    const int decade = floor_log10_pow2(52 - shift) + 1;
    u128 least = 0;
    if (decade >= 0) {
      least = kPow10[decade] << shift;
    } else {
      const u128 divisor = kPow10[-decade];
      least = ((u128{1} << shift) + divisor - 1) / divisor;
    }
    const u128 none = u128{1} << 53;
    threshold[shift] = static_cast<std::uint64_t>(least < none ? least : none);
  }
  return threshold;
}();

}  // namespace detail

/// Write `value` as printf("%.17g") does and return the end of the
/// characters. [first, first + kG17WriteBytes) must be writable; bytes
/// past the returned end may have been written.
inline char* write_g17(char* first, double value) {
  // %.17g prints an integral value below 1e17 (1e17 itself takes an
  // exponent) as its integer's digits. -0 keeps its sign through
  // to_chars.
  if (std::abs(value) < 1e17 && value == std::trunc(value) &&
      !(value == 0.0 && std::signbit(value))) {
    return std::to_chars(first, first + kG17WriteBytes,
                         static_cast<std::int64_t>(value))
        .ptr;
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  const int biased = static_cast<int>(bits >> 52) & 0x7ff;
  if (biased < detail::kKernelMinExponent ||
      biased >= detail::kKernelEndExponent) {
    return std::to_chars(first, first + kG17WriteBytes, value,
                         std::chars_format::general, 17)
        .ptr;
  }
  // |value| = m * 2^-shift with m < 2^53.
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int shift = detail::kKernelEndExponent - biased;  // 1..71
  // 10^exp10 <= |value| < 10^(exp10 + 1), so n = |value| * 10^(16 -
  // exp10), truncated, has 17 digits; 16 - exp10 <= 22 keeps the product
  // below 2^127.
  int exp10 = detail::floor_log10_pow2(52 - shift) +
              (m >= detail::kNextDecadeMantissa[shift] ? 1 : 0);
  const detail::u128 scaled = m * detail::kPow10[16 - exp10];
  std::uint64_t n = static_cast<std::uint64_t>(scaled >> shift);
  // Round half to even on the bits shifted out.
  const detail::u128 rem = scaled & ((detail::u128{1} << shift) - 1);
  const detail::u128 half = detail::u128{1} << (shift - 1);
  n += (rem > half) | ((rem == half) & (n & 1));
  if (n == 100000000000000000ULL) {
    n = 10000000000000000ULL;
    ++exp10;
  }
  // The 17 digits, then the count left once trailing zeros go.
  char digits[32];
  digits[0] = static_cast<char>('0' + n / 10000000000000000ULL);
  const std::uint64_t low16 = n % 10000000000000000ULL;
  detail::put8(digits + 1, static_cast<std::uint32_t>(low16 / 100000000));
  detail::put8(digits + 9, static_cast<std::uint32_t>(low16 % 100000000));
  std::memset(digits + 17, '0', sizeof digits - 17);
  int len = 17;
  while (digits[len - 1] == '0') --len;

  char* out = first;
  if ((bits >> 63) != 0) *out++ = '-';
  if (exp10 >= 0) {
    // Fixed: exp10 + 1 integer digits (at most 16), then the fraction.
    std::memcpy(out, digits, 16);
    out += exp10 + 1;
    const int fraction = len - (exp10 + 1);
    if (fraction > 0) {
      *out = '.';
      std::memcpy(out + 1, digits + exp10 + 1, 16);
      out += 1 + fraction;
    }
  } else if (exp10 >= -4) {
    // Fixed below 1: "0." and -exp10 - 1 zeros before the digits.
    std::memcpy(out, "0.000", 5);
    out += 1 - exp10;
    std::memcpy(out, digits, 17);
    out += len;
  } else {
    // Scientific: d[.ddd]e-0X; exp10 >= -6 here, so two exponent digits.
    out[0] = digits[0];
    out[1] = '.';
    std::memcpy(out + 2, digits + 1, 16);
    out += len > 1 ? len + 1 : 1;
    out[0] = 'e';
    out[1] = '-';
    std::memcpy(out + 2, detail::kDigitPairs.data() + 2 * -exp10, 2);
    out += 4;
  }
  return out;
}

}  // namespace mrscan::util
