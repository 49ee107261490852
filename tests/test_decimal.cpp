// util::write_g17 against std::to_chars(v, general, 17), which writes
// printf("%.17g"). Each value is written into a heap buffer of exactly
// kG17WriteBytes, so under the address sanitizer a store past the
// kernel's declared bound fails the test.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "util/decimal.hpp"
#include "util/rng.hpp"

namespace mu = mrscan::util;

namespace {

using dlim = std::numeric_limits<double>;

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

/// Counts the values whose write_g17 bytes differ from to_chars' and
/// keeps the first few for the failure message.
class Oracle {
 public:
  void check(double value) {
    const std::string got(buffer_.get(), mu::write_g17(buffer_.get(), value));
    char want[64];
    const auto res = std::to_chars(want, want + sizeof want, value,
                                   std::chars_format::general, 17);
    ++checked_;
    if (got == std::string_view(want, res.ptr - want)) return;
    if (++mismatches_ <= 8) {
      char bits[32];
      std::snprintf(bits, sizeof bits, "%a", value);
      report_ += std::string(bits) + ": got " + got + ", want " +
                 std::string(want, res.ptr) + "\n";
    }
  }

  /// `value` and its `ulps` neighbours on each side, both signs.
  void check_around(double value, int ulps) {
    double below = value;
    double above = value;
    check(value);
    check(-value);
    for (int i = 0; i < ulps; ++i) {
      below = std::nextafter(below, -dlim::infinity());
      above = std::nextafter(above, dlim::infinity());
      for (const double v : {below, above, -below, -above}) check(v);
    }
  }

  void expect_clean(std::uint64_t at_least) const {
    EXPECT_GE(checked_, at_least);
    EXPECT_EQ(mismatches_, 0u) << report_;
  }

 private:
  std::unique_ptr<char[]> buffer_ =
      std::make_unique<char[]>(mu::kG17WriteBytes);
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string report_;
};

}  // namespace

TEST(Decimal, SpecialValuesMatchToChars) {
  Oracle oracle;
  for (const double v :
       {0.0, dlim::denorm_min(), 0x1p-1060, dlim::min(), dlim::max(),
        dlim::infinity(), dlim::quiet_NaN(), 1.0, 42.0, 0x1p53, 1e17,
        99999999999999984.0, 0.1, 0.5, 123.456}) {
    oracle.check(v);
    oracle.check(-v);
  }
  oracle.expect_clean(30);
  char buf[mu::kG17WriteBytes];
  EXPECT_EQ(std::string(buf, mu::write_g17(buf, -0.0)), "-0");
  EXPECT_EQ(std::string(buf, mu::write_g17(buf, 1.0)), "1");
  EXPECT_EQ(std::string(buf, mu::write_g17(buf, 0.1)), "0.10000000000000001");
  EXPECT_EQ(std::string(buf, mu::write_g17(buf, 1.5e-5)), "1.5e-05");
}

TEST(Decimal, ExactTiesRoundHalfToEven) {
  // n + 1/4 and n + 3/4 at 2^50, n + 1/8 and n + 3/8 at 2^49: the 17th
  // digit is followed by exactly 5, so the even neighbour wins.
  char buf[mu::kG17WriteBytes];
  const auto g17 = [&buf](double v) {
    return std::string(buf, mu::write_g17(buf, v));
  };
  EXPECT_EQ(g17(0x1p50 + 0.25), "1125899906842624.2");
  EXPECT_EQ(g17(0x1p50 + 0.75), "1125899906842624.8");
  EXPECT_EQ(g17(0x1p49 + 0.125), "562949953421312.12");
  EXPECT_EQ(g17(0x1p49 + 0.375), "562949953421312.38");
  EXPECT_EQ(g17(-(0x1p50 + 0.25)), "-1125899906842624.2");
  Oracle oracle;
  for (const double v : {0x1p50 + 0.25, 0x1p50 + 0.75, 0x1p49 + 0.125,
                         0x1p49 + 0.375}) {
    oracle.check_around(v, 8);
  }
  oracle.expect_clean(4 * 34);
}

TEST(Decimal, KernelEdgesMatchToChars) {
  // The kernel's range ends (2^-19 and 2^53), the switch to scientific
  // notation (1e-4 and 1e-5), 17-digit carries (1e16 and its
  // neighbours) and the integer formatter's end (1e17).
  Oracle oracle;
  for (const double v : {0x1p-19, 0x1p-20, 1e-6, 1e-5, 1e-4, 1e-3, 1.0,
                         1e15, 1e16, 0x1p52, 0x1p53, 1e17}) {
    oracle.check_around(v, 64);
  }
  // Every power of ten the kernel's exponent estimate crosses, ±50 ulps.
  for (int p = -8; p <= 18; ++p) {
    oracle.check_around(std::pow(10.0, p), 50);
  }
  oracle.expect_clean(12 * 258 + 27 * 202);
}

TEST(Decimal, SeededBitPatternsMatchToChars) {
  Oracle oracle;
  mu::Rng rng(25);
  // Ten million values whose biased exponent spans the kernel's range
  // with a margin on each side, then a million unrestricted patterns.
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 10'000'000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    const std::uint64_t biased = 990 + (bits >> 1) % 100;
    oracle.check(from_bits((bits & std::uint64_t{1} << 63) |
                           biased << 52 | (rng.next_u64() & kMantissa)));
  }
  for (int i = 0; i < 1'000'000; ++i) {
    oracle.check(from_bits(rng.next_u64()));
  }
  oracle.expect_clean(11'000'000);
}

TEST(Decimal, SparseMantissasAndShortDecimalsMatchToChars) {
  // Mantissas with few set bits land on exact ties; short decimal
  // strings and integer fractions are what point files hold.
  Oracle oracle;
  mu::Rng rng(26);
  for (int i = 0; i < 400'000; ++i) {
    const std::uint64_t biased = 1000 + rng.next_u64() % 80;
    std::uint64_t mantissa = 0;
    for (std::uint64_t b = rng.next_u64() % 4; b > 0; --b) {
      mantissa |= std::uint64_t{1} << (rng.next_u64() % 52);
    }
    oracle.check(from_bits(biased << 52 | mantissa));
    const std::string text = std::to_string(rng.next_u64() % 100'000) +
                             "." + std::to_string(rng.next_u64() % 1000);
    oracle.check(std::strtod(text.c_str(), nullptr));
    oracle.check(static_cast<double>(rng.next_u64() % 100'000'000'000) /
                 std::pow(10.0, static_cast<int>(rng.next_u64() % 20)));
    oracle.check(std::ldexp(1.0, 40 + static_cast<int>(i % 13)) +
                 static_cast<double>(rng.next_u64() % 64) / 64.0);
    oracle.check(rng.uniform(-180.0, 180.0));
  }
  oracle.expect_clean(2'000'000);
}
