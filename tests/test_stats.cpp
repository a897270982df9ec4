// Unit tests for the statistics toolkit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "stats/histogram.h"
#include "stats/regression.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "util/json_number.h"

namespace abe {
namespace {

TEST(Summary, EmptyIsZeroCount) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(Summary, MeanAndVarianceKnownValues) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with Bessel correction: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(Summary, MergeMatchesSequential) {
  Summary all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

TEST(Summary, CiShrinksWithSamples) {
  Summary small, big;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : 2.0);
  for (int i = 0; i < 1000; ++i) big.add(i % 2 == 0 ? 1.0 : 2.0);
  EXPECT_GT(small.ci95_half_width(), big.ci95_half_width());
}

TEST(Summary, ToJsonRoundTripPrecisionAndNullCi) {
  Summary s;
  s.add(1.0 / 3.0);
  s.add(2.0 / 3.0);
  const std::string json = s.to_json();
  // Round-trip precision: 1/3 must appear with max_digits10 digits, not
  // the default 6 — byte-stable serialization of bit-identical aggregates.
  EXPECT_NE(json.find("\"mean\": 0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("0.33333333333333331"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ci95\": "), std::string::npos);

  // Fewer than two samples: no interval, serialized as 0 (every field
  // stays a finite JSON number).
  Summary one;
  one.add(4.0);
  EXPECT_NE(one.to_json().find("\"ci95\": 0"), std::string::npos)
      << one.to_json();

  // Empty summary (an all-failures sweep cell): min/max are NaN in C++,
  // which JSON cannot represent — the serialization must stay parseable.
  const Summary empty;
  EXPECT_EQ(empty.to_json(),
            "{\"count\": 0, \"mean\": 0, \"stddev\": 0, \"min\": 0, "
            "\"max\": 0, \"ci95\": 0}");
}

// The stream rendering the JSON writers used before append_json_number:
// integral values below 2^53 as integers, the rest at max_digits10.
std::string stream_json_number(double v) {
  std::ostringstream os;
  const double r = std::nearbyint(v);
  if (r == v && std::fabs(v) < 9.007199254740992e15) {
    os << static_cast<long long>(r);
  } else {
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  }
  return os.str();
}

TEST(JsonNumber, MatchesStreamRendering) {
  const double two53 = 9007199254740992.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -7.0,
                           two53 - 1.0,
                           two53,
                           two53 + 2.0,
                           0.1,
                           1.0 / 3.0,
                           1e300,
                           5e-324,
                           inf,
                           -inf,
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    std::string out = "[";
    append_json_number(&out, v);
    EXPECT_EQ(out, "[" + stream_json_number(v)) << v;
    EXPECT_EQ(json_number(v), stream_json_number(v)) << v;
  }
  EXPECT_EQ(json_number(-0.0), "0");
  EXPECT_EQ(json_number(two53 + 2.0), "9007199254740994");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.33333333333333331");
}

// Summary::to_json as it was written with a stream.
std::string stream_summary_json(const Summary& s) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  const double lo = s.count() == 0 ? 0.0 : s.min();
  const double hi = s.count() == 0 ? 0.0 : s.max();
  os << "{\"count\": " << s.count() << ", \"mean\": " << s.mean()
     << ", \"stddev\": " << s.stddev() << ", \"min\": " << lo
     << ", \"max\": " << hi << ", \"ci95\": " << s.ci95_half_width() << "}";
  return os.str();
}

TEST(Summary, ToJsonMatchesStreamRendering) {
  Summary empty;
  EXPECT_EQ(empty.to_json(), stream_summary_json(empty));
  Summary one;
  one.add(0.1);
  EXPECT_EQ(one.to_json(), stream_summary_json(one));
  Summary many;
  for (const double x : {1.0 / 3.0, 2.0, 123456.789, 1e-7, 7.0}) many.add(x);
  EXPECT_EQ(many.to_json(), stream_summary_json(many));
  std::string appended = "x";
  many.append_json(&appended);
  EXPECT_EQ(appended, "x" + many.to_json());
}

TEST(Summary, TCriticalValues) {
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_975(10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_975(1000), 1.96, 1e-3);
  EXPECT_TRUE(std::isinf(t_critical_975(0)));
}

TEST(Histogram, QuantilesExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(h.median(), 50.5, 1e-9);
  EXPECT_NEAR(h.quantile(0.25), 25.75, 1e-9);
}

TEST(Histogram, TailFraction) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.tail_fraction(5.0), 0.5, 1e-12);
  EXPECT_NEAR(h.tail_fraction(10.0), 0.0, 1e-12);
  EXPECT_NEAR(h.tail_fraction(0.0), 1.0, 1e-12);
}

TEST(Histogram, MeanAndCount) {
  Histogram h;
  h.add_all({1.0, 2.0, 3.0});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean(), 2.0, 1e-12);
}

TEST(Histogram, AsciiRendersBins) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10));
  const std::string art = h.ascii(5, 30);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
}

TEST(Histogram, InterleavedAddAndQuery) {
  Histogram h;
  h.add(5.0);
  EXPECT_EQ(h.median(), 5.0);
  h.add(1.0);
  h.add(9.0);
  EXPECT_EQ(h.median(), 5.0);  // re-sorts after mutation
}

TEST(Regression, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, NoisyLineHighR2) {
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + ((i % 3) - 1) * 0.1);
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Regression, LogLogRecoversPolynomialDegree) {
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(5.0 * i * i);  // degree 2
  }
  const LinearFit fit = fit_loglog(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

TEST(Regression, LogLogLinearVsNLogN) {
  std::vector<double> x, linear, nlogn;
  for (int i = 2; i <= 512; i *= 2) {
    x.push_back(i);
    linear.push_back(4.0 * i);
    nlogn.push_back(4.0 * i * std::log2(static_cast<double>(i)));
  }
  EXPECT_NEAR(fit_loglog(x, linear).slope, 1.0, 1e-9);
  EXPECT_GT(fit_loglog(x, nlogn).slope, 1.2);  // clearly super-linear
}

TEST(Regression, CorrelationSigns) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> up{2, 4, 6, 8};
  const std::vector<double> down{8, 6, 4, 2};
  EXPECT_NEAR(correlation(x, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, down), -1.0, 1e-12);
}

TEST(Regression, CorrelationDegenerateIsNaN) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> flat{5, 5, 5};
  EXPECT_TRUE(std::isnan(correlation(x, flat)));
}

TEST(Table, RendersAlignedRows) {
  Table t({"n", "messages", "time"});
  t.add_row({"8", "25.31", "10.2"});
  t.add_row({"128", "412.77", "161.9"});
  const std::string out = t.render("E2");
  EXPECT_NE(out.find("== E2 =="), std::string::npos);
  EXPECT_NE(out.find("messages"), std::string::npos);
  EXPECT_NE(out.find("412.77"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt_int(-42), "-42");
}

}  // namespace
}  // namespace abe
