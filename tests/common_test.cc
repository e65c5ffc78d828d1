#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/flat_hash.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/span.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace idrepair {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  std::vector<Case> cases = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("m"), StatusCode::kNotFound, "NotFound"},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::Corruption("m"), StatusCode::kCorruption, "Corruption"},
      {Status::IoError("m"), StatusCode::kIoError, "IoError"},
      {Status::Unimplemented("m"), StatusCode::kUnimplemented,
       "Unimplemented"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    IDREPAIR_RETURN_NOT_OK(Status::Corruption("bad"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kCorruption);
  auto passes = []() -> Status {
    IDREPAIR_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached");
  };
  EXPECT_EQ(passes().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

// ------------------------------------------------------------ string_util

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitSingleField) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "", "z"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, JoinEmpty) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, TrimRemovesAsciiWhitespace) {
  EXPECT_EQ(Trim("  abc\t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(StringUtilTest, ToFixedFormatsDigits) {
  EXPECT_EQ(ToFixed(1.23456, 2), "1.23");
  EXPECT_EQ(ToFixed(1.0, 3), "1.000");
  EXPECT_EQ(ToFixed(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, IsLowercaseAlpha) {
  EXPECT_TRUE(IsLowercaseAlpha("abcz"));
  EXPECT_TRUE(IsLowercaseAlpha(""));
  EXPECT_FALSE(IsLowercaseAlpha("abcZ"));
  EXPECT_FALSE(IsLowercaseAlpha("ab1"));
  EXPECT_FALSE(IsLowercaseAlpha("a b"));
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 32 && !any_diff; ++i) {
    any_diff = a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIndexCoversAllBuckets) {
  Rng rng(11);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformIndex(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliRateIsRoughlyHonored) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.2) ? 1 : 0;
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(RngTest, WeightedIndexRespectsZeroWeights) {
  Rng rng(5);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(w), 1u);
}

TEST(RngTest, WeightedIndexApproximatesWeights) {
  Rng rng(5);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.WeightedIndex(w) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, LowercaseLetterRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    char c = rng.LowercaseLetter();
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GT(rng.LogNormal(4.0, 0.5), 0.0);
  }
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(77);
  Rng child = parent.Fork();
  // The child stream must be deterministic given the parent seed.
  Rng parent2(77);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child.UniformInt(0, 1 << 20), child2.UniformInt(0, 1 << 20));
  }
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(v.begin(), v.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// -------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotonic) {
  Stopwatch w;
  double a = w.ElapsedSeconds();
  double b = w.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_GE(w.ElapsedMillis(), 0.0);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  w.Restart();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

// ------------------------------------------------------------------ Span

TEST(SpanTest, ViewsVectorWithoutCopy) {
  std::vector<uint32_t> v = {3, 1, 4, 1, 5};
  Span<const uint32_t> s = v;
  EXPECT_EQ(s.size(), v.size());
  EXPECT_EQ(s.data(), v.data());  // a view, not a copy
  EXPECT_EQ(s.front(), 3u);
  EXPECT_EQ(s.back(), 5u);
  EXPECT_EQ(s[2], 4u);
}

TEST(SpanTest, EmptyAndDefault) {
  Span<const uint32_t> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.begin(), s.end());
  std::vector<uint32_t> empty;
  Span<const uint32_t> e = empty;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(s, e);
}

TEST(SpanTest, ComparesOrderedAgainstSpansAndVectors) {
  std::vector<uint32_t> v = {1, 2, 3};
  Span<const uint32_t> s = v;
  EXPECT_EQ(s, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ((std::vector<uint32_t>{1, 2, 3}), s);
  EXPECT_NE(s, (std::vector<uint32_t>{1, 3, 2}));  // order matters
  EXPECT_NE(s, (std::vector<uint32_t>{1, 2}));
  std::vector<uint32_t> w = {1, 2, 3};
  EXPECT_EQ(s, Span<const uint32_t>(w));
}

TEST(SpanTest, SubspanAndToVector) {
  std::vector<uint32_t> v = {10, 20, 30, 40};
  Span<const uint32_t> s = v;
  Span<const uint32_t> mid = s.subspan(1, 2);
  EXPECT_EQ(mid, (std::vector<uint32_t>{20, 30}));
  EXPECT_EQ(mid.ToVector(), (std::vector<uint32_t>{20, 30}));
}

TEST(SpanTest, RangeForIteration) {
  std::vector<uint32_t> v = {2, 4, 6};
  uint32_t sum = 0;
  for (uint32_t x : Span<const uint32_t>(v)) sum += x;
  EXPECT_EQ(sum, 12u);
}

// --------------------------------------------------------- FlatHash64Map

TEST(FlatHash64MapTest, FindInsertRoundTrip) {
  FlatHash64Map<uint32_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);  // empty table: no probe, no crash
  for (uint64_t k = 0; k < 1000; ++k) map.Insert(k * 977, uint32_t(k));
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    uint32_t* v = map.Find(k * 977);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, uint32_t(k));
  }
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.Find(FlatHash64Map<uint32_t>::kEmptyKey - 1), nullptr);
}

TEST(FlatHash64MapTest, SurvivesGrowthAcrossAdversarialKeys) {
  // Sequential keys land in clustered slots pre-mix; the finalizer plus
  // growth rehashing must keep every mapping intact.
  FlatHash64Map<double> map;
  for (uint64_t k = 0; k < 5000; ++k) map.Insert(k, k * 0.5);
  for (uint64_t k = 0; k < 5000; ++k) {
    double* v = map.Find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 0.5);
  }
}

// --------------------------------------------------------- DynamicBitset

TEST(DynamicBitsetTest, SetTestResetAcrossWordBoundaries) {
  DynamicBitset b(200);
  EXPECT_EQ(b.size(), 200u);
  for (size_t i : {0u, 63u, 64u, 127u, 128u, 199u}) {
    EXPECT_FALSE(b.Test(i));
    b.Set(i);
    EXPECT_TRUE(b.Test(i));
  }
  EXPECT_EQ(b.Count(), 6u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 5u);
}

TEST(DynamicBitsetTest, TestAndSetReportsFirstSetOnly) {
  DynamicBitset b(70);
  EXPECT_TRUE(b.TestAndSet(69));   // was clear
  EXPECT_FALSE(b.TestAndSet(69));  // already set
  EXPECT_EQ(b.Count(), 1u);
}

TEST(DynamicBitsetTest, OrWithCountReturnsNewlySetBits) {
  DynamicBitset a(130), b(130);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(129);
  EXPECT_EQ(a.OrWithCount(b), 1u);  // only bit 129 is new
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.OrWithCount(b), 0u);  // idempotent
}

TEST(DynamicBitsetTest, IntersectsDetectsSharedBits) {
  DynamicBitset a(100), b(100);
  a.Set(70);
  b.Set(71);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(70);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(DynamicBitsetTest, AssignFillsAndClearsTail) {
  DynamicBitset b;
  b.Assign(70, true);
  // All 70 logical bits set; the 58 tail bits of the last word must not
  // leak into Count().
  EXPECT_EQ(b.Count(), 70u);
  b.Assign(70, false);
  EXPECT_EQ(b.Count(), 0u);
}

TEST(DynamicBitsetTest, ResizePreservesAndClearsNewBits) {
  DynamicBitset b(10);
  b.Set(9);
  b.Resize(300);
  EXPECT_TRUE(b.Test(9));
  for (size_t i = 10; i < 300; ++i) EXPECT_FALSE(b.Test(i));
  EXPECT_GE(b.MemoryBytes(), DynamicBitset::WordCount(300) * 8);
}

// -------------------------------------------------------------- resource

TEST(ResourceTest, RssMeasurementsArePlausible) {
  size_t peak = PeakRssBytes();
  size_t current = CurrentRssBytes();
  // Both available on Linux; a running gtest binary occupies at least 1 MB.
  EXPECT_GT(peak, 1u << 20);
  EXPECT_GT(current, 1u << 20);
  EXPECT_GE(peak, current / 2);  // peak is a high-water mark (coarse check)
}

}  // namespace
}  // namespace idrepair
