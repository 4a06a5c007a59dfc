#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/status.h"

namespace gpl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tile size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tile size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tile size");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = r.take();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GPL_ASSIGN_OR_RETURN(int half, Half(x));
  GPL_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);

  Result<int> err = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// Pins the first 64 draws of the stream dbgen is built on, so that neither
// an inlining nor a rewrite of Random can change the generated data.
TEST(RandomTest, StreamIsPinned) {
  constexpr uint64_t kSeed = 20160626;
  const uint64_t kNext[64] = {
      0xee97fa24ef7c6d1eULL, 0x0d30500a6a6db8d1ULL, 0x32000a842c920e00ULL,
      0x239a7c664814bf47ULL, 0xac52f42f33e4dd02ULL, 0x3d1c8bd4ee0f23baULL,
      0xf9232726f4fc2900ULL, 0xd58dc510af89b765ULL, 0x45f8e7d236d60bbdULL,
      0xf804170c50ebe51fULL, 0xb8e7a3a74c268e71ULL, 0x3b0bd58d4216218fULL,
      0x3486625f275e55bfULL, 0xbbdb518b73ac988dULL, 0xd7e8543a4285bbb6ULL,
      0xe5cf1e341f3474d3ULL, 0x2c236043d9b85e74ULL, 0x64828451f2b69dcaULL,
      0x577845e1fad1353bULL, 0x1b0f46f5301ec8c3ULL, 0x18984f2d0b1e6895ULL,
      0x7020c3f6f705617cULL, 0xa60484312d7fda45ULL, 0x2e5a6a7e5e8e5d6aULL,
      0x4efbf2e2fe476735ULL, 0xe1728bc12ba73615ULL, 0xe3f7b47e14081003ULL,
      0xe20ac24872e6a52eULL, 0xbb1d4d1907e1080cULL, 0xbcde3471343992d8ULL,
      0x7734a4da4d8cd5d8ULL, 0x6f34574f45bad70fULL, 0x6948ddf89b6ca53fULL,
      0x216f3d518635d6fcULL, 0xc3f9fe29e23ee6abULL, 0xf9d7c2c4f9a9210bULL,
      0x318ec0e66c3f40feULL, 0xd9737f9e877072a9ULL, 0x130ec0e6fdcc33c1ULL,
      0x8a574f024b5f7573ULL, 0xfbc91c6bfe98f9abULL, 0xe297310b5a78107cULL,
      0x9ccebfdabcf69fd7ULL, 0x70e46ff1bf2baa5cULL, 0xc0f6445e04598fc5ULL,
      0x5731f9421a9ad92eULL, 0xe70dcfe3b5f9e81bULL, 0x2eea88c1270b1001ULL,
      0xb7e7777d8f781383ULL, 0x684853c49f1377f5ULL, 0x6fa8b3e5629e1cf2ULL,
      0x436efb665084d17aULL, 0xd8f334a841254345ULL, 0x502c3b1f9beb129dULL,
      0x23188e44c7825573ULL, 0x039e584024ce7b07ULL, 0xc2ca26a2f6d9869eULL,
      0x1f3d55dc4e4617c1ULL, 0xcb7d758d4b721cf6ULL, 0xa615f343efc9793dULL,
      0x983eadb14c9a3f90ULL, 0x90b05b63925ae4e0ULL, 0xe0cc3c6103311468ULL,
      0x626b26e364da6f4dULL,
  };
  const char kUniform1To7[] =
      "6271554415264344673256366521754741767532614777273521154343316747";
  const char kBernoulliHalf[] =
      "0111010010011000111111011000001111001010000101010111011101000001";
  Random next(kSeed), uniform(kSeed), bernoulli(kSeed);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(next.Next(), kNext[i]) << i;
    EXPECT_EQ(uniform.Uniform(1, 7), kUniform1To7[i] - '0') << i;
    EXPECT_EQ(bernoulli.Bernoulli(0.5), kBernoulliHalf[i] == '1') << i;
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BernoulliMatchesProbability) {
  Random rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RandomTest, SkewedBiasedTowardsLow) {
  Random rng(17);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Skewed(0, 99, 2.0);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 99);
    mean += static_cast<double>(v);
  }
  mean /= 10000.0;
  EXPECT_LT(mean, 45.0);  // uniform would be ~49.5
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0);
  EXPECT_EQ(CeilDiv(1, 4), 1);
  EXPECT_EQ(CeilDiv(4, 4), 1);
  EXPECT_EQ(CeilDiv(5, 4), 2);
  EXPECT_EQ(CeilDiv(8, 4), 2);
}

TEST(MathUtilTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 64), 0);
  EXPECT_EQ(RoundUp(1, 64), 64);
  EXPECT_EQ(RoundUp(64, 64), 64);
  EXPECT_EQ(RoundUp(65, 64), 128);
}

TEST(MathUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1000), 1024u);
}

TEST(MathUtilTest, IsPow2) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(65));
}

TEST(MathUtilTest, ByteUnits) {
  EXPECT_EQ(KiB(1), 1024);
  EXPECT_EQ(MiB(1), 1024 * 1024);
  EXPECT_EQ(GiB(2), 2LL * 1024 * 1024 * 1024);
}

TEST(LoggingTest, LevelFilters) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  GPL_LOG(Info) << "suppressed message";  // must not crash
  SetLogLevel(saved);
}

TEST(LoggingTest, ParseLogLevelAcceptsAllNames) {
  const struct {
    const char* text;
    LogLevel expected;
  } cases[] = {
      {"debug", LogLevel::kDebug},   {"DEBUG", LogLevel::kDebug},
      {"info", LogLevel::kInfo},     {"warning", LogLevel::kWarning},
      {"Warn", LogLevel::kWarning},  {"error", LogLevel::kError},
      {"FATAL", LogLevel::kFatal},
  };
  for (const auto& c : cases) {
    LogLevel level = LogLevel::kInfo;
    EXPECT_TRUE(ParseLogLevel(c.text, &level)) << c.text;
    EXPECT_EQ(level, c.expected) << c.text;
  }
  LogLevel level = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
  EXPECT_EQ(level, LogLevel::kError);  // failed parses leave the level alone
}

TEST(LoggingTest, EnvVarControlsLogLevel) {
  const LogLevel saved = GetLogLevel();
  ASSERT_EQ(setenv("GPL_LOG_LEVEL", "debug", /*overwrite=*/1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);

  ASSERT_EQ(setenv("GPL_LOG_LEVEL", "ERROR", 1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  // Unrecognized values keep the current level (and warn on stderr).
  ASSERT_EQ(setenv("GPL_LOG_LEVEL", "shout", 1), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  // An unset variable keeps the current level too.
  ASSERT_EQ(unsetenv("GPL_LOG_LEVEL"), 0);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  // An explicit SetLogLevel wins over any later env (re)reads via GetLogLevel.
  SetLogLevel(saved);
  EXPECT_EQ(GetLogLevel(), saved);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  GPL_CHECK(1 + 1 == 2) << "never shown";
  GPL_CHECK_OK(Status::OK());
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH(GPL_CHECK(false) << "boom", "Check failed");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(GPL_CHECK_OK(Status::Internal("bad")), "Status not OK");
}

// ---- Structured logging (logfmt) ----------------------------------------

/// Captures log lines emitted while in scope, restoring stderr output and
/// the previous threshold on destruction.
class LogCapture {
 public:
  explicit LogCapture(LogLevel threshold = LogLevel::kDebug)
      : previous_level_(GetLogLevel()) {
    SetLogLevel(threshold);
    SetLogSinkForTest(
        [this](LogLevel level, const std::string& line) {
          levels.push_back(level);
          lines.push_back(line);
        });
  }
  ~LogCapture() {
    SetLogSinkForTest(nullptr);
    SetLogLevel(previous_level_);
  }

  std::vector<LogLevel> levels;
  std::vector<std::string> lines;

 private:
  LogLevel previous_level_;
};

TEST(LoggingTest, LogfmtLineHasAllStandardFields) {
  LogCapture capture;
  GPL_SLOG(Info, "service").Field("query", "Q5#3") << "admitted";
  ASSERT_EQ(capture.lines.size(), 1u);
  const std::string& line = capture.lines[0];
  EXPECT_EQ(capture.levels[0], LogLevel::kInfo);
  // ts=<ISO8601>Z first, then level/component, the custom field, msg, src.
  EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
  EXPECT_NE(line.find("Z level=info component=service "), std::string::npos)
      << line;
  EXPECT_NE(line.find(" query=Q5#3 "), std::string::npos) << line;
  EXPECT_NE(line.find(" msg=admitted "), std::string::npos) << line;
  EXPECT_NE(line.find(" src=common_test.cc:"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << "must be one line";
}

TEST(LoggingTest, ValuesWithSpacesOrQuotesAreQuotedAndEscaped) {
  LogCapture capture;
  GPL_SLOG(Warning, "sim").Field("label", "segment 0: a -> b")
      << "failed with \"reason\"\nsecond line";
  ASSERT_EQ(capture.lines.size(), 1u);
  const std::string& line = capture.lines[0];
  EXPECT_NE(line.find("label=\"segment 0: a -> b\""), std::string::npos)
      << line;
  // The message is quoted, inner quotes and the newline are escaped, and
  // the rendered line still spans exactly one physical line.
  EXPECT_NE(line.find("msg=\"failed with \\\"reason\\\"\\nsecond line\""),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(LoggingTest, ThresholdDropsLowerLevels) {
  LogCapture capture(LogLevel::kWarning);
  GPL_LOG(Debug) << "dropped";
  GPL_LOG(Info) << "dropped too";
  GPL_LOG(Warning) << "kept";
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_NE(capture.lines[0].find("msg=kept"), std::string::npos);
}

TEST(LoggingTest, ComponentDefaultsToSourceDirectory) {
  LogCapture capture;
  GPL_LOG(Error) << "oops";
  ASSERT_EQ(capture.lines.size(), 1u);
  // This file lives in tests/, so the derived component is "tests".
  EXPECT_NE(capture.lines[0].find("component=tests "), std::string::npos)
      << capture.lines[0];
}

TEST(LoggingTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(LogLevelName(LogLevel::kFatal), "fatal");
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
}

}  // namespace
}  // namespace gpl
