#include <gtest/gtest.h>

#include "common/flags.h"
#include "exec/grain.h"
#include "fault/failpoint.h"
#include "repair/options.h"

namespace idrepair {
namespace {

Result<FlagParser> ParseArgs(std::vector<const char*> argv,
                             std::vector<std::string> bools = {}) {
  return FlagParser::Parse(static_cast<int>(argv.size()), argv.data(),
                           bools);
}

TEST(FlagParserTest, EqualsSyntax) {
  auto p = ParseArgs({"--theta=4", "--name=hello"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->GetString("name"), "hello");
  EXPECT_EQ(*p->GetInt("theta", 0), 4);
}

TEST(FlagParserTest, SpaceSyntax) {
  auto p = ParseArgs({"--theta", "4", "--name", "hello"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->GetString("name"), "hello");
  EXPECT_EQ(*p->GetInt("theta", 0), 4);
}

TEST(FlagParserTest, BooleanSwitches) {
  auto p = ParseArgs({"--verbose", "--out", "x.csv"}, {"verbose"});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->GetBool("verbose"));
  EXPECT_FALSE(p->GetBool("quiet"));
  EXPECT_EQ(p->GetString("out"), "x.csv");
}

TEST(FlagParserTest, PositionalArguments) {
  auto p = ParseArgs({"input.csv", "--k=1", "more"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->positional(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(FlagParserTest, MissingValueIsAnError) {
  auto p = ParseArgs({"--out"});
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, BareDashDashIsAnError) {
  auto p = ParseArgs({"--"});
  EXPECT_FALSE(p.ok());
}

TEST(FlagParserTest, DefaultsApplyWhenAbsent) {
  auto p = ParseArgs({});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->GetString("name", "dflt"), "dflt");
  EXPECT_EQ(*p->GetInt("k", 7), 7);
  EXPECT_DOUBLE_EQ(*p->GetDouble("rate", 0.25), 0.25);
}

TEST(FlagParserTest, MalformedNumbersAreErrors) {
  auto p = ParseArgs({"--k=abc", "--rate=1.2.3"});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->GetInt("k", 0).ok());
  EXPECT_FALSE(p->GetDouble("rate", 0).ok());
}

TEST(FlagParserTest, NegativeAndFloatValues) {
  auto p = ParseArgs({"--k=-12", "--rate=0.5"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p->GetInt("k", 0), -12);
  EXPECT_DOUBLE_EQ(*p->GetDouble("rate", 0), 0.5);
}

TEST(FlagParserTest, EmptyValueViaEquals) {
  auto p = ParseArgs({"--name="});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Has("name"));
  EXPECT_EQ(p->GetString("name", "x"), "");
}

TEST(FlagParserTest, LaterValueWins) {
  auto p = ParseArgs({"--k=1", "--k=2"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p->GetInt("k", 0), 2);
}

// The CLI's --deadline-ms flag path: parsed as an integer, assigned to
// RepairOptions::deadline_ms, and rejected when negative by options
// validation — the same checks tools/idrepair_cli.cc layers on top of
// FlagParser.
TEST(FlagParserTest, DeadlineMsFlagRoundTripsIntoOptions) {
  auto p = ParseArgs({"--deadline-ms=2500"});
  ASSERT_TRUE(p.ok());
  auto ms = p->GetInt("deadline-ms", 0);
  ASSERT_TRUE(ms.ok());
  RepairOptions options;
  options.deadline_ms = *ms;
  EXPECT_TRUE(options.Validate().ok());

  options.deadline_ms = -1;
  EXPECT_FALSE(options.Validate().ok());
  // Absent flag: default 0 = no budget, and that validates.
  auto none = ParseArgs({});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none->GetInt("deadline-ms", 0), 0);
}

// Every Has() and Get*() call marks its key read, present or not; Unread()
// names, in key order, the given flags that nothing asked for — what the
// CLI rejects with exit 2 once a command has read all its flags.
TEST(FlagParserTest, UnreadNamesEveryFlagNothingAskedFor) {
  auto p = ParseArgs({"--thetaa", "3", "--theta=4", "--no-lig",
                      "--candidate-grain=1", "--out", "x.csv", "pos"},
                     {"no-lig"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Unread(),
            (std::vector<std::string>{"candidate-grain", "no-lig", "out",
                                      "theta", "thetaa"}));
  EXPECT_EQ(*p->GetInt("theta", 8), 4);
  EXPECT_TRUE(p->GetBool("no-lig"));
  EXPECT_EQ(p->GetString("out"), "x.csv");
  // Asking for an absent key reads it without adding it to the flags.
  EXPECT_FALSE(p->Has("records"));
  EXPECT_DOUBLE_EQ(*p->GetDouble("lambda", 0.5), 0.5);
  EXPECT_EQ(p->Unread(),
            (std::vector<std::string>{"candidate-grain", "thetaa"}));
  // A malformed value still counts as read: the command reports the value
  // error, not an unknown flag.
  auto bad = ParseArgs({"--k=abc"});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->GetInt("k", 0).ok());
  EXPECT_TRUE(bad->Unread().empty());
  // Positional arguments are not flags.
  EXPECT_TRUE(ParseArgs({"a", "b"})->Unread().empty());
}

// The CLI's --failpoints flag value is a registry spec string; a valid one
// arms sites, a malformed one is rejected before any repair runs.
TEST(FlagParserTest, FailpointsFlagValueArmsRegistry) {
  auto p = ParseArgs(
      {"--failpoints=flags.test.a=error,on_hit=7;flags.test.b=delay"});
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(fault::ArmFromString(p->GetString("failpoints")).ok());
  auto& registry = fault::FailPointRegistry::Global();
  EXPECT_TRUE(registry.GetPoint("flags.test.a")->armed());
  EXPECT_TRUE(registry.GetPoint("flags.test.b")->armed());
  registry.DisarmAll();

  auto bad = ParseArgs({"--failpoints=flags.test.c=explode"});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(fault::ArmFromString(bad->GetString("failpoints")).ok());
  EXPECT_FALSE(fault::Armed());
}

// The CLI's --failpoints-status dump: exact text pinned here — name-sorted,
// one `  <site> armed= hits= fires=` line per site that is armed or was
// evaluated, and a fixed placeholder when nothing was touched. Scripts
// parse this output; change it deliberately or not at all.
TEST(FlagParserTest, FailpointsStatusDumpIsPinned) {
  auto& registry = fault::FailPointRegistry::Global();
  registry.DisarmAll();
  EXPECT_EQ(registry.RenderStatus(),
            "failpoints: no sites armed or evaluated\n");

  fault::FaultSpec fire_second;
  fire_second.action = fault::FaultAction::kError;
  fire_second.fire_on_hit = 2;
  ASSERT_TRUE(registry.Arm("flags.status.b", fire_second).ok());
  fault::FaultSpec silent;
  silent.action = fault::FaultAction::kDelay;
  silent.delay_micros = 0;
  silent.fire_on_hit = 9;
  ASSERT_TRUE(registry.Arm("flags.status.a", silent).ok());

  // b: three evaluations, the second fires. a: one evaluation, no fire.
  EXPECT_TRUE(registry.GetPoint("flags.status.b")->Evaluate().ok());
  EXPECT_FALSE(registry.GetPoint("flags.status.b")->Evaluate().ok());
  EXPECT_TRUE(registry.GetPoint("flags.status.b")->Evaluate().ok());
  EXPECT_TRUE(registry.GetPoint("flags.status.a")->Evaluate().ok());

  EXPECT_EQ(registry.RenderStatus(),
            "failpoints:\n"
            "  flags.status.a armed=1 hits=1 fires=0\n"
            "  flags.status.b armed=1 hits=3 fires=1\n");

  // Disarming keeps the counters (post-run inspection), drops the armed
  // bit; untouched disarmed sites vanish from the dump.
  registry.DisarmAll();
  EXPECT_EQ(registry.RenderStatus(),
            "failpoints:\n"
            "  flags.status.a armed=0 hits=1 fires=0\n"
            "  flags.status.b armed=0 hits=3 fires=1\n");
}

// The CLI's --grain flag accepts the literal "auto" (the default) or a
// positive integer; everything else is a flag-naming InvalidArgument.
// Pinned because the "auto" spelling is a documented CLI contract (README
// flag table).
TEST(FlagParserTest, GrainValuesParseAutoAndIntegers) {
  auto autov = ParseGrainValue("auto", "grain");
  ASSERT_TRUE(autov.ok());
  EXPECT_EQ(*autov, kGrainAuto);

  auto one = ParseGrainValue("1", "grain");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 1u);
  auto big = ParseGrainValue("65536", "grain");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(*big, 65536u);

  for (const char* bad : {"", "0", "-4", "4x", "Auto", "AUTO", " auto",
                          "1e3", "99999999999999999999"}) {
    auto r = ParseGrainValue(bad, "grain");
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("--grain"),
              std::string::npos)
        << r.status();
  }
}

}  // namespace
}  // namespace idrepair
