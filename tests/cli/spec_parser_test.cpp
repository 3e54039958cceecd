#include "whart/cli/spec_parser.hpp"

#include <string>

#include <gtest/gtest.h>

namespace whart::cli {
namespace {

constexpr const char* kBasicSpec = R"(
# a two-device network
superframe 5 5
interval 2
node n1
node n2
link n1 G avail 0.9
link n2 n1 avail 0.85
)";

TEST(SpecParser, ParsesBasicSpec) {
  const ParsedSpec spec = parse_spec_string(kBasicSpec);
  EXPECT_EQ(spec.network.node_count(), 3u);
  EXPECT_EQ(spec.network.link_count(), 2u);
  EXPECT_EQ(spec.superframe.uplink_slots, 5u);
  EXPECT_EQ(spec.superframe.downlink_slots, 5u);
  EXPECT_EQ(spec.reporting_interval, 2u);
  // Paths derived by routing: n1 -> G and n2 -> n1 -> G.
  ASSERT_EQ(spec.paths.size(), 2u);
  EXPECT_EQ(spec.paths[0].hop_count(), 1u);
  EXPECT_EQ(spec.paths[1].hop_count(), 2u);
}

TEST(SpecParser, DefaultsApplied) {
  const ParsedSpec spec = parse_spec_string(
      "node n1\nlink n1 G avail 0.9\n");
  EXPECT_EQ(spec.reporting_interval, 4u);
  EXPECT_EQ(spec.superframe.uplink_slots, 1u);  // fitted to 1 total hop
  EXPECT_EQ(spec.policy, net::SchedulingPolicy::kShortestPathsFirst);
}

TEST(SpecParser, ExplicitPathPinsItsSourceOthersAreRouted) {
  const ParsedSpec spec = parse_spec_string(R"(
node a
node b
link a G avail 0.9
link b a avail 0.9
link b G avail 0.9
path b a G
)");
  // b is pinned to the 2-hop route even though b -- G exists; a still
  // gets its routed 1-hop path.
  ASSERT_EQ(spec.paths.size(), 2u);
  EXPECT_EQ(spec.paths[0].hop_count(), 2u);
  EXPECT_EQ(spec.paths[0].source(), *spec.network.find_node("b"));
  EXPECT_EQ(spec.paths[1].hop_count(), 1u);
  EXPECT_EQ(spec.paths[1].source(), *spec.network.find_node("a"));
}

TEST(SpecParser, DisconnectedDeviceFails) {
  EXPECT_THROW(parse_spec_string("node a\nnode island\nlink a G avail .9\n"),
               parse_error);
}

TEST(SpecParser, AllLinkForms) {
  const ParsedSpec spec = parse_spec_string(R"(
node a
node b
node c
node d
link a G avail 0.9
link b G pfl 0.1 prc 0.95
link c G ber 1e-4
link d G snr 7.0
)");
  EXPECT_EQ(spec.network.link_count(), 4u);
  const auto b_link = spec.network.link_between(
      *spec.network.find_node("b"), net::kGateway);
  EXPECT_NEAR(spec.network.link(*b_link).model.failure_probability(), 0.1,
              1e-12);
  const auto c_link = spec.network.link_between(
      *spec.network.find_node("c"), net::kGateway);
  EXPECT_NEAR(spec.network.link(*c_link).model.failure_probability(),
              0.0966, 5e-5);
  const auto d_link = spec.network.link_between(
      *spec.network.find_node("d"), net::kGateway);
  EXPECT_NEAR(spec.network.link(*d_link).model.failure_probability(), 0.089,
              1e-3);
}

TEST(SpecParser, SchedulePolicies) {
  EXPECT_EQ(parse_spec_string("schedule longest\nnode a\nlink a G avail .9\n")
                .policy,
            net::SchedulingPolicy::kLongestPathsFirst);
  EXPECT_EQ(parse_spec_string("schedule shortest\nnode a\nlink a G avail .9\n")
                .policy,
            net::SchedulingPolicy::kShortestPathsFirst);
}

TEST(SpecParser, CommentsAndBlankLinesIgnored) {
  const ParsedSpec spec = parse_spec_string(
      "# full comment\n\nnode n1 # trailing comment\nlink n1 G avail 0.9\n");
  EXPECT_EQ(spec.network.node_count(), 2u);
}

TEST(SpecParser, ErrorsCarryLineNumbers) {
  try {
    parse_spec_string("node n1\nbogus directive\n");
    FAIL() << "expected parse_error";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SpecParser, RejectsBadInput) {
  EXPECT_THROW(parse_spec_string(""), parse_error);
  EXPECT_THROW(parse_spec_string("node G\n"), parse_error);
  EXPECT_THROW(parse_spec_string("node a\nlink a X avail 0.9\n"),
               parse_error);
  EXPECT_THROW(parse_spec_string("node a\nlink a G avail nope\n"),
               parse_error);
  EXPECT_THROW(parse_spec_string("interval 0\nnode a\nlink a G avail .9\n"),
               parse_error);
  EXPECT_THROW(parse_spec_string("superframe 0 5\nnode a\n"), parse_error);
  EXPECT_THROW(parse_spec_string("node a\nlink a G weird 1\n"), parse_error);
  EXPECT_THROW(parse_spec_string("schedule sideways\nnode a\n"), parse_error);
  EXPECT_THROW(parse_spec_string("interval 2.5\nnode a\n"), parse_error);
  // Integer fields are full-match decimal u32: no overflow past 2^32 - 1,
  // sign, fraction, exponent, hex or trailing characters.
  for (const char* line :
       {"interval 4294967296", "superframe 4294967296 1",
        "superframe 1 4294967296", "interval 99999999999999999999",
        "interval 7.5", "interval -1", "interval 4x", "interval 4e0",
        "interval +4", "interval 0x10"}) {
    SCOPED_TRACE(line);
    EXPECT_THROW(parse_spec_string(std::string(line) +
                                   "\nnode a\nlink a G avail .9\n"),
                 parse_error);
  }
}

TEST(SpecParser, IntegerFieldsSpanTheU32Range) {
  const std::string devices = "\nnode a\nlink a G avail .9\n";
  try {
    parse_spec_string("interval 4294967296" + devices);
    FAIL() << "expected parse_error";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  // The largest representable value still parses.
  EXPECT_EQ(parse_spec_string("interval 4294967295" + devices)
                .reporting_interval,
            4294967295u);
  EXPECT_EQ(parse_spec_string("superframe 7 0" + devices)
                .superframe.downlink_slots,
            0u);
}

TEST(SpecParser, PathWithUnknownNodeFails) {
  EXPECT_THROW(parse_spec_string("node a\nlink a G avail .9\npath a b G\n"),
               parse_error);
}

}  // namespace
}  // namespace whart::cli
