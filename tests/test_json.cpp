// The shared JSON reader (util/json): the edges of exact number reading,
// duplicate keys, verbatim object capture and string quoting that the three
// document parsers' own tests (SvcJson, Chaos, ScheduleJson) do not reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "svc/svc_json.h"
#include "util/error.h"
#include "util/json.h"

using namespace emcgm;

namespace {

/// Read one value of `text` with `read`, requiring the whole text be used.
template <typename F>
auto read_all(const std::string& text, F read) {
  json::Reader r(text, "test");
  auto v = read(r);
  r.finish();
  return v;
}

template <typename F>
void expect_config_error(const std::string& text, F read) {
  try {
    read_all(text, read);
    FAIL() << "accepted: " << text;
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kConfig) << text;
    EXPECT_NE(std::string(e.what()).find("test JSON at byte"),
              std::string::npos)
        << e.what();
  }
}

const auto read_u64 = [](json::Reader& r) {
  return r.integer<std::uint64_t>();
};
const auto read_u32 = [](json::Reader& r) {
  return r.integer<std::uint32_t>();
};
const auto read_i32 = [](json::Reader& r) {
  return r.integer<std::int32_t>();
};
const auto read_number = [](json::Reader& r) { return r.number(); };

}  // namespace

TEST(Json, IntegersAreExactAtTheEdgesOfTheirType) {
  EXPECT_EQ(read_all("18446744073709551615", read_u64), ~0ULL);
  expect_config_error("18446744073709551616", read_u64);
  EXPECT_EQ(read_all("4294967295", read_u32), 4294967295u);
  expect_config_error("4294967296", read_u32);
  // A sign is only an integer's when its type has one.
  expect_config_error("-1", read_u64);
  expect_config_error("-1", read_u32);
  EXPECT_EQ(read_all("-1", read_i32), -1);
  EXPECT_EQ(read_all("-2147483648", read_i32), INT32_MIN);
  expect_config_error("2147483648", read_i32);
  // The int32 target_tenant of a job file takes -1 ("machine-wide").
  const svc::ServiceSpec spec = svc::parse_service_json(
      R"({"jobs": [{"name": "a"}], "chaos": {"target_tenant": -1}})");
  EXPECT_EQ(spec.chaos_shape.target_tenant, -1);
}

TEST(Json, IntegerRejectsWhatOnlyANumberAccepts) {
  for (const char* text : {"1e3", "1.0", "+1", "0x10", "1 2"}) {
    expect_config_error(text, read_u64);
  }
  EXPECT_EQ(read_all("1e3", read_number), 1000.0);
  EXPECT_EQ(read_all("1.0", read_number), 1.0);
  EXPECT_EQ(read_all("-0.125", read_number), -0.125);
  for (const char* text : {"1e999", "-1e999", "nan", "inf", "", "\"1\""}) {
    expect_config_error(text, read_number);
  }
}

TEST(Json, DuplicateKeyRejectedAtAnyDepth) {
  auto read_tree = [](json::Reader& r) {
    int members = 0;
    r.object([&](const std::string&) {
      r.object([&](const std::string&) {
        r.integer<std::uint32_t>();
        ++members;
      });
    });
    return members;
  };
  EXPECT_EQ(read_all(R"({"a": {"x": 1, "y": 2}, "b": {"x": 3}})", read_tree),
            3);
  expect_config_error(R"({"a": {"x": 1, "x": 2}})", read_tree);
  expect_config_error(R"({"a": {"x": 1}, "a": {"y": 2}})", read_tree);
}

TEST(Json, RawObjectKeepsBracesInsideStrings) {
  const std::string inner = R"({"s": "}{", "t": {"u": "{"}})";
  std::string captured;
  read_all(R"({"plan": )" + inner + R"(, "after": 1})", [&](json::Reader& r) {
    r.object([&](const std::string& key) {
      if (key == "plan") {
        captured = r.raw_object();
      } else {
        r.integer<std::uint32_t>();
      }
    });
    return 0;
  });
  EXPECT_EQ(captured, inner);
  expect_config_error(R"({"s": "}")", [](json::Reader& r) {
    return r.raw_object();
  });
}

TEST(Json, StringsCarryNoEscapesOrControlCharacters) {
  const auto read_string = [](json::Reader& r) { return r.string(); };
  EXPECT_EQ(read_all("\"a b{}\"", read_string), "a b{}");
  for (const char* text : {"\"a\\\"b\"", "\"a\tb\"", "\"a\nb\"", "\"ab"}) {
    expect_config_error(text, read_string);
  }
}

TEST(Json, QuoteEscapesWhatAStringCannotHoldRaw) {
  EXPECT_EQ(json::quote("plain"), "\"plain\"");
  EXPECT_EQ(json::quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(json::quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json::quote("line\nnext"), "\"line\\nnext\"");
  EXPECT_EQ(json::quote("tab\there\x01"),
            "\"tab\\u0009here\\u0001\"");
}

TEST(Json, ParseIntegerReadsWholeFlagValues) {
  EXPECT_EQ(json::parse_integer<std::uint32_t>("4"), 4u);
  for (const char* text : {"", "abc", "4x", "-1", "4294967296", " 4"}) {
    EXPECT_FALSE(json::parse_integer<std::uint32_t>(text)) << text;
  }
}
