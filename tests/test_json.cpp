// The shared JSON reader and writer (util/json): the edges of exact number
// reading, duplicate keys, verbatim object capture and string quoting that
// the three document parsers' own tests (SvcJson, Chaos, ScheduleJson) do
// not reach, and the writer's exact bytes and bit-exact doubles.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
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

// ----------------------------------------------------------------- Writer --

TEST(JsonWriter, ExactBytesOfNestedAndEmptyContainers) {
  json::Writer w;
  w.begin_object().field("a", 1);
  w.key("empty_object").begin_object().end_object();
  w.key("empty_array").begin_array().end_array();
  w.key("rows").begin_array();
  w.begin_object().field("x", true).field("y", false).end_object();
  w.begin_array().value(1).value(2).end_array();
  w.begin_object().key("inner").begin_array();
  w.begin_object().end_object();
  w.end_array().end_object();
  w.end_array().end_object();
  EXPECT_EQ(w.take(),
            "{\"a\":1,\"empty_object\":{},\"empty_array\":[],\"rows\":[\n"
            "  {\"x\":true,\"y\":false},[1,2],\n"
            "  {\"inner\":[\n"
            "    {}]}]}\n");
}

TEST(JsonWriter, StringsAreEscaped) {
  json::Writer w;
  w.begin_array().value("say \"hi\"").value("a\\b").value("line\nnext");
  w.value(std::string("ctl\x01")).end_array();
  EXPECT_EQ(w.take(),
            "[\"say \\\"hi\\\"\",\"a\\\\b\",\"line\\nnext\",\"ctl\\u0001\"]\n");
}

TEST(JsonWriter, ContainersCloseInOrder) {
  json::Writer w;
  w.begin_object();
  EXPECT_THROW(w.end_array(), Error);
  EXPECT_THROW(w.take(), Error);
}

TEST(JsonWriter, IntegersAtTheEdgesOfTheirType) {
  json::Writer w;
  w.begin_array().value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::min()).end_array();
  EXPECT_EQ(w.take(), "[18446744073709551615,-9223372036854775808]\n");
}

TEST(JsonWriter, DoublesReadBackBitExact) {
  for (const double d : {0.05, 0.1 + 0.2, 1e-300, 5e-324, 123456.789,
                         9007199254740994.0 /* 2^53 + 2 */}) {
    json::Writer w;
    w.value(d);
    const double back = read_all(w.take(), read_number);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(d))
        << d;
  }
  json::Writer shortest;
  shortest.begin_array().value(0.05).value(123456.789).value(0.0).end_array();
  EXPECT_EQ(shortest.take(), "[0.05,123456.789,0]\n");
}

TEST(JsonWriter, NonFiniteDoubleIsAnError) {
  for (const double d : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    json::Writer w;
    EXPECT_THROW(w.value(d), Error) << d;
  }
}
