#include "runner/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace silence::runner {
namespace {

TEST(Json, ScalarsSerialize) {
  EXPECT_EQ(Json(nullptr).dump_compact(), "null");
  EXPECT_EQ(Json(true).dump_compact(), "true");
  EXPECT_EQ(Json(false).dump_compact(), "false");
  EXPECT_EQ(Json(42).dump_compact(), "42");
  EXPECT_EQ(Json(-7).dump_compact(), "-7");
  EXPECT_EQ(Json("hi").dump_compact(), "\"hi\"");
}

TEST(Json, DoublesUseShortestRoundTrip) {
  EXPECT_EQ(Json(0.5).dump_compact(), "0.5");
  EXPECT_EQ(Json(0.1).dump_compact(), "0.1");
  EXPECT_EQ(Json(1.0 / 3.0).dump_compact(), "0.3333333333333333");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump_compact(),
            "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump_compact(),
            "null");
}

TEST(Json, StringsEscape) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump_compact(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump_compact(), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1);
  obj.set("apple", 2);
  obj.set("mango", 3);
  EXPECT_EQ(obj.dump_compact(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  // set() on an existing key replaces in place, preserving position.
  obj.set("apple", 9);
  EXPECT_EQ(obj.dump_compact(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, FindLocatesKeys) {
  Json obj = Json::object();
  obj.set("k", 5);
  ASSERT_NE(obj.find("k"), nullptr);
  EXPECT_EQ(obj.find("k")->dump_compact(), "5");
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, NestedPrettyPrintIsStable) {
  Json root = Json::object();
  root.set("name", "sweep");
  Json& values = root.set("values", Json::array());
  values.push_back(1);
  values.push_back(2.5);
  root.set("empty_list", Json::array());
  root.set("empty_obj", Json::object());
  EXPECT_EQ(root.dump(),
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"values\": [\n"
            "    1,\n"
            "    2.5\n"
            "  ],\n"
            "  \"empty_list\": [],\n"
            "  \"empty_obj\": {}\n"
            "}\n");
}

TEST(Json, SizeReportsContainers) {
  Json arr = Json::array({1, 2, 3});
  EXPECT_EQ(arr.size(), 3u);
  Json obj = Json::object();
  obj.set("a", 1);
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(Json(5).size(), 0u);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_EQ(Json::parse("0.5").as_double(), 0.5);
  EXPECT_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("  [1, 2]  ").as_array().size(), 2u);
}

TEST(JsonParse, IntegersStayIntegersDoublesStayDoubles) {
  EXPECT_TRUE(Json::parse("9007199254740993").is_int());  // > 2^53
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_FALSE(Json::parse("1.0").is_int());
  EXPECT_TRUE(Json::parse("1.0").is_number());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // é
  // Surrogate pair: U+1F600 as 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RoundTripsDumpExactly) {
  Json root = Json::object();
  root.set("name", "sweep");
  root.set("rate", 0.1);
  root.set("third", 1.0 / 3.0);
  root.set("count", std::int64_t{1} << 62);
  root.set("none", nullptr);
  Json& nested = root.set("nested", Json::array());
  nested.push_back(Json::array({1, 2.5, "x"}));
  Json inner = Json::object();
  inner.set("flag", true);
  nested.push_back(std::move(inner));

  // dump -> parse -> dump must be byte-identical (shortest-round-trip
  // doubles parse back to the same bit pattern). This is what makes
  // flight-artifact comparison via dump_compact() sound.
  const Json compact = Json::parse(root.dump_compact());
  EXPECT_EQ(compact.dump_compact(), root.dump_compact());
  const Json pretty = Json::parse(root.dump());
  EXPECT_EQ(pretty.dump(), root.dump());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"bad \\x escape\""), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(Json::parse("01"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"("\ud83d")"), std::runtime_error);  // lone hi
}

TEST(JsonParse, RejectsDuplicateObjectKeys) {
  // Every producer in this repo writes unique keys, so a duplicate can
  // only mean a corrupt artifact; the parser must refuse rather than
  // silently pick a winner.
  EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a": 1, "b": 2, "a": 3})"),
               std::runtime_error);
  // Same key at different nesting levels is fine.
  const Json nested = Json::parse(R"({"a": {"a": 1}, "b": [{"a": 2}]})");
  EXPECT_EQ(nested.find("a")->find("a")->as_int(), 1);
  // Escapes are resolved before the uniqueness check: "a\u0062" IS "ab".
  EXPECT_THROW(Json::parse(R"({"a\u0062": 1, "ab": 2})"),
               std::runtime_error);
}

TEST(JsonParse, LargeSeedsRoundTripAsInt64BitPattern) {
  // Sweep grids record u64 base seeds as their int64 bit-cast; the
  // round trip must reproduce every bit, including seeds above 2^63.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1} << 53, ~std::uint64_t{0},
        std::uint64_t{0x9e3779b97f4a7c15ull}}) {
    Json root = Json::object();
    root.set("seed", static_cast<std::int64_t>(seed));
    const Json parsed = Json::parse(root.dump_compact());
    EXPECT_EQ(static_cast<std::uint64_t>(parsed.find("seed")->as_int()),
              seed);
  }
  // int64 extremes survive verbatim.
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonParse, IntegersBeyondInt64FallThroughToDouble) {
  const Json big = Json::parse("18446744073709551616");  // 2^64
  EXPECT_FALSE(big.is_int());
  EXPECT_TRUE(big.is_number());
  EXPECT_EQ(big.as_double(), 18446744073709551616.0);
}

TEST(JsonParse, RejectsRunawayNesting) {
  const std::string deep(400, '[');
  EXPECT_THROW(Json::parse(deep), std::runtime_error);
}

TEST(JsonParse, TypedAccessorsThrowOnMismatch) {
  const Json num(42);
  EXPECT_THROW(num.as_string(), std::runtime_error);
  EXPECT_THROW(num.as_array(), std::runtime_error);
  EXPECT_THROW(num.as_object(), std::runtime_error);
  EXPECT_THROW(Json("x").as_int(), std::runtime_error);
  EXPECT_THROW(Json(nullptr).as_bool(), std::runtime_error);
  // as_double accepts both numeric representations.
  EXPECT_EQ(Json(2).as_double(), 2.0);
  EXPECT_EQ(Json(2.5).as_double(), 2.5);
}

}  // namespace
}  // namespace silence::runner
