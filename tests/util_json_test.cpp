#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace abg::util {
namespace {

TEST(JsonWrite, NullRendersAsLiteral) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::object().set("x", Json::null()).dump(), "{\"x\":null}");
}

TEST(JsonWrite, NanRendersAsNull) {
  EXPECT_EQ(Json::number(std::nan("")).dump(), "null");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("-42").as_integer(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e2").as_number(), 250.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntegerWidensToNumberOnDemand) {
  const Json v = Json::parse("7");
  EXPECT_TRUE(v.is_integer());
  EXPECT_DOUBLE_EQ(v.as_number(), 7.0);
}

TEST(JsonParse, ObjectAndArrayAccessors) {
  const Json doc = Json::parse(
      R"({"name":"abg","runs":[1,2,3],"meta":{"ok":true},"gap":null})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.size(), 4u);
  EXPECT_EQ(doc.at("name").as_string(), "abg");
  ASSERT_TRUE(doc.at("runs").is_array());
  EXPECT_EQ(doc.at("runs").size(), 3u);
  EXPECT_EQ(doc.at("runs").at(std::size_t{1}).as_integer(), 2);
  EXPECT_EQ(doc.at("meta").at("ok").dump(), "true");
  EXPECT_TRUE(doc.at("gap").is_null());
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent"), std::out_of_range);
  EXPECT_THROW(doc.at("runs").at(std::size_t{3}), std::out_of_range);
}

TEST(JsonParse, MembersKeepInsertionOrder) {
  const Json doc = Json::parse(R"({"b":1,"a":2})");
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[1].first, "a");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  // U+00E9 (é) as a two-byte UTF-8 sequence.
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xC3\xA9");
  // Surrogate pair for U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  Json original = Json::object();
  original.set("label", Json::string("q=100 \"sync\""))
      .set("count", Json::integer(12))
      .set("ratio", Json::number(0.125))
      .set("flags", Json::array()
                        .push(Json::boolean(true))
                        .push(Json::null())
                        .push(Json::integer(-3)));
  const std::string text = original.dump();
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\ud83d\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("--1"), std::invalid_argument);
}

TEST(JsonParse, RejectsExcessiveNesting) {
  const std::string deep(100, '[');
  EXPECT_THROW(Json::parse(deep + std::string(100, ']')),
               std::invalid_argument);
}

TEST(JsonParse, ErrorsCarryByteOffset) {
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(JsonAccessors, KindMismatchesThrow) {
  EXPECT_THROW(Json::integer(1).as_string(), std::logic_error);
  EXPECT_THROW(Json::string("x").as_integer(), std::logic_error);
  EXPECT_THROW(Json::array().members(), std::logic_error);
  EXPECT_THROW(Json::object().items(), std::logic_error);
  EXPECT_EQ(Json::integer(5).size(), 0u);
}

}  // namespace
}  // namespace abg::util
