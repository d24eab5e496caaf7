#include "common/string_util.h"

#include <gtest/gtest.h>

namespace provlin {
namespace {

TEST(Split, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, KeepsEmptyTokens) {
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Split, EmptyInputYieldsOneEmptyToken) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(Split, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Join, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, "."), '.'), parts);
}

TEST(Join, EmptyVector) { EXPECT_EQ(Join({}, ","), ""); }

TEST(Join, SingleElement) { EXPECT_EQ(Join({"only"}, ", "), "only"); }

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "llo"));
  EXPECT_FALSE(EndsWith("llo", "hello"));
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n a \r"), "a");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ParseInt64, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseInt64, RejectsGarbage) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("x12", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));  // overflow
}

TEST(ParseDouble, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.5abc", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(JsonEscape, PrintableBytesPassThrough) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain text / 123 {}[]:,"), "plain text / 123 {}[]:,");
  // Bytes >= 0x20 are copied as they are, DEL and UTF-8 included.
  EXPECT_EQ(JsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(JsonEscape, QuoteAndBackslashAreEscaped) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, NewlineReturnAndTabGetShortEscapes) {
  EXPECT_EQ(JsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
}

TEST(JsonEscape, OtherControlBytesBecomeUnicodeEscapes) {
  EXPECT_EQ(JsonEscape(std::string("\0", 1)), "\\u0000");
  EXPECT_EQ(JsonEscape("\x01\x08\x0b\x0c\x1f"),
            "\\u0001\\u0008\\u000b\\u000c\\u001f");
  EXPECT_EQ(JsonEscape(" "), " ");  // 0x20 is the first byte kept as is
}

}  // namespace
}  // namespace provlin
