/**
 * @file
 * Unit tests for the support library: bit vectors, RNG, strings,
 * status types.
 */

#include <gtest/gtest.h>

#include <set>

#include "support/bitvec.hh"
#include "support/json.hh"
#include "support/memusage.hh"
#include "support/rng.hh"
#include "support/status.hh"
#include "support/strings.hh"

namespace archval
{
namespace
{

TEST(BitVec, DefaultIsEmpty)
{
    BitVec v;
    EXPECT_EQ(v.numBits(), 0u);
}

TEST(BitVec, SetAndGetSingleBits)
{
    BitVec v(130);
    EXPECT_FALSE(v.get(0));
    EXPECT_FALSE(v.get(129));
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    v.set(64, false);
    EXPECT_FALSE(v.get(64));
}

TEST(BitVec, FieldRoundTripWithinWord)
{
    BitVec v(64);
    v.setField(5, 11, 0x5a5);
    EXPECT_EQ(v.getField(5, 11), 0x5a5u);
    EXPECT_EQ(v.getField(0, 5), 0u);
    EXPECT_EQ(v.getField(16, 16), 0u);
}

TEST(BitVec, FieldCrossesWordBoundary)
{
    BitVec v(128);
    v.setField(60, 10, 0x3ff);
    EXPECT_EQ(v.getField(60, 10), 0x3ffu);
    EXPECT_TRUE(v.get(63));
    EXPECT_TRUE(v.get(64));
    v.setField(60, 10, 0x155);
    EXPECT_EQ(v.getField(60, 10), 0x155u);
}

TEST(BitVec, FullWidth64Field)
{
    BitVec v(64);
    v.setField(0, 64, ~uint64_t(0));
    EXPECT_EQ(v.getField(0, 64), ~uint64_t(0));
}

TEST(BitVec, SetFieldMasksExcessBits)
{
    BitVec v(32);
    v.setField(0, 4, 0xff);
    EXPECT_EQ(v.getField(0, 4), 0xfu);
    EXPECT_EQ(v.getField(4, 4), 0u);
}

TEST(BitVec, EqualityAndHash)
{
    BitVec a(70), b(70);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    a.set(69, true);
    EXPECT_NE(a, b);
    b.set(69, true);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(BitVec, DifferentWidthsNotEqual)
{
    BitVec a(8), b(9);
    EXPECT_NE(a, b);
}

TEST(BitVec, ClearResetsContents)
{
    BitVec v(100);
    v.setField(90, 10, 0x3ff);
    v.clear();
    EXPECT_EQ(v.getField(90, 10), 0u);
    EXPECT_EQ(v.numBits(), 100u);
}

TEST(BitVec, ToStringMsbFirst)
{
    BitVec v(4);
    v.set(0, true);
    v.set(3, true);
    EXPECT_EQ(v.toString(), "1001");
}

TEST(BitVec, OrderingIsTotal)
{
    BitVec a(8), b(8);
    b.set(0, true);
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(b < a);
    EXPECT_FALSE(a < a);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        uint64_t v = rng.range(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0, 10));
        EXPECT_TRUE(rng.chance(10, 10));
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(5);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
    auto sorted = items;
    rng.shuffle(items);
    std::sort(items.begin(), items.end());
    EXPECT_EQ(items, sorted);
}

TEST(Strings, Split)
{
    auto fields = splitString("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(Strings, SplitEmpty)
{
    auto fields = splitString("", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trimString("  hi \t"), "hi");
    EXPECT_EQ(trimString(""), "");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString("x"), "x");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("module foo", "module"));
    EXPECT_FALSE(startsWith("mod", "module"));
    EXPECT_TRUE(endsWith("foo.v", ".v"));
    EXPECT_FALSE(endsWith("v", ".v"));
}

TEST(Strings, Format)
{
    EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Strings, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1172848), "1,172,848");
    EXPECT_EQ(withCommas(229571), "229,571");
}

TEST(Strings, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512.0 B");
    EXPECT_EQ(humanBytes(34 * 1024ull * 1024ull), "34.0 MB");
}

TEST(Strings, HumanSeconds)
{
    EXPECT_EQ(humanSeconds(30.0), "30.0 secs");
    EXPECT_EQ(humanSeconds(24 * 60.0), "24.0 mins");
    EXPECT_EQ(humanSeconds(58.9 * 3600.0), "58.9 hours");
}

TEST(Status, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(Status, ResultValue)
{
    Result<int> r(41);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 41);
}

TEST(Status, ResultError)
{
    auto r = Result<int>::error("nope");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.errorMessage(), "nope");
}

TEST(MemUsage, RssIsPositiveOnLinux)
{
    EXPECT_GT(currentRssBytes(), 0u);
    EXPECT_GE(peakRssBytes(), currentRssBytes() / 2);
}

TEST(Json, ParseScalars)
{
    EXPECT_TRUE(json::parse("null").value().isNull());
    EXPECT_EQ(json::parse("true").value().asBool(), true);
    EXPECT_EQ(json::parse("false").value().asBool(false), false);
    EXPECT_EQ(json::parse("42").value().asInt(), 42);
    EXPECT_EQ(json::parse("-7").value().asInt(), -7);
    EXPECT_TRUE(json::parse("42").value().isInt());
    EXPECT_FALSE(json::parse("42.5").value().isInt());
    EXPECT_DOUBLE_EQ(json::parse("42.5").value().asDouble(), 42.5);
    EXPECT_DOUBLE_EQ(json::parse("-1e3").value().asDouble(), -1000.0);
    EXPECT_EQ(json::parse("\"hi\\n\\\"there\\\"\"").value().asString(),
              "hi\n\"there\"");
}

TEST(Json, ParseStructures)
{
    auto r = json::parse(
        " {\"a\": [1, 2, {\"b\": null}], \"c\": \"x\"} ");
    ASSERT_TRUE(r.ok()) << r.errorMessage();
    const json::Value &v = r.value();
    ASSERT_TRUE(v.isObject());
    ASSERT_TRUE(v.get("a").isArray());
    EXPECT_EQ(v.get("a").items().size(), 3u);
    EXPECT_EQ(v.get("a").items()[1].asInt(), 2);
    EXPECT_TRUE(v.get("a").items()[2].get("b").isNull());
    EXPECT_EQ(v.get("c").asString(), "x");
    EXPECT_FALSE(v.has("missing"));
    EXPECT_TRUE(v.get("missing").isNull());
}

TEST(Json, RejectsMalformedInput)
{
    const char *bad[] = {
        "",          "{",         "[1,",       "tru",
        "{\"a\":}",  "{\"a\" 1}", "[1 2]",     "\"unterminated",
        "01",        "1.",        "1e",        "nullx",
        "{]",        "\"\\q\"",   "\"\\u12\"", "[1],[2]",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(json::parse(text).ok())
            << "accepted malformed input: " << text;
    }
    // Raw control characters must be escaped inside strings.
    EXPECT_FALSE(json::parse("\"a\nb\"").ok());
}

TEST(Json, RejectsDeepNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(json::parse(deep).ok());
    EXPECT_TRUE(json::parse(deep, 400).ok());
}

TEST(Json, SerializeRoundTrip)
{
    json::Value v = json::Value::object();
    v.set("id", int64_t{7});
    v.set("name", "enum \"fast\"\n");
    v.set("flag", true);
    v.set("ratio", 0.25);
    json::Value arr = json::Value::array();
    arr.push(int64_t{1});
    arr.push(json::Value());
    v.set("list", std::move(arr));

    std::string text = v.serialize();
    auto back = json::parse(text);
    ASSERT_TRUE(back.ok()) << back.errorMessage();
    EXPECT_TRUE(back.value() == v) << text;
    // Integers survive bit-exactly.
    EXPECT_EQ(back.value().get("id").asInt(), 7);
    EXPECT_TRUE(back.value().get("id").isInt());
}

TEST(Json, LargeIntegersStayExact)
{
    int64_t big = INT64_MAX - 3;
    json::Value v(big);
    auto back = json::parse(v.serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().asInt(), big);
}

} // namespace
} // namespace archval
