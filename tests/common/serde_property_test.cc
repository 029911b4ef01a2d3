// Property/fuzz tests for the src/common/serde record grammar: randomized records
// must round-trip exactly (including extreme doubles and very long lines), and
// grammar-breaking mutations — truncations that orphan a key, empty values,
// duplicated keys — must be rejected by the strict parser with a Status, never a
// crash.  Every test is seed-deterministic: fixed std::mt19937_64 seeds, no time,
// no addresses, no global state.
#include "src/common/serde.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace alert::serde {
namespace {

// One randomly generated field with its expected typed value.
struct FuzzField {
  enum class Kind { kString, kInt64, kUint64, kDouble, kBool };
  Kind kind = Kind::kString;
  std::string key;
  std::string string_value;
  int64_t int_value = 0;
  uint64_t uint_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
};

std::string RandomToken(std::mt19937_64& rng, int min_len, int max_len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-/:";
  std::uniform_int_distribution<int> len(min_len, max_len);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
  std::string token;
  const int n = len(rng);
  token.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    token.push_back(kAlphabet[pick(rng)]);
  }
  return token;
}

// A random *finite* double drawn from raw bit patterns — covers denormals, huge and
// tiny magnitudes, and every exponent, not just "nice" values.
double RandomFiniteDouble(std::mt19937_64& rng) {
  for (;;) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) {
      return value;
    }
  }
}

std::vector<FuzzField> RandomFields(std::mt19937_64& rng, int count) {
  std::vector<FuzzField> fields;
  for (int i = 0; i < count; ++i) {
    FuzzField field;
    // Unique keys (duplicates are a parse error by design): suffix with the index.
    field.key = RandomToken(rng, 1, 8) + std::to_string(i);
    switch (rng() % 5) {
      case 0:
        field.kind = FuzzField::Kind::kString;
        field.string_value = RandomToken(rng, 1, 24);
        break;
      case 1:
        field.kind = FuzzField::Kind::kInt64;
        field.int_value = static_cast<int64_t>(rng());
        break;
      case 2:
        field.kind = FuzzField::Kind::kUint64;
        field.uint_value = rng();
        break;
      case 3:
        field.kind = FuzzField::Kind::kDouble;
        field.double_value = RandomFiniteDouble(rng);
        break;
      case 4:
        field.kind = FuzzField::Kind::kBool;
        field.bool_value = (rng() & 1) != 0;
        break;
    }
    fields.push_back(std::move(field));
  }
  return fields;
}

std::string BuildLine(const std::string& tag, const std::vector<FuzzField>& fields) {
  RecordWriter w(tag);
  for (const FuzzField& field : fields) {
    switch (field.kind) {
      case FuzzField::Kind::kString:
        w.Field(field.key, field.string_value);
        break;
      case FuzzField::Kind::kInt64:
        w.Field(field.key, field.int_value);
        break;
      case FuzzField::Kind::kUint64:
        w.Field(field.key, field.uint_value);
        break;
      case FuzzField::Kind::kDouble:
        w.Field(field.key, field.double_value);
        break;
      case FuzzField::Kind::kBool:
        w.Field(field.key, field.bool_value);
        break;
    }
  }
  return w.line();
}

void ExpectRoundTrip(const std::string& tag, const std::vector<FuzzField>& fields,
                     const std::string& line) {
  RecordReader reader;
  ASSERT_TRUE(RecordReader::Parse(line, &reader).ok) << line;
  ASSERT_TRUE(reader.ExpectTag(tag).ok);
  for (const FuzzField& field : fields) {
    switch (field.kind) {
      case FuzzField::Kind::kString: {
        std::string value;
        ASSERT_TRUE(reader.Get(field.key, &value).ok) << field.key;
        EXPECT_EQ(value, field.string_value);
        break;
      }
      case FuzzField::Kind::kInt64: {
        int64_t value = 0;
        ASSERT_TRUE(reader.Get(field.key, &value).ok) << field.key;
        EXPECT_EQ(value, field.int_value);
        break;
      }
      case FuzzField::Kind::kUint64: {
        uint64_t value = 0;
        ASSERT_TRUE(reader.Get(field.key, &value).ok) << field.key;
        EXPECT_EQ(value, field.uint_value);
        break;
      }
      case FuzzField::Kind::kDouble: {
        double value = 0.0;
        ASSERT_TRUE(reader.Get(field.key, &value).ok) << field.key;
        // Exact bit equality (including the sign of zero): %.17g round-trips.
        EXPECT_EQ(std::bit_cast<uint64_t>(value),
                  std::bit_cast<uint64_t>(field.double_value))
            << field.key << " = " << FormatDouble(field.double_value);
        break;
      }
      case FuzzField::Kind::kBool: {
        bool value = false;
        ASSERT_TRUE(reader.Get(field.key, &value).ok) << field.key;
        EXPECT_EQ(value, field.bool_value);
        break;
      }
    }
  }
  EXPECT_TRUE(reader.ExpectAllConsumed().ok);
}

// --- round-trip properties ----------------------------------------------------------

TEST(SerdePropertyTest, RandomRecordsRoundTripExactly) {
  std::mt19937_64 rng(20260730);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const std::string tag = RandomToken(rng, 1, 10);
    const auto fields = RandomFields(rng, 1 + static_cast<int>(rng() % 12));
    ExpectRoundTrip(tag, fields, BuildLine(tag, fields));
  }
}

TEST(SerdePropertyTest, ExtremeDoublesRoundTripBitExactly) {
  std::mt19937_64 rng(7);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const double value = RandomFiniteDouble(rng);
    double parsed = 0.0;
    const Status s = ParseDouble(FormatDouble(value), &parsed);
    ASSERT_TRUE(s.ok) << FormatDouble(value) << ": " << s.message;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed), std::bit_cast<uint64_t>(value))
        << FormatDouble(value);
  }
}

TEST(SerdePropertyTest, VeryLongLinesRoundTrip) {
  // Hundreds of fields and multi-kilobyte values — far beyond anything the sweep
  // pipeline writes, so real records sit comfortably inside tested territory.
  std::mt19937_64 rng(11);
  std::vector<FuzzField> fields;
  for (int i = 0; i < 400; ++i) {
    FuzzField field;
    field.key = "k" + std::to_string(i);
    field.kind = FuzzField::Kind::kUint64;
    field.uint_value = rng();
    fields.push_back(field);
  }
  FuzzField big;
  big.key = "blob";
  big.kind = FuzzField::Kind::kString;
  big.string_value = RandomToken(rng, 8000, 8000);
  fields.push_back(big);
  const std::string line = BuildLine("long", fields);
  EXPECT_GT(line.size(), 10000u);
  ExpectRoundTrip("long", fields, line);
}

TEST(SerdePropertyTest, DataLinesSurviveRandomBlankAndCommentInterleaving) {
  std::mt19937_64 rng(13);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const int records = 1 + static_cast<int>(rng() % 8);
    std::vector<std::string> expected;
    std::string text;
    for (int i = 0; i < records; ++i) {
      switch (rng() % 3) {
        case 0:
          text += "\n";
          break;
        case 1:
          text += "# " + RandomToken(rng, 0, 12) + "\n";
          break;
        default:
          break;
      }
      expected.push_back(RandomToken(rng, 1, 6) + " v=" + std::to_string(i));
      text += expected.back() + (rng() % 2 == 0 ? "\r\n" : "\n");
    }
    const auto lines = DataLines(text);
    ASSERT_EQ(lines.size(), expected.size());
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], expected[i]);
    }
  }
}

// --- mutation rejection -------------------------------------------------------------

TEST(SerdePropertyTest, TruncationsThatOrphanAKeyAreRejected) {
  std::mt19937_64 rng(17);
  int rejected_cuts = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const std::string tag = RandomToken(rng, 1, 6);
    const auto fields = RandomFields(rng, 2 + static_cast<int>(rng() % 6));
    const std::string line = BuildLine(tag, fields);
    // Cut everywhere inside the final "key=value" token: every such prefix leaves a
    // bare key fragment ("k", "key", "key=") that strict parsing must reject.  (A cut
    // right after the separating space leaves only trailing whitespace, which the
    // grammar tolerates, so the loop starts one character into the orphan key.)
    const size_t last_space = line.rfind(' ');
    ASSERT_NE(last_space, std::string::npos);
    const size_t last_eq = line.find('=', last_space);
    ASSERT_NE(last_eq, std::string::npos);
    for (size_t cut = last_space + 2; cut <= last_eq + 1; ++cut) {
      RecordReader reader;
      EXPECT_FALSE(RecordReader::Parse(line.substr(0, cut), &reader).ok)
          << "cut at " << cut << " of: " << line;
      ++rejected_cuts;
    }
  }
  EXPECT_GT(rejected_cuts, 200);
}

TEST(SerdePropertyTest, DuplicatedKeysAreRejectedWhereverTheyLand) {
  std::mt19937_64 rng(19);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const std::string tag = RandomToken(rng, 1, 6);
    const auto fields = RandomFields(rng, 1 + static_cast<int>(rng() % 8));
    const std::string line = BuildLine(tag, fields);
    // Re-append a copy of a random existing field's token.
    const FuzzField& victim = fields[rng() % fields.size()];
    const size_t key_pos = line.find(" " + victim.key + "=");
    ASSERT_NE(key_pos, std::string::npos);
    const size_t token_end = line.find(' ', key_pos + 1);
    const std::string token = line.substr(
        key_pos, (token_end == std::string::npos ? line.size() : token_end) - key_pos);
    RecordReader reader;
    EXPECT_FALSE(RecordReader::Parse(line + token, &reader).ok)
        << "duplicated " << victim.key << " in: " << line;
  }
}

TEST(SerdePropertyTest, EmptyValuesAndBareKeysAreRejected) {
  std::mt19937_64 rng(23);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const std::string tag = RandomToken(rng, 1, 6);
    const auto fields = RandomFields(rng, 1 + static_cast<int>(rng() % 4));
    const std::string line = BuildLine(tag, fields);
    RecordReader reader;
    // An empty value ("key=") and a bare key (no '=') anywhere in the record.
    EXPECT_FALSE(RecordReader::Parse(line + " extra=", &reader).ok) << line;
    EXPECT_FALSE(RecordReader::Parse(line + " extra", &reader).ok) << line;
    EXPECT_FALSE(RecordReader::Parse(line + " =value", &reader).ok) << line;
  }
}

TEST(SerdePropertyTest, NumericTokenMutationsNeverCrashAndGarbageIsRejected) {
  // Random garbage thrown at every typed parser: outcomes are Status, never aborts;
  // tokens with characters no number can contain must be errors.
  std::mt19937_64 rng(29);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const std::string token = RandomToken(rng, 1, 12);
    double d = 0.0;
    int i = 0;
    int64_t i64 = 0;
    uint64_t u64 = 0;
    bool b = false;
    (void)ParseDouble(token, &d);
    (void)ParseInt(token, &i);
    (void)ParseInt64(token, &i64);
    (void)ParseUint64(token, &u64);
    (void)ParseBool(token, &b);
    if (token.find_first_of("_/:") != std::string::npos) {
      EXPECT_FALSE(ParseDouble(token, &d).ok) << token;
      EXPECT_FALSE(ParseInt64(token, &i64).ok) << token;
      EXPECT_FALSE(ParseUint64(token, &u64).ok) << token;
    }
  }
}

TEST(SerdePropertyTest, LeadingWhitespaceIsRejectedByEveryNumberParser) {
  // The C parsers under ParseDouble/ParseInt64/ParseUint64 skip leading whitespace;
  // the whole token must be the number, so every isspace byte in front of any valid
  // number is refused — and " -1" must not wrap to 2^64 - 1 as an unsigned.
  const std::string blanks[] = {" ", "\t", "\n", "\v", "\f", "\r", "  ", " \t"};
  const std::string numbers[] = {"0", "7", "-1", "+1", "2.5", "-2.5", "1e3",
                                 "18446744073709551615"};
  for (const std::string& blank : blanks) {
    for (const std::string& number : numbers) {
      const std::string token = blank + number;
      double d = 42.0;
      int i = 42;
      int64_t i64 = 42;
      uint64_t u64 = 42;
      EXPECT_FALSE(ParseDouble(token, &d).ok) << "'" << token << "'";
      EXPECT_FALSE(ParseInt(token, &i).ok) << "'" << token << "'";
      EXPECT_FALSE(ParseInt64(token, &i64).ok) << "'" << token << "'";
      EXPECT_FALSE(ParseUint64(token, &u64).ok) << "'" << token << "'";
      EXPECT_EQ(d, 42.0);
      EXPECT_EQ(i, 42);
      EXPECT_EQ(i64, 42);
      EXPECT_EQ(u64, 42u);
    }
  }
  // The same numbers without the blank still parse.
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseUint64("7", &u64).ok);
  EXPECT_EQ(u64, 7u);
  int64_t i64 = 0;
  EXPECT_TRUE(ParseInt64("-1", &i64).ok);
  EXPECT_EQ(i64, -1);
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("2.5", &d).ok);
  EXPECT_EQ(d, 2.5);
}

TEST(SerdePropertyTest, FingerprintSeparatesSingleCharacterMutations) {
  std::mt19937_64 rng(31);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const std::string tag = RandomToken(rng, 1, 6);
    const auto fields = RandomFields(rng, 1 + static_cast<int>(rng() % 6));
    std::string line = BuildLine(tag, fields);
    const uint64_t fp = Fnv1a64(line);
    const size_t pos = rng() % line.size();
    const char original = line[pos];
    line[pos] = original == 'x' ? 'y' : 'x';
    if (line[pos] != original) {
      EXPECT_NE(Fnv1a64(line), fp) << line;
    }
  }
}

}  // namespace
}  // namespace alert::serde
