// Binary reader/writer round trips and truncation robustness.

#include "storage/serialize.h"

#include <gtest/gtest.h>

namespace provlin::storage {
namespace {

TEST(Serialize, PrimitiveRoundTrips) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-42);
  w.WriteDouble(3.14159);
  w.WriteString("hello");

  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, EmptyString) {
  BinaryWriter w;
  w.WriteString("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, StringWithEmbeddedNuls) {
  BinaryWriter w;
  std::string s("a\0b", 3);
  w.WriteString(s);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadString(), s);
}

TEST(Serialize, DatumRoundTripsAllKinds) {
  std::vector<Datum> datums{Datum::Null(), Datum(int64_t{-5}), Datum(2.5),
                            Datum("text")};
  BinaryWriter w;
  for (const Datum& d : datums) w.WriteDatum(d);
  BinaryReader r(w.buffer());
  for (const Datum& d : datums) {
    auto read = r.ReadDatum();
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, d);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, RowRoundTrip) {
  Row row{Datum("a"), Datum(int64_t{1}), Datum::Null()};
  BinaryWriter w;
  w.WriteRow(row);
  BinaryReader r(w.buffer());
  auto read = r.ReadRow();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, row);
}

TEST(Serialize, ReaderRejectsTruncationAtEveryLength) {
  // Failure injection: every strict prefix of a valid stream must fail
  // with Corruption, never crash or return bogus data silently.
  BinaryWriter w;
  w.WriteDatum(Datum("some string payload"));
  w.WriteDatum(Datum(int64_t{12345}));
  const std::string& full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    // The reader keeps a view: the prefix must outlive it.
    const std::string prefix = full.substr(0, len);
    BinaryReader r(prefix);
    auto d1 = r.ReadDatum();
    if (!d1.ok()) {
      EXPECT_EQ(d1.status().code(), StatusCode::kCorruption);
      continue;
    }
    auto d2 = r.ReadDatum();
    EXPECT_FALSE(d2.ok()) << "prefix length " << len;
  }
}

TEST(Serialize, ReaderRejectsBadDatumTag) {
  std::string data("\x09", 1);  // tag 9 is not a DatumKind
  BinaryReader r(data);
  auto d = r.ReadDatum();
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kCorruption);
}

TEST(Serialize, ReaderRejectsOverlongStringLength) {
  BinaryWriter w;
  w.WriteU64(1ull << 40);  // absurd length, no payload
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(Serialize, PositionTracksConsumption) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.position(), 0u);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_EQ(r.position(), 4u);
}

}  // namespace
}  // namespace provlin::storage
