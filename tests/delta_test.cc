// Tests for the onepass binary delta codec (storage/delta.h): lossless
// round-trips through in-place reconstruction across the update shapes
// checkpoints produce (append, mutate, shrink, rewrite), compression
// on append-shaped updates (the incremental-checkpoint case), header
// introspection, and seeded fuzz hardening — every truncation point
// and single-bit flip of a real delta must come back as Corruption,
// never a crash or a silently wrong reconstruction.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "storage/delta.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace onex {
namespace storage {
namespace {

/// Deterministic pseudo-random bytes (seeded: failures reproduce).
std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) {
    c = static_cast<char>(rng.Uniform(256));
  }
  return out;
}

uint32_t CrcOf(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// EncodeDelta with the old CRC computed here (a checkpointing leader
/// already holds it); checks the new CRC the encoder reports.
std::string Encode(const std::string& old_bytes,
                   const std::string& new_bytes) {
  uint32_t new_crc = 0;
  std::string delta =
      EncodeDelta(old_bytes, CrcOf(old_bytes), new_bytes, &new_crc);
  EXPECT_EQ(new_crc, CrcOf(new_bytes));
  return delta;
}

/// ApplyDeltaInPlace with the buffer's true CRC as the caller's.
Status Apply(std::string* buffer, std::string_view delta) {
  return ApplyDeltaInPlace(buffer, CrcOf(*buffer), delta);
}

/// Encode, apply in place, and require byte-identity with `new_bytes`.
/// Returns the delta for further inspection.
std::string RoundTrip(const std::string& old_bytes,
                      const std::string& new_bytes) {
  const std::string delta = Encode(old_bytes, new_bytes);
  std::string buffer = old_bytes;
  const Status applied = Apply(&buffer, delta);
  EXPECT_TRUE(applied.ok()) << applied.ToString();
  EXPECT_EQ(buffer, new_bytes);
  return delta;
}

TEST(DeltaTest, IdenticalBuffersEncodeTiny) {
  const std::string bytes = RandomBytes(64 * 1024, 1);
  const std::string delta = RoundTrip(bytes, bytes);
  // One COPY command + header: far below the input size.
  EXPECT_LT(delta.size(), 100u);
  auto info = InspectDelta(delta);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().copy_bytes, bytes.size());
  EXPECT_EQ(info.value().add_bytes, 0u);
}

TEST(DeltaTest, AppendShapedUpdateCompresses) {
  // The incremental-checkpoint shape: old content intact, new bytes at
  // the end. The delta must be ~the appended suffix, not the snapshot.
  const std::string old_bytes = RandomBytes(256 * 1024, 2);
  const std::string suffix = RandomBytes(4 * 1024, 3);
  const std::string new_bytes = old_bytes + suffix;
  const std::string delta = RoundTrip(old_bytes, new_bytes);
  EXPECT_LT(delta.size(), suffix.size() + 200);
}

TEST(DeltaTest, MidBufferInsertShiftsContentRight) {
  // Insert in the middle: everything after the insertion point shifts
  // right (src < target), exactly what decreasing-target in-place
  // application exists for. Both halves must come from COPYs.
  const std::string old_bytes = RandomBytes(128 * 1024, 4);
  const std::string inserted = RandomBytes(512, 5);
  const std::string new_bytes = old_bytes.substr(0, 40 * 1024) + inserted +
                                old_bytes.substr(40 * 1024);
  const std::string delta = RoundTrip(old_bytes, new_bytes);
  auto info = InspectDelta(delta);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().copy_bytes, old_bytes.size() - 1024);
  EXPECT_LT(delta.size(), 4 * 1024u);
}

TEST(DeltaTest, MutatedRegionCarriedAsAdd) {
  std::string old_bytes = RandomBytes(64 * 1024, 6);
  std::string new_bytes = old_bytes;
  for (size_t i = 10 * 1024; i < 11 * 1024; ++i) {
    new_bytes[i] = static_cast<char>(new_bytes[i] ^ 0x5a);
  }
  const std::string delta = RoundTrip(old_bytes, new_bytes);
  EXPECT_LT(delta.size(), 3 * 1024u);
}

TEST(DeltaTest, ShrinkingUpdateRoundTrips) {
  const std::string old_bytes = RandomBytes(96 * 1024, 7);
  const std::string new_bytes = old_bytes.substr(0, 32 * 1024);
  RoundTrip(old_bytes, new_bytes);
}

TEST(DeltaTest, TotalRewriteFallsBackToAdd) {
  const std::string old_bytes = RandomBytes(16 * 1024, 8);
  const std::string new_bytes = RandomBytes(16 * 1024, 9);
  const std::string delta = RoundTrip(old_bytes, new_bytes);
  auto info = InspectDelta(delta);
  ASSERT_TRUE(info.ok());
  // Unrelated random content: essentially everything ships literally.
  EXPECT_GT(info.value().add_bytes, new_bytes.size() / 2);
}

TEST(DeltaTest, EmptyOldAndEmptyNew) {
  RoundTrip("", RandomBytes(1000, 10));  // Bootstrap: no previous version.
  RoundTrip(RandomBytes(1000, 11), "");  // Collapse to empty.
  RoundTrip("", "");
}

TEST(DeltaTest, SmallBuffersBelowBlockSize) {
  RoundTrip("abc", "abcd");
  RoundTrip("abcd", "abc");
  RoundTrip("x", "y");
}

TEST(DeltaTest, InspectReportsSizes) {
  const std::string old_bytes = RandomBytes(10 * 1024, 12);
  const std::string new_bytes = old_bytes + RandomBytes(100, 13);
  auto info = InspectDelta(Encode(old_bytes, new_bytes));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().old_size, old_bytes.size());
  EXPECT_EQ(info.value().new_size, new_bytes.size());
  EXPECT_EQ(info.value().copy_bytes + info.value().add_bytes, new_bytes.size());
}

TEST(DeltaTest, ApplyRejectsWrongBase) {
  const std::string old_bytes = RandomBytes(8 * 1024, 14);
  const std::string new_bytes = old_bytes + "tail";
  const std::string delta = Encode(old_bytes, new_bytes);

  std::string wrong_size = old_bytes.substr(1);
  EXPECT_FALSE(Apply(&wrong_size, delta).ok());

  std::string wrong_bytes = old_bytes;
  wrong_bytes[100] = static_cast<char>(wrong_bytes[100] ^ 1);
  const Status applied = Apply(&wrong_bytes, delta);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.code(), Status::Code::kCorruption);
}

TEST(DeltaTest, ApplyChecksTheCallersCrcAgainstTheHeader) {
  // The buffer is not re-CRC'd before apply: the CRC the caller passes
  // stands for it, so a claimed CRC that is not the delta's base is
  // refused even when the bytes themselves are right.
  const std::string old_bytes = RandomBytes(8 * 1024, 22);
  const std::string new_bytes = old_bytes + "tail";
  const std::string delta = Encode(old_bytes, new_bytes);
  std::string buffer = old_bytes;
  const Status applied =
      ApplyDeltaInPlace(&buffer, CrcOf(old_bytes) ^ 1u, delta);
  EXPECT_EQ(applied.code(), Status::Code::kCorruption);

  // A chain passes each link's verified new_crc as the next old CRC.
  const std::string newer = new_bytes + "more";
  const std::string second = Encode(new_bytes, newer);
  buffer = old_bytes;
  ASSERT_TRUE(ApplyDeltaInPlace(&buffer, CrcOf(old_bytes), delta).ok());
  auto info = InspectDelta(delta);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(ApplyDeltaInPlace(&buffer, info.value().new_crc, second).ok());
  EXPECT_EQ(buffer, newer);
}

TEST(DeltaTest, GarbageIsRejected) {
  EXPECT_FALSE(InspectDelta("").ok());
  EXPECT_FALSE(InspectDelta("ODLT").ok());
  EXPECT_FALSE(InspectDelta(RandomBytes(200, 15)).ok());
  std::string buffer = "anything";
  EXPECT_FALSE(Apply(&buffer, RandomBytes(200, 16)).ok());
}

// ------------------------------------------------------------- fuzzing.
// Same treatment LoadBase got in PR 3: a real artifact, then every
// prefix truncation and a sweep of single-bit flips. Every mutation
// must either fail parse/apply with Corruption or — if the flip lands
// in ADD literal bytes and somehow passes — be caught by the
// reconstruction CRC. No crash, no silent wrong answer.

TEST(DeltaTest, FuzzTruncationAtEveryBoundary) {
  const std::string old_bytes = RandomBytes(4 * 1024, 17);
  std::string new_bytes = old_bytes + RandomBytes(256, 18);
  new_bytes[512] = static_cast<char>(new_bytes[512] ^ 0xff);
  const std::string delta = Encode(old_bytes, new_bytes);

  for (size_t cut = 0; cut < delta.size(); ++cut) {
    const std::string_view truncated(delta.data(), cut);
    EXPECT_FALSE(InspectDelta(truncated).ok()) << "cut=" << cut;
    std::string buffer = old_bytes;
    const Status applied = Apply(&buffer, truncated);
    ASSERT_FALSE(applied.ok()) << "cut=" << cut;
    EXPECT_EQ(applied.code(), Status::Code::kCorruption) << "cut=" << cut;
  }
}

TEST(DeltaTest, FuzzSingleBitFlips) {
  const std::string old_bytes = RandomBytes(2 * 1024, 19);
  const std::string new_bytes =
      old_bytes.substr(0, 1024) + RandomBytes(64, 20) + old_bytes.substr(1024);
  const std::string delta = Encode(old_bytes, new_bytes);

  Rng rng(21);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t byte = static_cast<size_t>(rng.Uniform(delta.size()));
    const int bit = static_cast<int>(rng.Uniform(8));
    std::string mutated = delta;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));

    std::string buffer = old_bytes;
    const Status applied = Apply(&buffer, mutated);
    if (applied.ok()) {
      // A flip that still applies cleanly must have reconstructed the
      // exact new bytes (e.g. a flip inside ignored probe padding is
      // impossible in this format — so really: must never happen
      // unless the mutation undid itself).
      EXPECT_EQ(buffer, new_bytes) << "byte=" << byte << " bit=" << bit;
    } else {
      EXPECT_EQ(applied.code(), Status::Code::kCorruption)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace onex
