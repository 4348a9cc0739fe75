#include "phy/scrambler.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace silence {
namespace {

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0), std::invalid_argument);
  EXPECT_THROW(Scrambler::keystream_cached(0), std::invalid_argument);
}

TEST(Scrambler, AllOnesSeedKnownPrefix) {
  // 802.11a 17.3.5.4: the all-ones seed generates a 127-bit sequence
  // beginning 0000 1110 1111 0010 ...
  const Bits seq = Scrambler::sequence(0x7F, 16);
  const Bits expected = {0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0};
  EXPECT_EQ(seq, expected);
}

TEST(Scrambler, SequenceHasPeriod127) {
  const Bits seq = Scrambler::sequence(0x35, 254);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]) << "position " << i;
  }
}

TEST(Scrambler, SequenceIsBalancedOverOnePeriod) {
  // A maximal-length 7-bit LFSR emits 64 ones and 63 zeros per period.
  const Bits seq = Scrambler::sequence(0x7F, 127);
  int ones = 0;
  for (auto b : seq) ones += b;
  EXPECT_EQ(ones, 64);
}

TEST(Scrambler, ScrambleDescrambleRoundTrip) {
  Rng rng(21);
  const Bits plain = rng.bits(1000);
  Scrambler tx(0x5D);
  const Bits scrambled = tx.apply(plain);
  Scrambler rx(0x5D);
  EXPECT_EQ(rx.apply(scrambled), plain);
}

TEST(Scrambler, ScrambleActuallyChangesBits) {
  const Bits plain(100, 0);
  Scrambler tx(0x5D);
  const Bits scrambled = tx.apply(plain);
  EXPECT_NE(scrambled, plain);
}

TEST(Scrambler, RecoverSeedFromServicePrefix) {
  for (std::uint8_t seed = 1; seed < 128; ++seed) {
    // SERVICE bits are zero, so the first 7 scrambled bits are the PN
    // sequence itself.
    const Bits prefix = Scrambler::sequence(seed, 7);
    EXPECT_EQ(Scrambler::recover_seed(prefix), seed);
  }
}

TEST(Scrambler, RecoverSeedNeedsSevenBits) {
  const Bits short_prefix(3, 0);
  EXPECT_THROW(Scrambler::recover_seed(short_prefix), std::invalid_argument);
}

TEST(Scrambler, AllSeedsGenerateSameCycle) {
  // Every non-zero seed walks the same 127-state cycle, just offset.
  const Bits reference = Scrambler::sequence(0x7F, 127);
  const Bits other = Scrambler::sequence(0x2A, 254);
  bool found = false;
  for (std::size_t offset = 0; offset < 127 && !found; ++offset) {
    bool match = true;
    for (std::size_t i = 0; i < 127; ++i) {
      if (other[offset + i] != reference[i]) {
        match = false;
        break;
      }
    }
    found = match;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace silence
