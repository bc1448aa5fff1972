// Golden schedule digests: the committed reference for the slot kernel.
//
// Every corpus run (tests/sim/golden_corpus.h) must reproduce its
// committed digest for every shard count.  A digest moves whenever a
// scheduling decision, an emitted event or a counter changes, so a
// change that is meant to keep schedules byte-identical must leave this
// table alone; a change that is meant to alter them must say so and
// regenerate it (a failing run prints each corrected table line).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "golden_corpus.h"

namespace pfair {
namespace {

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kTable[] = {
#include "golden_digests.inc"
};
// clang-format on

constexpr std::size_t kRows = sizeof kTable / sizeof kTable[0];

std::string table_line(const std::string& name, std::uint64_t d) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016llxull},", name.c_str(),
                static_cast<unsigned long long>(d));
  return buf;
}

// The table lists the corpus cases by name, in corpus order.
TEST(GoldenDigest, TableCoversTheCorpusExactly) {
  const std::vector<golden::Case> corpus = golden::corpus();
  ASSERT_EQ(corpus.size(), kRows);
  for (std::size_t i = 0; i < kRows; ++i) EXPECT_EQ(corpus[i].name, kTable[i].name) << i;
}

TEST(GoldenDigest, EveryShardCountReproducesTheTable) {
  const std::vector<golden::Case> corpus = golden::corpus();
  ASSERT_EQ(corpus.size(), kRows);
  for (const int shards : {1, 2, 8}) {
    for (std::size_t i = 0; i < kRows; ++i) {
      const std::uint64_t got = golden::digest(corpus[i].runs(shards));
      EXPECT_EQ(got, kTable[i].digest)
          << "shards " << shards << ": " << corpus[i].name
          << " digest differs; table line: " << table_line(corpus[i].name, got);
    }
  }
}

}  // namespace
}  // namespace pfair
