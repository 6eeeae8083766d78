// Golden image of the bulk-ingest write path. A fixed ~3k-leaf tree
// with sequences is stored (LoadTree), given its species data
// (AppendSpeciesData) and checkpointed on a durable on-disk session.
// The write-ahead log after the append and the database file after the
// checkpoint must hash to digests recorded from an earlier build, so
// index order, row encoding, page layout and the WAL record checksums
// are all pinned by one check.
//
// The input is generated from integer draws only (edge lengths are
// multiples of 1/256), so it is identical on every platform.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "crimson/crimson.h"

namespace crimson {
namespace {

constexpr uint32_t kLeaves = 3000;
constexpr size_t kSequenceLength = 120;

double EdgeLength(Rng* rng) {
  return static_cast<double>(1 + rng->Uniform(1024)) / 256;
}

PhyloTree GoldenTree(Rng* rng) {
  PhyloTree t;
  t.Reserve(2 * kLeaves);
  std::vector<NodeId> leaves = {t.AddRoot("")};
  while (leaves.size() < kLeaves) {
    size_t pick = static_cast<size_t>(rng->Uniform(leaves.size()));
    NodeId n = leaves[pick];
    NodeId a = t.AddChild(n, "", EdgeLength(rng));
    NodeId b = t.AddChild(n, "", EdgeLength(rng));
    leaves[pick] = a;
    leaves.push_back(b);
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    t.set_name(leaves[i], StrFormat("sp%04zu", i));
  }
  return t;
}

std::map<std::string, std::string> GoldenSequences(const PhyloTree& tree,
                                                   Rng* rng) {
  std::map<std::string, std::string> out;
  for (NodeId leaf : tree.Leaves()) {
    std::string seq(kSequenceLength, 'A');
    for (char& c : seq) c = "ACGT"[rng->Uniform(4)];
    out.emplace(std::string(tree.name(leaf)), std::move(seq));
  }
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

// FNV-1a, 64-bit: independent of the Crc32 under test.
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t Fnv1a64(const std::string& bytes, uint64_t h = kFnvBasis) {
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(v));
}

struct Digest {
  uint64_t bytes = 0;
  uint64_t fnv = 0;
};

// All WAL segments (<base>.000001, .000002, ...) in order.
Digest WalDigest(const std::string& base) {
  Digest d;
  d.fnv = kFnvBasis;
  std::string seg;
  for (uint32_t i = 1; ReadFile(base + StrFormat(".%06u", i), &seg); ++i) {
    d.bytes += seg.size();
    d.fnv = Fnv1a64(seg, d.fnv);
  }
  return d;
}

void RemoveDatabaseFiles(const std::string& db_path) {
  std::remove(db_path.c_str());
  for (uint32_t i = 1; i <= 8; ++i) {
    std::remove((db_path + StrFormat("-wal.%06u", i)).c_str());
  }
}

TEST(IngestGoldenTest, LoadAppendCheckpointImageIsUnchanged) {
  const std::string db_path =
      ::testing::TempDir() + "crimson_ingest_golden.db";
  RemoveDatabaseFiles(db_path);

  Rng rng(2006);
  const PhyloTree tree = GoldenTree(&rng);
  const std::map<std::string, std::string> sequences =
      GoldenSequences(tree, &rng);

  CrimsonOptions opts;
  opts.db_path = db_path;
  opts.durability = Durability::kGroupCommit;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  auto load = (*session)->LoadTree("gold", tree);
  ASSERT_TRUE(load.ok()) << load.status();
  auto append = (*session)->AppendSpeciesData("gold", sequences);
  ASSERT_TRUE(append.ok()) << append.status();
  ASSERT_EQ(append->species_loaded, kLeaves);

  const Digest wal = WalDigest(db_path + "-wal");
  ASSERT_TRUE((*session)->Checkpoint().ok());
  std::string image;
  ASSERT_TRUE(ReadFile(db_path, &image));
  session->reset();

  // Recorded from the build that resolved species through per-name
  // index lookups, sorted every bulk index run and computed CRC32 one
  // byte at a time.
  EXPECT_EQ(wal.bytes, 2094555u);
  EXPECT_EQ(wal.fnv, 0x572cb91809be806dull) << Hex(wal.fnv);
  EXPECT_EQ(image.size(), 1875968u);
  EXPECT_EQ(Fnv1a64(image), 0xeb926ebb31d8dcf1ull) << Hex(Fnv1a64(image));
  RemoveDatabaseFiles(db_path);
}

}  // namespace
}  // namespace crimson
