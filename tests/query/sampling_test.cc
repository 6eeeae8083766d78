#include "query/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "sim/tree_sim.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

class PaperSamplingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = MakePaperFigure1Tree();
    sampler_ = std::make_unique<Sampler>(&tree_);
  }
  PhyloTree tree_;
  std::unique_ptr<Sampler> sampler_;
};

TEST_F(PaperSamplingTest, TimeFrontierGolden) {
  // Paper §2.2: at evolutionary distance 1 the frontier is exactly
  // {Bha, x, Syn, Bsu} where x is the parent of Lla and Spy.
  std::vector<NodeId> frontier = sampler_->TimeFrontier(1.0);
  NodeId x = tree_.parent(tree_.FindByName("Lla"));
  std::set<NodeId> expect = {tree_.FindByName("Bha"), x,
                             tree_.FindByName("Syn"),
                             tree_.FindByName("Bsu")};
  EXPECT_EQ(std::set<NodeId>(frontier.begin(), frontier.end()), expect);
}

TEST_F(PaperSamplingTest, TimeSampleMatchesPaperOutcomes) {
  // "The result is {Bha, Lla, Syn, BSU} or {Bha, Spy, Syn, BSU}."
  Rng rng(9);
  for (int rep = 0; rep < 50; ++rep) {
    auto sample = sampler_->SampleWithRespectToTime(4, 1.0, &rng);
    ASSERT_TRUE(sample.ok()) << sample.status();
    std::set<std::string> names;
    for (NodeId n : *sample) names.insert(std::string(tree_.name(n)));
    std::set<std::string> a = {"Bha", "Lla", "Syn", "Bsu"};
    std::set<std::string> b = {"Bha", "Spy", "Syn", "Bsu"};
    EXPECT_TRUE(names == a || names == b)
        << "unexpected sample in rep " << rep;
  }
}

TEST_F(PaperSamplingTest, BothPaperOutcomesOccur) {
  Rng rng(10);
  bool saw_lla = false, saw_spy = false;
  for (int rep = 0; rep < 200 && !(saw_lla && saw_spy); ++rep) {
    auto sample = sampler_->SampleWithRespectToTime(4, 1.0, &rng);
    ASSERT_TRUE(sample.ok());
    for (NodeId n : *sample) {
      if (tree_.name(n) == "Lla") saw_lla = true;
      if (tree_.name(n) == "Spy") saw_spy = true;
    }
  }
  EXPECT_TRUE(saw_lla);
  EXPECT_TRUE(saw_spy);
}

TEST_F(PaperSamplingTest, FrontierMinimality) {
  // Every frontier node's weight exceeds t, its parent's does not.
  std::vector<double> w = tree_.RootPathWeights();
  for (double t : {0.0, 0.5, 1.0, 2.0, 2.4}) {
    for (NodeId n : sampler_->TimeFrontier(t)) {
      EXPECT_GT(w[n], t);
      if (n != tree_.root()) EXPECT_LE(w[tree_.parent(n)], t);
    }
  }
}

TEST_F(PaperSamplingTest, FrontierBeyondTreeIsEmpty) {
  EXPECT_TRUE(sampler_->TimeFrontier(100.0).empty());
  Rng rng(11);
  EXPECT_TRUE(
      sampler_->SampleWithRespectToTime(2, 100.0, &rng).status().IsNotFound());
}

TEST_F(PaperSamplingTest, UniformSampleBasics) {
  Rng rng(12);
  auto s = sampler_->SampleUniform(3, &rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 3u);
  std::set<NodeId> uniq(s->begin(), s->end());
  EXPECT_EQ(uniq.size(), 3u);
  for (NodeId n : *s) EXPECT_TRUE(tree_.is_leaf(n));
  // Oversampling rejected.
  EXPECT_TRUE(sampler_->SampleUniform(6, &rng).status().IsInvalidArgument());
  // Sampling everything returns all leaves.
  auto all = sampler_->SampleUniform(5, &rng);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);
}

TEST_F(PaperSamplingTest, LeavesUnder) {
  NodeId p = tree_.parent(tree_.parent(tree_.FindByName("Lla")));
  auto leaves = sampler_->LeavesUnder(p);
  std::set<std::string> names;
  for (NodeId n : leaves) names.insert(std::string(tree_.name(n)));
  EXPECT_EQ(names, (std::set<std::string>{"Bha", "Lla", "Spy"}));
}

class SamplingPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SamplingPropertyTest, TimeSamplingOnYuleLikeTree) {
  Rng rng(500 + GetParam());
  PhyloTree t = MakeRandomBinary(500, &rng);
  Sampler sampler(&t);
  std::vector<double> w = t.RootPathWeights();
  double max_w = *std::max_element(w.begin(), w.end());
  double time = max_w * 0.2;
  size_t k = GetParam();
  auto sample = sampler.SampleWithRespectToTime(k, time, &rng);
  ASSERT_TRUE(sample.ok()) << sample.status();
  EXPECT_EQ(sample->size(), k);
  std::set<NodeId> uniq(sample->begin(), sample->end());
  EXPECT_EQ(uniq.size(), k) << "sample has duplicates";
  for (NodeId n : *sample) {
    EXPECT_TRUE(t.is_leaf(n));
    EXPECT_GT(w[n], time) << "sampled leaf above the time frontier";
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, SamplingPropertyTest,
                         ::testing::Values(1, 4, 16, 64, 250));

TEST(SamplingDistributionTest, UniformSamplingIsRoughlyUniform) {
  PhyloTree t = MakeBalancedBinary(5);  // 32 leaves
  Sampler sampler(&t);
  Rng rng(13);
  std::map<NodeId, int> counts;
  const int reps = 4000;
  for (int i = 0; i < reps; ++i) {
    auto sample = sampler.SampleUniform(4, &rng);
    ASSERT_TRUE(sample.ok());
    for (NodeId n : *sample) ++counts[n];
  }
  // Each leaf expected reps * 4 / 32 = 500 hits; allow generous slack.
  for (const auto& [leaf, count] : counts) {
    EXPECT_GT(count, 350) << t.name(leaf);
    EXPECT_LT(count, 650) << t.name(leaf);
  }
  EXPECT_EQ(counts.size(), 32u);
}

// -- golden draws -------------------------------------------------------------
//
// Outputs, error statuses and the caller's Rng state after the call,
// recorded from the implementation that re-walked every frontier
// subtree and sorted the frontier by freshly built pre-order ranks
// (commit 1ad67aa). The subtree-index sampler must reproduce them
// byte for byte: the same frontier order, and the same draws in the
// same order -- including shortfall refills and the draws an erroring
// call consumes before it fails.

struct GoldenDraw {
  const char* tree;
  size_t k;
  double time;
  /// `time` is a fraction of the tree's maximum root-path weight.
  bool relative;
  uint64_t seed;
  StatusCode code;
  std::vector<NodeId> sample;  // when code is kOk
  const char* message;         // when code is not kOk
  uint64_t next_draw;          // rng.Next() after the call
};

PhyloTree GoldenTree(const std::string& name) {
  if (name == "paper") return MakePaperFigure1Tree();
  if (name == "caterpillar") return MakeCaterpillar(20);
  if (name == "random") {
    Rng rng(77);
    return MakeRandomBinary(300, &rng);
  }
  PhyloTree t;  // "single"
  t.AddRoot("only");
  return t;
}

double MaxRootWeight(const PhyloTree& t) {
  std::vector<double> w = t.RootPathWeights();
  return *std::max_element(w.begin(), w.end());
}

TEST(SamplingGoldenTest, TimeSamplesMatchRecordedDraws) {
  const GoldenDraw kDraws[] = {
    // |F|=4, even split, no shortfall.
    {"paper", 4, 1.0, false, 21, StatusCode::kOk, {1, 7, 5, 3},
     "", 0xc3aa89d89f0209afULL},
    // |F|=4, remainder 2, no shortfall.
    {"paper", 2, 1.0, false, 22, StatusCode::kOk, {6, 3},
     "", 0x006f4e3e2e6101acULL},
    // |F|=4, remainder 1, no shortfall.
    {"paper", 5, 1.0, false, 23, StatusCode::kOk, {1, 6, 7, 5, 3},
     "", 0xd833389026506638ULL},
    // |F|=4, remainder 1, shortfall 1.
    {"paper", 5, 1.0, false, 24, StatusCode::kOk, {1, 7, 5, 3, 6},
     "", 0x1769405b458c33b3ULL},
    // |F|=4, remainder 1, shortfall 1.
    {"paper", 5, 1.0, false, 25, StatusCode::kOk, {1, 6, 5, 3, 7},
     "", 0x5155381d371437c7ULL},
    // |F|=4, even split, shortfall 3.
    {"paper", 8, 1.0, false, 29, StatusCode::kInvalidArgument, {},
     "only 5 leaves below the time-1 frontier, need 8", 0x8fae096c569629e6ULL},
    // |F|=4, remainder 2, shortfall 1.
    {"paper", 6, 1.0, false, 30, StatusCode::kInvalidArgument, {},
     "only 5 leaves below the time-1 frontier, need 6", 0xdc92ff10881f64e0ULL},
    // Empty frontier.
    {"paper", 2, 100.0, false, 31, StatusCode::kNotFound, {},
     "no node has root-path weight > 100", 0xb56fc6744f1c7f18ULL},
    // |F|=4, even split, no shortfall.
    {"paper", 0, 1.0, false, 32, StatusCode::kOk, {},
     "", 0xa24d0e59e8168e5cULL},
    // |F|=3, remainder 1, no shortfall.
    {"paper", 4, 0.0, false, 33, StatusCode::kOk, {1, 6, 5, 3},
     "", 0xaed813603ee5a5baULL},
    // |F|=2, even split, shortfall 4.
    {"caterpillar", 10, 0.5, false, 41, StatusCode::kOk,
     {1, 7, 27, 31, 23, 19, 35, 3, 17, 40},
     "", 0x31a07af571ec1f5bULL},
    // |F|=2, remainder 1, shortfall 10.
    {"caterpillar", 21, 0.5, false, 42, StatusCode::kOk,
     {1, 29, 39, 40, 35, 33, 37, 9, 31, 15, 27, 23, 11, 21, 25, 7, 5, 3, 17, 19,
      13},
     "", 0x6faa904a94c529bdULL},
    // |F|=2, even split, shortfall 10.
    {"caterpillar", 22, 0.5, false, 43, StatusCode::kInvalidArgument, {},
     "only 21 leaves below the time-0.5 frontier, need 22",
     0x1cbe676106015a65ULL},
    // |F|=2, remainder 1, shortfall 3.
    {"caterpillar", 9, 10.5, false, 44, StatusCode::kOk,
     {21, 39, 31, 29, 37, 23, 33, 27, 35},
     "", 0xe5c6ca64b61a4fd6ULL},
    // |F|=60, remainder 16, no shortfall.
    {"random", 16, 0.3, true, 51, StatusCode::kOk,
     {497, 438, 571, 581, 553, 365, 523, 416, 356, 312, 488, 122, 448, 492, 84,
      479},
     "", 0x9c97bc5a21ebb3d4ULL},
    // |F|=60, remainder 4, shortfall 2.
    {"random", 64, 0.3, true, 52, StatusCode::kOk,
     {316, 179, 504, 462, 410, 564, 551, 152, 153, 571, 582, 470, 471, 554, 598,
      169, 586, 453, 523, 141, 416, 356, 184, 593, 539, 540, 512, 267, 588, 427,
      202, 464, 434, 76, 238, 488, 541, 542, 249, 439, 440, 559, 284, 584, 496,
      425, 422, 127, 122, 484, 324, 576, 448, 491, 418, 84, 444, 479, 485, 218,
      533, 309, 456, 545},
     "", 0x6de224b1f1140bfbULL},
    // |F|=2, even split, shortfall 25.
    {"random", 30, 0.7, true, 53, StatusCode::kInvalidArgument, {},
     "only 5 leaves below the time-19.3939 frontier, need 30",
     0x4107aaad367d2235ULL},
    // |F|=2, even split, shortfall 55.
    {"random", 60, 0.7, true, 54, StatusCode::kInvalidArgument, {},
     "only 5 leaves below the time-19.3939 frontier, need 60",
     0xa3a8ca5b66994ebfULL},
    // |F|=2, remainder 1, shortfall 2.
    {"random", 5, 0.7, true, 55, StatusCode::kOk, {185, 556, 474, 555, 473},
     "", 0x10e5ba606702f76dULL},
    // |F|=2, even split, shortfall 1.
    {"random", 4, 0.7, true, 56, StatusCode::kOk, {185, 555, 473, 556},
     "", 0x586cab5c8bb08dd1ULL},
    // |F|=1, even split, no shortfall.
    {"single", 1, -1.0, false, 61, StatusCode::kOk, {0},
     "", 0x82ae0222a9b486e3ULL},
    // Empty frontier.
    {"single", 1, 0.0, false, 62, StatusCode::kNotFound, {},
     "no node has root-path weight > 0", 0x4c83f9e43331c10fULL},
    // |F|=1, even split, shortfall 1.
    {"single", 2, -1.0, false, 63, StatusCode::kInvalidArgument, {},
     "only 1 leaves below the time--1 frontier, need 2", 0xd4e00f448cf82b6bULL},
  };
  std::map<std::string, PhyloTree> trees;
  for (const GoldenDraw& g : kDraws) {
    if (!trees.count(g.tree)) trees.emplace(g.tree, GoldenTree(g.tree));
  }
  for (const GoldenDraw& g : kDraws) {
    const PhyloTree& t = trees.at(g.tree);
    Sampler sampler(&t);
    const double time = g.relative ? MaxRootWeight(t) * g.time : g.time;
    Rng rng(g.seed);
    auto sample = sampler.SampleWithRespectToTime(g.k, time, &rng);
    SCOPED_TRACE(std::string(g.tree) + " seed " + std::to_string(g.seed));
    ASSERT_EQ(sample.status().code(), g.code) << sample.status();
    if (sample.ok()) {
      EXPECT_EQ(*sample, g.sample);
    } else {
      EXPECT_EQ(sample.status().message(), g.message);
    }
    EXPECT_EQ(rng.Next(), g.next_draw) << "Rng draw sequence diverged";
  }
}

/// FNV-1a over every output (or error code and message) plus the Rng
/// state after each of 300 seeded calls sweeping k and time.
uint64_t TimeSampleDigest(const PhyloTree& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  const size_t kKs[] = {1, 7, 64, 300, 1500, 1999};
  const double kFractions[] = {0.0, 0.2, 0.5, 0.8, 0.95, 0.999};
  const double max_w = MaxRootWeight(t);
  Sampler sampler(&t);
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    auto sample = sampler.SampleWithRespectToTime(
        kKs[seed % 6], max_w * kFractions[(seed / 6) % 6], &rng);
    if (sample.ok()) {
      mix(sample->data(), sample->size() * sizeof(NodeId));
    } else {
      int code = static_cast<int>(sample.status().code());
      mix(&code, sizeof(code));
      mix(sample.status().message().data(), sample.status().message().size());
    }
    uint64_t next = rng.Next();
    mix(&next, sizeof(next));
  }
  return h;
}

TEST(SamplingGoldenTest, YuleSweepMatchesRecordedDigest) {
  Rng rng(5);
  YuleOptions options;
  options.n_leaves = 2000;
  auto t = SimulateYule(options, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(TimeSampleDigest(*t), 0x5c9aa98c1cf7238bULL);
}

TEST(SamplingGoldenTest, BirthDeathSweepMatchesRecordedDigest) {
  // Extinct tips sit above late frontiers, so this sweep also crosses
  // the shortfall refill (133 of 300 calls) and its error (8 calls).
  Rng rng(6);
  BirthDeathOptions options;
  options.n_leaves = 1500;
  options.death_rate = 0.5;
  options.prune_extinct = false;
  auto t = SimulateBirthDeath(options, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(TimeSampleDigest(*t), 0xb41d206967aa0311ULL);
}

TEST(SamplingGoldenTest, FrontierMatchesNaiveOracleInPreOrder) {
  // Oracle: every node above `time` whose parent is not, sorted by
  // freshly built pre-order ranks.
  Rng tree_rng(79);
  BirthDeathOptions options;
  options.n_leaves = 300;
  options.prune_extinct = false;
  auto t = SimulateBirthDeath(options, &tree_rng);
  ASSERT_TRUE(t.ok());
  Sampler sampler(&*t);
  std::vector<double> w = t->RootPathWeights();
  std::vector<uint32_t> rank = t->PreOrderRanks();
  const double max_w = MaxRootWeight(*t);
  for (double fraction : {-0.1, 0.0, 0.1, 0.33, 0.5, 0.9, 0.999, 1.0}) {
    const double time = max_w * fraction;
    std::vector<NodeId> expect;
    for (NodeId n = 0; n < t->size(); ++n) {
      if (w[n] > time && (n == t->root() || w[t->parent(n)] <= time)) {
        expect.push_back(n);
      }
    }
    std::sort(expect.begin(), expect.end(),
              [&](NodeId a, NodeId b) { return rank[a] < rank[b]; });
    EXPECT_EQ(sampler.TimeFrontier(time), expect) << "fraction " << fraction;
  }
}

TEST(SamplingGoldenTest, BorrowedIndexDrawsLikeOwnedIndex) {
  Rng tree_rng(78);
  PhyloTree t = MakeRandomBinary(400, &tree_rng);
  SubtreeIndex index(&t);
  Sampler owned(&t);
  Sampler borrowed(&index);
  const double max_w = MaxRootWeight(t);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng a(seed), b(seed);
    auto x = owned.SampleWithRespectToTime(24, max_w * 0.4, &a);
    auto y = borrowed.SampleWithRespectToTime(24, max_w * 0.4, &b);
    ASSERT_TRUE(x.ok() && y.ok());
    EXPECT_EQ(*x, *y);
    EXPECT_EQ(owned.TimeFrontier(max_w * 0.4),
              borrowed.TimeFrontier(max_w * 0.4));
  }
}

}  // namespace
}  // namespace crimson
