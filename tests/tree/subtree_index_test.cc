// SubtreeIndex against naive oracles: the stack-based PreOrder walk
// (ranks, per-node leaf lists and subtree sizes), PhyloTree::Leaves()
// and RootPathWeights(), and MinimalSpanningClade's materialized node
// and leaf counts. Shapes cover the index's two-pass build assumptions:
// bushy (Yule), irregular with extinct tips (birth-death), maximally
// deep (caterpillar), unary chains, and the single-node tree.

#include "tree/subtree_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "labeling/layered_dewey.h"
#include "query/clade.h"
#include "sim/tree_sim.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

std::vector<NodeId> NaiveLeavesUnder(const PhyloTree& t, NodeId n) {
  std::vector<NodeId> out;
  t.PreOrder(
      [&](NodeId v) {
        if (t.is_leaf(v)) out.push_back(v);
        return true;
      },
      n);
  return out;
}

uint32_t NaiveSubtreeSize(const PhyloTree& t, NodeId n) {
  uint32_t count = 0;
  t.PreOrder(
      [&](NodeId) {
        ++count;
        return true;
      },
      n);
  return count;
}

/// Root -> `chain` unary nodes -> a node with two unary-chain
/// branches, one ending in a leaf and one in a cherry.
PhyloTree MakeUnaryChains(uint32_t chain) {
  PhyloTree t;
  NodeId cur = t.AddRoot("root");
  for (uint32_t i = 0; i < chain; ++i) cur = t.AddChild(cur, "", 0.5);
  NodeId left = t.AddChild(cur, "", 1.0);
  NodeId right = t.AddChild(cur, "", 2.0);
  for (uint32_t i = 0; i < chain; ++i) {
    left = t.AddChild(left, "", 0.25);
    right = t.AddChild(right, "", 0.125);
  }
  t.AddChild(left, "A", 1.0);
  t.AddChild(right, "B", 1.0);
  t.AddChild(right, "C", 3.0);
  return t;
}

/// Checks every index column against the oracles. Per-node subtree
/// walks are quadratic, so large trees check every `stride`-th node
/// (plus the root and the last node).
void ExpectMatchesOracles(const PhyloTree& t, uint32_t stride = 1) {
  SubtreeIndex index(&t);
  EXPECT_EQ(index.preorder_ranks(), t.PreOrderRanks());
  EXPECT_EQ(index.leaves(), t.Leaves());
  std::vector<double> weights = t.RootPathWeights();
  for (NodeId n = 0; n < t.size(); ++n) {
    ASSERT_EQ(index.root_weight(n), weights[n]) << "node " << n;
  }
  std::vector<NodeId> probes;
  for (NodeId n = 0; n < t.size(); n += stride) probes.push_back(n);
  probes.push_back(static_cast<NodeId>(t.size() - 1));
  for (NodeId n : probes) {
    std::vector<NodeId> naive = NaiveLeavesUnder(t, n);
    Span<const NodeId> slice = index.LeavesUnder(n);
    ASSERT_EQ(std::vector<NodeId>(slice.begin(), slice.end()), naive)
        << "node " << n;
    EXPECT_EQ(index.leaf_count(n), naive.size()) << "node " << n;
    EXPECT_EQ(index.subtree_size(n), NaiveSubtreeSize(t, n)) << "node " << n;
  }
}

/// MinimalSpanningClade materializes the LCA's subtree; the index must
/// report the same node and leaf counts for the same root.
void ExpectCladeCountsMatch(const PhyloTree& t, uint64_t seed) {
  SubtreeIndex index(&t);
  LayeredDeweyScheme scheme(8);
  ASSERT_TRUE(scheme.Build(t).ok());
  const std::vector<NodeId>& leaves = index.leaves();
  Rng rng(seed);
  for (uint64_t k : {1, 2, 3, 8}) {
    if (k > leaves.size()) break;
    for (int rep = 0; rep < 10; ++rep) {
      std::vector<NodeId> sample;
      for (uint64_t i : rng.SampleWithoutReplacement(leaves.size(), k)) {
        sample.push_back(leaves[i]);
      }
      auto clade = MinimalSpanningClade(t, scheme, sample);
      ASSERT_TRUE(clade.ok()) << clade.status();
      size_t clade_leaves = 0;
      for (NodeId n : clade->nodes) clade_leaves += t.is_leaf(n) ? 1 : 0;
      EXPECT_EQ(index.subtree_size(clade->root), clade->nodes.size());
      EXPECT_EQ(index.leaf_count(clade->root), clade_leaves);
    }
  }
}

TEST(SubtreeIndexTest, PaperFigure1Tree) {
  PhyloTree t = MakePaperFigure1Tree();
  ExpectMatchesOracles(t);
  ExpectCladeCountsMatch(t, 1);
  SubtreeIndex index(&t);
  // x = parent(Lla) spans Lla and Spy; its parent P adds Bha.
  NodeId x = t.parent(t.FindByName("Lla"));
  EXPECT_EQ(index.subtree_size(x), 3u);
  EXPECT_EQ(index.leaf_count(x), 2u);
  EXPECT_EQ(index.subtree_size(t.parent(x)), 5u);
  EXPECT_EQ(index.leaf_count(t.root()), 5u);
  EXPECT_DOUBLE_EQ(index.root_weight(x), 1.25);
}

TEST(SubtreeIndexTest, YuleTree) {
  Rng rng(71);
  YuleOptions options;
  options.n_leaves = 2000;
  auto t = SimulateYule(options, &rng);
  ASSERT_TRUE(t.ok());
  ExpectMatchesOracles(*t, 7);
  ExpectCladeCountsMatch(*t, 2);
}

TEST(SubtreeIndexTest, BirthDeathTreeWithExtinctTips) {
  Rng rng(72);
  BirthDeathOptions options;
  options.n_leaves = 500;
  options.death_rate = 0.5;
  options.prune_extinct = false;
  auto t = SimulateBirthDeath(options, &rng);
  ASSERT_TRUE(t.ok());
  ExpectMatchesOracles(*t, 3);
  ExpectCladeCountsMatch(*t, 3);
}

TEST(SubtreeIndexTest, DeepCaterpillar) {
  PhyloTree t = MakeCaterpillar(20000);
  ExpectMatchesOracles(t, 997);
  ExpectCladeCountsMatch(t, 4);
  SubtreeIndex index(&t);
  EXPECT_EQ(index.leaf_count(t.root()), 20001u);
  EXPECT_EQ(index.subtree_size(t.root()), t.size());
}

TEST(SubtreeIndexTest, UnaryChains) {
  PhyloTree t = MakeUnaryChains(40);
  ExpectMatchesOracles(t);
  ExpectCladeCountsMatch(t, 5);
  SubtreeIndex index(&t);
  // Every unary node above the split sees all three leaves.
  for (NodeId n = 0; n <= 40; ++n) EXPECT_EQ(index.leaf_count(n), 3u);
}

TEST(SubtreeIndexTest, SingleNodeTree) {
  PhyloTree t;
  t.AddRoot("only");
  ExpectMatchesOracles(t);
  ExpectCladeCountsMatch(t, 6);
  SubtreeIndex index(&t);
  EXPECT_EQ(index.subtree_size(0), 1u);
  EXPECT_EQ(index.leaf_count(0), 1u);
  EXPECT_EQ(index.LeavesUnder(0).size(), 1u);
  EXPECT_EQ(index.root_weight(0), 0.0);
}

TEST(SubtreeIndexTest, EmptyTree) {
  PhyloTree t;
  SubtreeIndex index(&t);
  EXPECT_TRUE(index.leaves().empty());
  EXPECT_TRUE(index.preorder_ranks().empty());
}

TEST(SubtreeIndexTest, TreeRebuiltFromPackedColumns) {
  // Bound trees come back through FromPacked, which derives the
  // sibling chains from node order.
  Rng rng(73);
  PhyloTree t = MakeRandomBinary(300, &rng);
  auto packed = PhyloTree::FromPacked(t.parents(), t.edge_lengths(),
                                      t.name_offsets(), t.name_arena());
  ASSERT_TRUE(packed.ok()) << packed.status();
  ExpectMatchesOracles(*packed);
}

}  // namespace
}  // namespace crimson
