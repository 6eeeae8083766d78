#include "crimson/benchmark_manager.h"

#include <gtest/gtest.h>

#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"

namespace crimson {
namespace {

class BenchmarkManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(777);
    YuleOptions opts;
    opts.n_leaves = 64;
    auto t = SimulateYule(opts, &rng);
    ASSERT_TRUE(t.ok());
    tree_ = std::move(t).value();
    // Scale edges so sequences diverge measurably but not to saturation.
    double height = tree_.RootPathWeights()[tree_.Leaves()[0]];
    for (NodeId n = 1; n < tree_.size(); ++n) {
      tree_.set_edge_length(n, tree_.edge_length(n) / height * 0.8);
    }
    SeqEvolveOptions seq_opts;
    seq_opts.model = SubstModel::kJC69;
    seq_opts.seq_length = 800;
    auto ev = SequenceEvolver::Create(seq_opts);
    ASSERT_TRUE(ev.ok());
    auto seqs = ev->EvolveLeaves(tree_, &rng);
    ASSERT_TRUE(seqs.ok());
    seqs_ = std::move(seqs).value();
    manager_ = std::make_unique<BenchmarkManager>(&tree_, &seqs_, 8);
    ASSERT_TRUE(manager_->Init().ok());
  }

  PhyloTree tree_;
  std::map<std::string, std::string> seqs_;
  std::unique_ptr<BenchmarkManager> manager_;
};

TEST_F(BenchmarkManagerTest, UniformSelectionEndToEnd) {
  Rng rng(1);
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 16;
  auto nj = MakeNjAlgorithm();
  auto run = manager_->Evaluate(*nj, sel, &rng, /*compute_triplets=*/true);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->algorithm, "neighbor_joining");
  EXPECT_EQ(run->sample_size, 16u);
  EXPECT_EQ(run->reference.LeafCount(), 16u);
  EXPECT_EQ(run->reconstructed.LeafCount(), 16u);
  EXPECT_LE(run->rf.normalized, 1.0);
  EXPECT_GT(run->triplets.total, 0u);
  // With 800 sites on a shallow tree NJ should be decent.
  EXPECT_LT(run->rf.normalized, 0.5);
}

TEST_F(BenchmarkManagerTest, TimeSelection) {
  Rng rng(2);
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kWithRespectToTime;
  sel.k = 12;
  sel.time = 0.1;
  auto upgma = MakeUpgmaAlgorithm();
  auto run = manager_->Evaluate(*upgma, sel, &rng);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->algorithm, "upgma");
  EXPECT_EQ(run->sample_size, 12u);
}

TEST_F(BenchmarkManagerTest, UserListSelection) {
  Rng rng(3);
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUserList;
  sel.species = {"S0", "S1", "S2", "S3", "S4"};
  auto nj = MakeNjAlgorithm();
  auto run = manager_->Evaluate(*nj, sel, &rng);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->sample_size, 5u);
  std::set<std::string> names;
  for (NodeId n : run->reference.Leaves()) {
    names.insert(std::string(run->reference.name(n)));
  }
  EXPECT_EQ(names, (std::set<std::string>{"S0", "S1", "S2", "S3", "S4"}));
}

TEST_F(BenchmarkManagerTest, UnknownSpeciesRejected) {
  Rng rng(4);
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUserList;
  sel.species = {"S0", "S1", "NotASpecies"};
  auto nj = MakeNjAlgorithm();
  EXPECT_TRUE(manager_->Evaluate(*nj, sel, &rng).status().IsNotFound());
}

TEST_F(BenchmarkManagerTest, TooSmallSampleRejected) {
  Rng rng(5);
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 2;
  auto nj = MakeNjAlgorithm();
  EXPECT_TRUE(
      manager_->Evaluate(*nj, sel, &rng).status().IsInvalidArgument());
}

TEST_F(BenchmarkManagerTest, PerfectDataGivesPerfectNj) {
  // A custom "oracle" algorithm returning the reference itself must
  // score RF = 0: validates the comparison plumbing.
  class Oracle final : public ReconstructionAlgorithm {
   public:
    explicit Oracle(const BenchmarkManager* m) : m_(m) {}
    std::string name() const override { return "oracle"; }
    Result<PhyloTree> Reconstruct(
        const std::map<std::string, std::string>& seqs) const override {
      std::vector<NodeId> nodes;
      const PhyloTree& t = m_->projector().tree();
      for (const auto& [name, seq] : seqs) {
        nodes.push_back(t.FindByName(name));
      }
      return m_->projector().Project(nodes);
    }

   private:
    const BenchmarkManager* m_;
  };
  Rng rng(6);
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 20;
  Oracle oracle(manager_.get());
  auto run = manager_->Evaluate(oracle, sel, &rng);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->rf.distance, 0u);
}

TEST_F(BenchmarkManagerTest, BorrowedSubtreeIndexEvaluatesIdentically) {
  // The session's managers borrow the bound tree's subtree index; the
  // runs must equal those of a manager that builds its own.
  SubtreeIndex index(&tree_);
  BenchmarkManager borrowing(&tree_, &seqs_, &manager_->scheme());
  borrowing.set_subtree_index(&index);
  ASSERT_TRUE(borrowing.Init().ok());
  auto nj = MakeNjAlgorithm();
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kWithRespectToTime;
  sel.k = 12;
  sel.time = 0.3;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng a(seed), b(seed);
    auto x = manager_->Evaluate(*nj, sel, &a);
    auto y = borrowing.Evaluate(*nj, sel, &b);
    ASSERT_TRUE(x.ok() && y.ok());
    EXPECT_TRUE(PhyloTree::Equal(x->reference, y->reference, 0.0,
                                 /*ordered=*/true));
    EXPECT_EQ(x->rf.distance, y->rf.distance);
  }
}

TEST_F(BenchmarkManagerTest, SubtreeIndexOverAnotherTreeIsRejected) {
  PhyloTree other = tree_;
  SubtreeIndex index(&other);
  BenchmarkManager manager(&tree_, &seqs_, &manager_->scheme());
  manager.set_subtree_index(&index);
  EXPECT_TRUE(manager.Init().IsInvalidArgument());
}

TEST(BenchmarkManagerInitTest, RequiresTreeAndInit) {
  std::map<std::string, std::string> empty;
  BenchmarkManager bad(nullptr, &empty);
  EXPECT_FALSE(bad.Init().ok());
  PhyloTree t;
  BenchmarkManager also_bad(&t, &empty);
  EXPECT_FALSE(also_bad.Init().ok());
}

}  // namespace
}  // namespace crimson
