#include "crimson/data_loader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "common/random.h"
#include "tree/newick.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

constexpr char kNexusWithData[] = R"(#NEXUS
BEGIN TAXA;
  TAXLABELS A B C;
END;
BEGIN DATA;
  MATRIX
    A ACGT
    B ACGA
    C TTTT
  ;
END;
BEGIN TREES;
  TREE gold = ((A:1,B:1):1,C:2);
END;
)";

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::OpenInMemory();
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto trees = TreeRepository::Open(db_.get());
    ASSERT_TRUE(trees.ok());
    trees_ = std::move(trees).value();
    auto species = SpeciesRepository::Open(db_.get());
    ASSERT_TRUE(species.ok());
    species_ = std::move(species).value();
    loader_ = std::make_unique<DataLoader>(trees_.get(), species_.get(), 4);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TreeRepository> trees_;
  std::unique_ptr<SpeciesRepository> species_;
  std::unique_ptr<DataLoader> loader_;
};

TEST_F(LoaderTest, LoadNewickStructure) {
  auto report = loader_->LoadNewick("fig1", "((Bha:1.5,(Lla:1,Spy:1):0.5):0.75,Syn:2.5);");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->nodes_loaded, 7u);
  EXPECT_EQ(report->species_loaded, 0u);
  auto info = trees_->GetTreeInfo("fig1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->n_leaves, 4);
}

TEST_F(LoaderTest, NewickParseErrorsSurface) {
  auto report = loader_->LoadNewick("bad", "((A,B);");
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_TRUE(trees_->GetTreeInfo("bad").status().IsNotFound());
}

TEST_F(LoaderTest, NewickCannotAppendSpecies) {
  EXPECT_TRUE(loader_
                  ->LoadNewick("t", "(A,B);",
                               LoadMode::kAppendSpeciesData)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(LoaderTest, LoadNexusWithSpeciesData) {
  auto report = loader_->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kTreeWithSpeciesData);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->nodes_loaded, 5u);
  EXPECT_EQ(report->species_loaded, 3u);
  EXPECT_EQ(*species_->GetSequence("A"), "ACGT");
}

TEST_F(LoaderTest, LoadNexusStructureOnlySkipsSequences) {
  auto report =
      loader_->LoadNexus("gold", kNexusWithData, LoadMode::kTreeStructureOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->species_loaded, 0u);
  EXPECT_EQ(*species_->Count(), 0u);
}

TEST_F(LoaderTest, AppendSpeciesDataToExistingTree) {
  ASSERT_TRUE(
      loader_->LoadNexus("gold", kNexusWithData, LoadMode::kTreeStructureOnly)
          .ok());
  auto report = loader_->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->species_loaded, 3u);
  EXPECT_EQ(*species_->GetSequence("C"), "TTTT");
}

TEST_F(LoaderTest, AppendToUnknownTreeFails) {
  auto report = loader_->LoadNexus("ghost", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(LoaderTest, AppendUnknownSpeciesFails) {
  ASSERT_TRUE(loader_->LoadNewick("small", "(A:1,B:1);").ok());
  std::map<std::string, std::string> seqs = {{"A", "ACGT"}, {"Z", "ACGT"}};
  EXPECT_TRUE(loader_->AppendSpecies("small", seqs).status().IsNotFound());
}

TEST_F(LoaderTest, ProgressCallbackInvoked) {
  std::vector<std::string> phases;
  auto report = loader_->LoadNewick(
      "t", "(A:1,B:2);", LoadMode::kTreeStructureOnly,
      [&](const std::string& phase, uint64_t) { phases.push_back(phase); });
  ASSERT_TRUE(report.ok());
  ASSERT_GE(phases.size(), 3u);
  EXPECT_EQ(phases.front(), "parsing");
  EXPECT_EQ(phases.back(), "done");
}

TEST_F(LoaderTest, LoadPrebuiltTree) {
  PhyloTree t = MakePaperFigure1Tree();
  auto report = loader_->LoadTree("fig1", t);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->nodes_loaded, 8u);
  auto loaded = trees_->LoadTree(report->tree_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(PhyloTree::Equal(*loaded, t, 1e-9, /*ordered=*/true));
}

TEST_F(LoaderTest, DuplicateLeafNamesRejectedAtIngest) {
  // Duplicate leaf names would make name-addressed queries ambiguous;
  // ingest rejects them before anything is written.
  auto report = loader_->LoadNewick("dups", "((A:1,A:1):1,B:2);");
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().ToString().find("duplicate leaf name"),
            std::string::npos);
  EXPECT_NE(report.status().ToString().find("'A'"), std::string::npos);
  EXPECT_TRUE(trees_->GetTreeInfo("dups").status().IsNotFound());
  // Internal-node names may repeat leaf names freely.
  EXPECT_TRUE(loader_->LoadNewick("ok", "((A:1,B:1)A:1,C:2);").ok());
}

// Duplicate internal names ("X" twice), a named root, an unnamed leaf
// and an unnamed internal node: every way a species name can match
// something other than exactly one leaf.
constexpr char kAmbiguousNewick[] =
    "((A:1,B:1)X:1,(C:1,D:1)X:1,(E:1,:1):1,F:2)R;";

// Species name -> stored `node` column for one tree's species rows.
std::map<std::string, int64_t> StoredSpeciesNodes(const Database& db,
                                                  int64_t tree_id) {
  std::map<std::string, int64_t> out;
  auto table = db.OpenTable("species");
  EXPECT_TRUE(table.ok()) << table.status();
  if (!table.ok()) return out;
  Status scanned = table->Scan([&](const RecordId&, const Row& row) {
    if (std::get<int64_t>(row[0]) == tree_id) {
      out[std::get<std::string>(row[1])] = std::get<int64_t>(row[2]);
    }
    return true;
  });
  EXPECT_TRUE(scanned.ok()) << scanned;
  return out;
}

TEST(LoaderResolutionTest, AppendResolvesSpeciesLikeFindNodeByName) {
  // The last node in arena order with exactly the species name wins,
  // internal and unnamed nodes included. Recorded from the loader that
  // resolved each species through TreeRepository::FindNodeByName.
  const std::map<std::string, int64_t> kRecorded = {
      {"", 9}, {"A", 2}, {"F", 10}, {"R", 0}, {"X", 4}};
  std::map<std::string, std::string> sequences;
  for (const auto& [species, node] : kRecorded) sequences[species] = "ACGT";

  // Bulk store (BulkAppend) and per-row store (Insert); the second tree
  // of each pair lands in already-populated indexes.
  for (size_t threshold : {size_t{0}, SIZE_MAX}) {
    SCOPED_TRACE(threshold == 0 ? "bulk store" : "per-row store");
    auto db = Database::OpenInMemory();
    ASSERT_TRUE(db.ok());
    auto trees = TreeRepository::Open(db->get());
    auto species = SpeciesRepository::Open(db->get());
    ASSERT_TRUE(trees.ok() && species.ok());
    (*trees)->set_bulk_load_threshold(threshold);
    DataLoader loader(trees->get(), species->get(), 2);
    for (const char* name : {"first", "second"}) {
      SCOPED_TRACE(name);
      auto load = loader.LoadNewick(name, kAmbiguousNewick);
      ASSERT_TRUE(load.ok()) << load.status();
      auto append = loader.AppendSpecies(name, sequences);
      ASSERT_TRUE(append.ok()) << append.status();
      EXPECT_EQ(append->species_loaded, kRecorded.size());
      std::map<std::string, int64_t> stored =
          StoredSpeciesNodes(**db, load->tree_id);
      EXPECT_EQ(stored, kRecorded);
      for (const auto& [sp, node] : stored) {
        auto oracle = (*trees)->FindNodeByName(load->tree_id, sp);
        ASSERT_TRUE(oracle.ok()) << oracle.status();
        EXPECT_EQ(static_cast<int64_t>(*oracle), node) << "'" << sp << "'";
      }
    }
  }
}

TEST(LoaderResolutionTest, ArenaRuleHoldsForNamesSpanningIndexPages) {
  // Every internal node of these trees is unnamed, so the "" run in the
  // shared nodes_by_name index spans many leaf pages; the later trees
  // go into it by ordered inserts, whose tie order across split leaves
  // is not a pure reversal. The loader still stores the last unnamed
  // node in arena order for every tree.
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  auto trees = TreeRepository::Open(db->get());
  auto species = SpeciesRepository::Open(db->get());
  ASSERT_TRUE(trees.ok() && species.ok());
  DataLoader loader(trees->get(), species->get(), 4);
  Rng rng(3);
  const PhyloTree tree = MakeRandomBinary(3000, &rng);
  NodeId last_unnamed = kNoNode;
  for (NodeId n = 0; n < tree.size(); ++n) {
    if (tree.name(n).empty()) last_unnamed = n;
  }
  for (const char* name : {"one", "two", "three"}) {
    SCOPED_TRACE(name);
    auto load = loader.LoadTree(name, tree);
    ASSERT_TRUE(load.ok()) << load.status();
    auto append = loader.AppendSpecies(name, {{"", "ACGT"}, {"L7", "TT"}});
    ASSERT_TRUE(append.ok()) << append.status();
    std::map<std::string, int64_t> stored =
        StoredSpeciesNodes(**db, load->tree_id);
    EXPECT_EQ(stored[""], static_cast<int64_t>(last_unnamed));
    EXPECT_EQ(stored["L7"], static_cast<int64_t>(tree.FindByName("L7")));
  }
}

TEST_F(LoaderTest, AppendWithMissingSpeciesWritesNothing) {
  auto load = loader_->LoadNewick("amb", kAmbiguousNewick);
  ASSERT_TRUE(load.ok()) << load.status();
  // "P" and "Q" are both absent; the first in map order is reported.
  std::map<std::string, std::string> seqs = {
      {"A", "ACGT"}, {"Q", "ACGT"}, {"P", "ACGT"}, {"X", "ACGT"}};
  auto append = loader_->AppendSpecies("amb", seqs);
  ASSERT_TRUE(append.status().IsNotFound());
  EXPECT_EQ(append.status().ToString(),
            "not_found: species 'P' not in tree 1");
  EXPECT_EQ(*species_->CountForTree(load->tree_id), 0u);
  EXPECT_EQ(*species_->Count(), 0u);
}

TEST_F(LoaderTest, NexusWithoutTreesRejected) {
  const char* no_trees = "#NEXUS\nBEGIN TAXA;\nTAXLABELS A B;\nEND;\n";
  EXPECT_TRUE(loader_->LoadNexus("x", no_trees, LoadMode::kTreeStructureOnly)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace crimson
