#include "storage/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/database.h"

namespace crimson {
namespace {

Schema SpeciesSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"weight", ColumnType::kDouble},
                 {"seq", ColumnType::kBytes}});
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = SpeciesSchema();
  std::string buf;
  s.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = Schema::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == s);
  EXPECT_TRUE(in.empty());
}

TEST(SchemaTest, FindColumn) {
  Schema s = SpeciesSchema();
  EXPECT_EQ(s.FindColumn("name"), 1);
  EXPECT_EQ(s.FindColumn("seq"), 3);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

TEST(RowCodecTest, RoundTrip) {
  Schema s = SpeciesSchema();
  Row row = {int64_t{-12345}, std::string("Bha"), 2.25,
             std::string("ACGT")};
  std::string buf;
  ASSERT_TRUE(EncodeRow(s, row, &buf).ok());
  Row out;
  ASSERT_TRUE(DecodeRow(s, Slice(buf), &out).ok());
  EXPECT_EQ(std::get<int64_t>(out[0]), -12345);
  EXPECT_EQ(std::get<std::string>(out[1]), "Bha");
  EXPECT_DOUBLE_EQ(std::get<double>(out[2]), 2.25);
  EXPECT_EQ(std::get<std::string>(out[3]), "ACGT");
}

TEST(RowCodecTest, ArityAndTypeMismatchRejected) {
  Schema s = SpeciesSchema();
  std::string buf;
  EXPECT_TRUE(EncodeRow(s, {int64_t{1}}, &buf).IsInvalidArgument());
  Row wrong_type = {std::string("x"), std::string("Bha"), 2.25,
                    std::string("A")};
  EXPECT_TRUE(EncodeRow(s, wrong_type, &buf).IsInvalidArgument());
}

TEST(RowCodecTest, TrailingBytesDetected) {
  Schema s({{"a", ColumnType::kInt64}});
  std::string buf;
  ASSERT_TRUE(EncodeRow(s, {int64_t{1}}, &buf).ok());
  buf += "junk";
  Row out;
  EXPECT_TRUE(DecodeRow(s, Slice(buf), &out).IsCorruption());
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::OpenInMemory();
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto t = db_->CreateTable(
        "species", SpeciesSchema(),
        {{"by_id", "id", /*unique=*/true}, {"by_name", "name", false},
         {"by_weight", "weight", false}});
    ASSERT_TRUE(t.ok()) << t.status();
    table_ = std::make_unique<Table>(std::move(t).value());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertGetRoundTrip) {
  auto rid = table_->Insert({int64_t{1}, std::string("Bha"), 2.25,
                             std::string("ACGT")});
  ASSERT_TRUE(rid.ok());
  Row row;
  ASSERT_TRUE(table_->Get(*rid, &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "Bha");
}

TEST_F(TableTest, UniqueIndexViolationLeavesTableClean) {
  ASSERT_TRUE(
      table_->Insert({int64_t{1}, std::string("A"), 0.0, std::string("")})
          .ok());
  auto dup =
      table_->Insert({int64_t{1}, std::string("B"), 0.0, std::string("")});
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(table_->row_count(), 1u);
  // The non-unique name index must not have picked up the failed row.
  auto hits = table_->IndexLookup("by_name", std::string("B"));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(TableTest, IndexLookupFindsAllDuplicates) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table_
                    ->Insert({int64_t{i}, std::string("same"),
                              static_cast<double>(i), std::string("")})
                    .ok());
  }
  auto hits = table_->IndexLookup("by_name", std::string("same"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);
}

TEST_F(TableTest, IndexRangeScanOverDoubles) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table_
                    ->Insert({int64_t{i}, std::string("s"),
                              static_cast<double>(i) * 0.5, std::string("")})
                    .ok());
  }
  std::string lo, hi;
  ASSERT_TRUE(table_->EncodeKeyFor("by_weight", 10.0, &lo).ok());
  ASSERT_TRUE(table_->EncodeKeyFor("by_weight", 20.0, &hi).ok());
  int count = 0;
  ASSERT_TRUE(table_
                  ->IndexRangeScan("by_weight", lo, hi,
                                   [&](const Slice&, RecordId) {
                                     ++count;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(count, 20);  // weights 10.0, 10.5, ..., 19.5
}

TEST_F(TableTest, DeleteRemovesIndexEntries) {
  auto rid = table_->Insert({int64_t{7}, std::string("doomed"), 1.0,
                             std::string("")});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(table_->Delete(*rid).ok());
  auto hits = table_->IndexLookup("by_name", std::string("doomed"));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  // The unique id becomes available again.
  EXPECT_TRUE(
      table_->Insert({int64_t{7}, std::string("again"), 1.0, std::string("")})
          .ok());
}

TEST_F(TableTest, ScanSeesEveryRow) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table_
                    ->Insert({int64_t{i}, std::string("n"), 0.0,
                              std::string("")})
                    .ok());
  }
  int64_t sum = 0;
  ASSERT_TRUE(table_
                  ->Scan([&](const RecordId&, const Row& row) {
                    sum += std::get<int64_t>(row[0]);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST_F(TableTest, UnknownIndexRejected) {
  EXPECT_TRUE(
      table_->IndexLookup("no_such", std::string("x")).status().IsNotFound());
}

// -- BulkAppend vs per-row Insert ---------------------------------------------

// Every entry of one index in order, as (encoded key, the row's unique
// id column). Record ids themselves differ between the two build
// paths: per-row Insert interleaves heap and index page allocation.
std::vector<std::pair<std::string, int64_t>> DumpIndex(const Table& table,
                                                       const char* index) {
  std::vector<std::pair<std::string, int64_t>> out;
  Status s = table.IndexRangeScan(index, "", "",
                                  [&](const Slice& key, RecordId rid) {
                                    Row row;
                                    EXPECT_TRUE(table.Get(rid, &row).ok());
                                    out.emplace_back(
                                        key.ToString(),
                                        std::get<int64_t>(row[0]));
                                    return true;
                                  });
  EXPECT_TRUE(s.ok()) << s;
  return out;
}

struct ScratchTable {
  std::unique_ptr<Database> db;
  std::unique_ptr<Table> table;
};

ScratchTable NewSpeciesTable() {
  ScratchTable t;
  auto db = Database::OpenInMemory();
  EXPECT_TRUE(db.ok());
  t.db = std::move(db).value();
  auto table = t.db->CreateTable(
      "species", SpeciesSchema(),
      {{"by_id", "id", /*unique=*/true}, {"by_name", "name", false},
       {"by_weight", "weight", false}});
  EXPECT_TRUE(table.ok()) << table.status();
  t.table = std::make_unique<Table>(std::move(table).value());
  return t;
}

// Builds one table with Insert per row and one that inserts the first
// `preloaded` rows and bulk-appends the rest (preloaded = 0 takes the
// empty-index BTree::BulkLoad path, > 0 the ordered-insert path); every
// index must iterate identically.
void ExpectBulkMatchesInsert(const std::vector<Row>& rows, size_t preloaded) {
  SCOPED_TRACE("preloaded=" + std::to_string(preloaded));
  ScratchTable inserted = NewSpeciesTable();
  for (const Row& row : rows) {
    ASSERT_TRUE(inserted.table->Insert(row).ok());
  }
  ScratchTable bulk = NewSpeciesTable();
  for (size_t r = 0; r < preloaded; ++r) {
    ASSERT_TRUE(bulk.table->Insert(rows[r]).ok());
  }
  std::vector<Row> rest(rows.begin() + static_cast<ptrdiff_t>(preloaded),
                        rows.end());
  auto rids = bulk.table->BulkAppend(rest);
  ASSERT_TRUE(rids.ok()) << rids.status();
  EXPECT_EQ(bulk.table->row_count(), inserted.table->row_count());
  for (const char* index : {"by_id", "by_name", "by_weight"}) {
    SCOPED_TRACE(index);
    auto want = DumpIndex(*inserted.table, index);
    ASSERT_EQ(want.size(), rows.size());
    EXPECT_TRUE(DumpIndex(*bulk.table, index) == want);
  }
}

// Rows with ids `ids`; row i gets names[i * names.size() / ids.size()]
// (so equal names form contiguous runs) and weights likewise.
std::vector<Row> MakeRows(const std::vector<int64_t>& ids,
                          const std::vector<std::string>& names,
                          const std::vector<double>& weights) {
  std::vector<Row> rows;
  for (size_t i = 0; i < ids.size(); ++i) {
    rows.push_back({ids[i], names[i * names.size() / ids.size()],
                    weights[i * weights.size() / ids.size()],
                    std::string("x")});
  }
  return rows;
}

std::vector<int64_t> Ids(size_t n, int64_t first, int64_t step) {
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = first + static_cast<int64_t>(i) * step;
  }
  return ids;
}

TEST(BulkAppendTest, MatchesInsertOnPresortedAndReversedKeys) {
  constexpr size_t kRows = 1500;  // several leaf pages per index
  std::vector<std::string> sorted_names, run_names;
  std::vector<double> sorted_weights, run_weights;
  for (size_t i = 0; i < kRows; ++i) {
    sorted_names.push_back(StrFormat("n%06zu", i));
    sorted_weights.push_back(-700.25 + static_cast<double>(i));
  }
  // 30 runs of 50 equal keys each (one run fits in a leaf; see
  // LongDuplicateRunsLayOutInReverseRowOrder for longer runs).
  for (int i = 0; i < 30; ++i) {
    run_names.push_back(StrFormat("r%02d", i));
    run_weights.push_back(-15.5 + i);
  }
  std::vector<std::string> reversed_names(sorted_names.rbegin(),
                                          sorted_names.rend());
  std::vector<double> reversed_weights(sorted_weights.rbegin(),
                                       sorted_weights.rend());
  std::vector<std::string> reversed_run_names(run_names.rbegin(),
                                              run_names.rend());
  const std::vector<std::vector<Row>> cases = {
      // All-equal keys on both non-unique indexes.
      MakeRows(Ids(300, 0, 1), {"same"}, {2.5}),
      // Already sorted everywhere (ids ascending, including negatives).
      MakeRows(Ids(kRows, -750, 1), sorted_names, sorted_weights),
      // Reverse sorted everywhere.
      MakeRows(Ids(kRows, 10000, -3), reversed_names, reversed_weights),
      // Sorted runs of equal keys; reverse-sorted runs.
      MakeRows(Ids(kRows, 0, 1), run_names, run_weights),
      MakeRows(Ids(kRows, 0, 1), reversed_run_names, run_weights),
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    ExpectBulkMatchesInsert(cases[c], 0);
    ExpectBulkMatchesInsert(cases[c], cases[c].size() / 3);
  }
}

TEST(BulkAppendTest, LongDuplicateRunsLayOutInReverseRowOrder) {
  // A duplicate run longer than a leaf: BulkLoad lays it out in reverse
  // row order. Per-row Insert routes keys equal to a separator right,
  // so its order across the split leaves is not a pure reversal; the
  // run holds the same rows either way.
  constexpr int64_t kRows = 1500;
  std::vector<Row> rows = MakeRows(Ids(kRows, 0, 1), {"same"}, {2.5});
  ScratchTable bulk = NewSpeciesTable();
  ASSERT_TRUE(bulk.table->BulkAppend(rows).ok());
  ScratchTable inserted = NewSpeciesTable();
  for (const Row& row : rows) ASSERT_TRUE(inserted.table->Insert(row).ok());
  for (const char* index : {"by_name", "by_weight"}) {
    SCOPED_TRACE(index);
    auto got = DumpIndex(*bulk.table, index);
    ASSERT_EQ(got.size(), static_cast<size_t>(kRows));
    for (int64_t i = 0; i < kRows; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)].second, kRows - 1 - i);
    }
    auto want = DumpIndex(*inserted.table, index);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_TRUE(got == want);
  }
}

TEST(BulkAppendTest, MatchesInsertOnTrickyStringAndDoubleKeys) {
  // Empty strings, keys sharing an 8-byte prefix (including embedded
  // NULs, which the zero-padded prefix cannot tell from "no byte"),
  // keys that are prefixes of others, high bytes.
  const std::vector<std::string> names = {
      "",           "abcdefgh",      std::string("abcdefgh\0", 9),
      "abcdefgh0",  "abcdefgh00",    "abcdefgh\xff",
      "abcdefg",    std::string("abcdefg\0", 8),
      "a",          "ab",            "abc",
      "abcdefghij", "abcdefghi",     std::string(1, '\0'),
      std::string(8, '\0'),          "\xff\xff\xff\xff\xff\xff\xff\xff",
      "zz",         "",              "abcdefgh"};
  // Negative, signed zeros, mixed signs, extremes.
  const std::vector<double> weights = {
      -0.0,  0.0,   -1.5, 1.5,      -1e300, 1e300,  -4.9e-324, 4.9e-324,
      -2.25, 2.25,  -0.0, -1e-10,   1e-10,  -1.5,   0.0,
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  Rng rng(7);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1200; ++i) {
    rows.push_back({i * 7919 % 1201 - 600,
                    names[rng.Uniform(names.size())],
                    weights[rng.Uniform(weights.size())], std::string("")});
  }
  ExpectBulkMatchesInsert(rows, 0);
  ExpectBulkMatchesInsert(rows, 400);
  // Every name and weight exactly once, in the listed order.
  std::vector<Row> once;
  for (size_t i = 0; i < std::max(names.size(), weights.size()); ++i) {
    once.push_back({static_cast<int64_t>(i), names[i % names.size()],
                    weights[i % weights.size()], std::string("")});
  }
  ExpectBulkMatchesInsert(once, 0);
}

TEST(DatabaseTest, CatalogListsAndReopens) {
  std::string path = testing::TempDir() + "/crimson_db_test.db";
  RemoveFile(path);
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    Schema s({{"k", ColumnType::kString}, {"v", ColumnType::kInt64}});
    auto t = (*db)->CreateTable("kv", s, {{"by_k", "k", true}});
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Insert({std::string("alpha"), int64_t{1}}).ok());
    ASSERT_TRUE(t->Insert({std::string("beta"), int64_t{2}}).ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    auto names = (*db)->ListTables();
    ASSERT_TRUE(names.ok());
    ASSERT_EQ(names->size(), 1u);
    EXPECT_EQ((*names)[0], "kv");
    auto t = (*db)->OpenTable("kv");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->row_count(), 2u);
    auto hits = t->IndexLookup("by_k", std::string("beta"));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    Row row;
    ASSERT_TRUE(t->Get((*hits)[0], &row).ok());
    EXPECT_EQ(std::get<int64_t>(row[1]), 2);
  }
  RemoveFile(path);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  Schema s({{"a", ColumnType::kInt64}});
  ASSERT_TRUE((*db)->CreateTable("t", s).ok());
  EXPECT_TRUE((*db)->CreateTable("t", s).status().IsAlreadyExists());
  EXPECT_TRUE(*(*db)->HasTable("t"));
  EXPECT_FALSE(*(*db)->HasTable("u"));
  EXPECT_TRUE((*db)->OpenTable("u").status().IsNotFound());
}

TEST(DatabaseTest, IndexOnUnknownColumnRejected) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  Schema s({{"a", ColumnType::kInt64}});
  auto t = (*db)->CreateTable("t", s, {{"bad", "missing", false}});
  EXPECT_TRUE(t.status().IsInvalidArgument());
}

}  // namespace
}  // namespace crimson
