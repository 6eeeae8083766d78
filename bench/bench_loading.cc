// E9 -- Data Loader throughput (paper §3 "Loading Data"): parsing
// Newick/NEXUS and loading trees (three modes) into the relational
// repositories, including layered-Dewey index construction.
// Shape expectation: throughput (nodes/s) roughly flat across sizes
// (linear loading); with-species mode adds per-sequence cost. Also
// times the append step alone (species resolution + bulk species
// rows) and the CRC32 the WAL computes over every logged page.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/random.h"
#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "storage/page.h"
#include "tree/newick.h"
#include "tree/nexus.h"

namespace crimson {
namespace {

std::string YuleNewick(uint32_t n_leaves) {
  static auto* cache = new std::map<uint32_t, std::string>();
  auto it = cache->find(n_leaves);
  if (it == cache->end()) {
    it = cache->emplace(n_leaves,
                        WriteNewick(bench::CachedYule(n_leaves))).first;
  }
  return it->second;
}

void BM_ParseNewick(benchmark::State& state) {
  std::string text = YuleNewick(static_cast<uint32_t>(state.range(0)));
  size_t nodes = 0;
  for (auto _ : state) {
    auto t = ParseNewick(text);
    if (!t.ok()) state.SkipWithError(t.status().ToString().c_str());
    nodes = t->size();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nodes));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

void BM_LoadStructureOnly(benchmark::State& state) {
  std::string text = YuleNewick(static_cast<uint32_t>(state.range(0)));
  uint64_t nodes = 0;
  int run = 0;
  for (auto _ : state) {
    auto c = Crimson::Open();
    if (!c.ok()) state.SkipWithError("open failed");
    auto report = (*c)->LoadNewick("t" + std::to_string(run++), text,
                                   LoadMode::kTreeStructureOnly);
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
    nodes = report->nodes_loaded;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nodes));
  state.counters["nodes"] = static_cast<double>(nodes);
}

// 200-site sequences for the leaves of CachedYule(n), evolved once;
// loading is what is being measured.
const std::map<std::string, std::string>& CachedSequences(uint32_t n) {
  static auto* cache =
      new std::map<uint32_t, std::map<std::string, std::string>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    SeqEvolveOptions opts;
    opts.seq_length = 200;
    auto ev = SequenceEvolver::Create(opts);
    Rng rng(10);
    it = cache->emplace(n, *ev->EvolveLeaves(bench::CachedYule(n), &rng))
             .first;
  }
  return it->second;
}

void BM_LoadWithSpeciesData(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const PhyloTree& tree = bench::CachedYule(n);
  const std::map<std::string, std::string>& sequences = CachedSequences(n);
  int run = 0;
  for (auto _ : state) {
    auto c = Crimson::Open();
    std::string name = "t" + std::to_string(run++);
    auto report = (*c)->LoadTree(name, tree);
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
    auto append = (*c)->AppendSpeciesData(name, sequences);
    if (!append.ok()) state.SkipWithError(append.status().ToString().c_str());
    benchmark::DoNotOptimize(append);
  }
  state.counters["species"] = static_cast<double>(n);
}

void BM_AppendSpeciesData(benchmark::State& state) {
  // Only the append is timed: resolving every species against the
  // stored tree plus the bulk species-row write. The tree is stored
  // fresh (untimed) before each append.
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const PhyloTree& tree = bench::CachedYule(n);
  const std::map<std::string, std::string>& sequences = CachedSequences(n);
  for (auto _ : state) {
    state.PauseTiming();
    auto c = Crimson::Open();
    if (!c.ok()) state.SkipWithError("open failed");
    auto report = (*c)->LoadTree("t", tree);
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
    state.ResumeTiming();
    auto append = (*c)->AppendSpeciesData("t", sequences);
    if (!append.ok()) state.SkipWithError(append.status().ToString().c_str());
    benchmark::DoNotOptimize(append);
    state.PauseTiming();
    c->reset();  // session teardown stays out of the timing
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_Crc32(benchmark::State& state) {
  // One WAL page image: the WAL checksums every logged page.
  std::string page(kPageSize, '\0');
  Rng rng(12);
  for (char& c : page) c = static_cast<char>(rng.Next() & 0xFF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page.data(), page.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}

void BM_LoadOnDisk(benchmark::State& state) {
  // Same load against a real file (page writes + fsync on flush).
  std::string text = YuleNewick(static_cast<uint32_t>(state.range(0)));
  std::string path = "/tmp/crimson_bench_load.db";
  int run = 0;
  for (auto _ : state) {
    RemoveFile(path).ToString();
    CrimsonOptions opts;
    opts.db_path = path;
    auto c = Crimson::Open(opts);
    auto report = (*c)->LoadNewick("t" + std::to_string(run++), text,
                                   LoadMode::kTreeStructureOnly);
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
    if (!(*c)->Flush().ok()) state.SkipWithError("flush failed");
  }
  RemoveFile(path).ToString();
}

BENCHMARK(BM_ParseNewick)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadStructureOnly)->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadWithSpeciesData)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AppendSpeciesData)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Crc32);
BENCHMARK(BM_LoadOnDisk)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crimson
