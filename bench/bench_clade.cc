// E12 -- minimal spanning clade (paper §2.2): LCA of the input leaves
// plus subtree enumeration. Shape expectation: cost = k LCA probes +
// O(|clade|) traversal; the clade size, not the tree size, dominates.
// The session's clade kind answers from the bound tree's SubtreeIndex
// instead (k LCA probes + two lookups), so BM_CladeSizeFromIndex stays
// flat in the clade size.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "common/random.h"
#include "labeling/layered_dewey.h"
#include "query/clade.h"
#include "query/lca.h"
#include "query/sampling.h"
#include "tree/subtree_index.h"

namespace crimson {
namespace {

const LayeredDeweyScheme& CachedScheme(uint32_t n) {
  static auto* schemes =
      new std::map<uint32_t, std::unique_ptr<LayeredDeweyScheme>>();
  auto it = schemes->find(n);
  if (it == schemes->end()) {
    auto s = std::make_unique<LayeredDeweyScheme>(8);
    if (!s->Build(bench::CachedYule(n)).ok()) abort();
    it = schemes->emplace(n, std::move(s)).first;
  }
  return *it->second;
}

std::vector<NodeId> UniformSample(const PhyloTree& tree, size_t k) {
  Sampler sampler(&tree);
  Rng rng(15);
  auto sample = sampler.SampleUniform(k, &rng);
  if (!sample.ok()) abort();
  return *sample;
}

void BM_MinimalSpanningClade(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const PhyloTree& tree = bench::CachedYule(n);
  const LayeredDeweyScheme& scheme = CachedScheme(n);
  std::vector<NodeId> sample =
      UniformSample(tree, static_cast<size_t>(state.range(1)));
  size_t clade_nodes = 0;
  for (auto _ : state) {
    auto clade = MinimalSpanningClade(tree, scheme, sample);
    if (!clade.ok()) state.SkipWithError(clade.status().ToString().c_str());
    clade_nodes = clade->nodes.size();
    benchmark::DoNotOptimize(clade);
  }
  state.counters["k"] = static_cast<double>(state.range(1));
  state.counters["clade_nodes"] = static_cast<double>(clade_nodes);
}

// The session's clade kind: LcaOfSet, then the clade's node and leaf
// counts from the subtree index.
void BM_CladeSizeFromIndex(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const PhyloTree& tree = bench::CachedYule(n);
  const LayeredDeweyScheme& scheme = CachedScheme(n);
  SubtreeIndex index(&tree);
  std::vector<NodeId> sample =
      UniformSample(tree, static_cast<size_t>(state.range(1)));
  size_t clade_nodes = 0;
  for (auto _ : state) {
    auto root = LcaOfSet(scheme, sample);
    if (!root.ok()) state.SkipWithError(root.status().ToString().c_str());
    clade_nodes = index.subtree_size(*root);
    benchmark::DoNotOptimize(clade_nodes);
    benchmark::DoNotOptimize(index.leaf_count(*root));
  }
  state.counters["k"] = static_cast<double>(state.range(1));
  state.counters["clade_nodes"] = static_cast<double>(clade_nodes);
}

// Sibling-cluster clades stay small even in huge trees: sample leaves
// under one subtree instead of uniformly.
void BM_LocalizedClade(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  const PhyloTree& tree = bench::CachedYule(n);
  const LayeredDeweyScheme& scheme = CachedScheme(n);
  // Pick an internal node ~log2(n) levels down and use its leaves.
  NodeId anchor = tree.root();
  for (int d = 0; d < 8 && !tree.is_leaf(anchor); ++d) {
    anchor = tree.first_child(anchor);
  }
  Sampler sampler(&tree);
  Span<const NodeId> pool = sampler.LeavesUnder(anchor);
  if (pool.size() < 4) {
    state.SkipWithError("anchor subtree too small");
    return;
  }
  std::vector<NodeId> sample(pool.begin(),
                             pool.begin() + std::min<size_t>(16, pool.size()));
  size_t clade_nodes = 0;
  for (auto _ : state) {
    auto clade = MinimalSpanningClade(tree, scheme, sample);
    if (!clade.ok()) state.SkipWithError(clade.status().ToString().c_str());
    clade_nodes = clade->nodes.size();
    benchmark::DoNotOptimize(clade);
  }
  state.counters["clade_nodes"] = static_cast<double>(clade_nodes);
}

// Args: {tree leaves, sampled k}.
BENCHMARK(BM_MinimalSpanningClade)
    ->Args({10000, 8})->Args({10000, 64})
    ->Args({100000, 8})->Args({100000, 64})->Args({100000, 512})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CladeSizeFromIndex)
    ->Args({10000, 8})->Args({10000, 64})
    ->Args({100000, 8})->Args({100000, 64})->Args({100000, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LocalizedClade)->Args({100000, 0});

}  // namespace
}  // namespace crimson
