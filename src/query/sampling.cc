#include "query/sampling.h"

#include <algorithm>

#include "common/string_util.h"

namespace crimson {

Sampler::Sampler(const PhyloTree* tree)
    : owned_index_(std::make_unique<SubtreeIndex>(tree)),
      index_(owned_index_.get()) {}

Sampler::Sampler(const SubtreeIndex* index) : index_(index) {}

Result<std::vector<NodeId>> Sampler::SampleUniform(size_t k, Rng* rng) const {
  const std::vector<NodeId>& leaves = index_->leaves();
  if (k > leaves.size()) {
    return Status::InvalidArgument(
        StrFormat("sample size %zu exceeds leaf count %zu", k,
                  leaves.size()));
  }
  std::vector<uint64_t> idx = rng->SampleWithoutReplacement(leaves.size(), k);
  std::vector<NodeId> out;
  out.reserve(k);
  for (uint64_t i : idx) out.push_back(leaves[i]);
  return out;
}

std::vector<NodeId> Sampler::TimeFrontier(double time) const {
  // Pre-order walk that stops descending at the first node whose
  // weight exceeds `time` (minimality). Sibling-chain trick as in
  // PhyloTree::PreOrder: a visited node pushes its next sibling, then
  // its first child, so nodes pop in pre-order and no sort is needed.
  std::vector<NodeId> frontier;
  const PhyloTree& tree = index_->tree();
  if (tree.empty()) return frontier;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (tree.next_sibling(n) != kNoNode) {
      stack.push_back(tree.next_sibling(n));
    }
    if (index_->root_weight(n) > time) {
      frontier.push_back(n);
    } else if (!tree.is_leaf(n)) {
      stack.push_back(tree.first_child(n));
    }
  }
  return frontier;
}

Result<std::vector<NodeId>> Sampler::SampleWithRespectToTime(
    size_t k, double time, Rng* rng) const {
  std::vector<NodeId> frontier = TimeFrontier(time);
  if (frontier.empty()) {
    return Status::NotFound(
        StrFormat("no node has root-path weight > %g", time));
  }
  // Quotas: floor(k/|F|) per frontier node, remainder spread over a
  // random subset of frontier nodes.
  std::vector<size_t> quota(frontier.size(), k / frontier.size());
  size_t remainder = k % frontier.size();
  if (remainder > 0) {
    std::vector<uint64_t> extra =
        rng->SampleWithoutReplacement(frontier.size(), remainder);
    for (uint64_t e : extra) ++quota[e];
  }
  // Subtree sizes are index lookups, so the shortfall (quota a subtree
  // cannot meet) is known before any leaf is drawn.
  size_t shortfall = 0;
  size_t under = 0;  // leaves below the frontier
  for (size_t i = 0; i < frontier.size(); ++i) {
    const size_t leaves = index_->leaf_count(frontier[i]);
    under += leaves;
    if (quota[i] > leaves) shortfall += quota[i] - leaves;
  }

  std::vector<NodeId> out;
  out.reserve(k);
  // Only a shortfall needs the unchosen leaves: mark chosen positions
  // over the frontier's concatenated leaf slices.
  std::vector<bool> chosen(shortfall > 0 ? under : 0, false);
  size_t base = 0;
  for (size_t i = 0; i < frontier.size(); ++i) {
    Span<const NodeId> pool = index_->LeavesUnder(frontier[i]);
    size_t take = std::min(quota[i], pool.size());
    std::vector<uint64_t> idx =
        rng->SampleWithoutReplacement(pool.size(), take);
    for (uint64_t j : idx) {
      out.push_back(pool[j]);
      if (shortfall > 0) chosen[base + j] = true;
    }
    base += pool.size();
  }
  // Subtrees smaller than their quota: refill from the remaining pool
  // (unchosen leaves in frontier order) so the caller still gets k
  // species when possible.
  if (shortfall > 0) {
    if (under - out.size() < shortfall) {
      return Status::InvalidArgument(
          StrFormat("only %zu leaves below the time-%g frontier, need %zu",
                    under, time, k));
    }
    std::vector<NodeId> spare;
    spare.reserve(under - out.size());
    base = 0;
    for (NodeId f : frontier) {
      for (NodeId leaf : index_->LeavesUnder(f)) {
        if (!chosen[base++]) spare.push_back(leaf);
      }
    }
    std::vector<uint64_t> idx =
        rng->SampleWithoutReplacement(spare.size(), shortfall);
    for (uint64_t j : idx) out.push_back(spare[j]);
  }
  return out;
}

}  // namespace crimson
