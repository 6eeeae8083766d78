#include "tree/subtree_index.h"

namespace crimson {

SubtreeIndex::SubtreeIndex(const PhyloTree* tree) : tree_(tree) {
  const size_t n = tree->size();
  if (n == 0) return;
  // Raw column pointers: the index's uint32 stores could otherwise
  // alias the tree's columns and force reloads in every iteration.
  const NodeId* parent = tree->parents().data();
  const double* edge_length = tree->edge_lengths().data();

  // Reverse pass: children have larger ids than their parent, so a
  // node's counts are complete (and size 1 marks a leaf) before it is
  // folded into its parent. Siblings ascend in id order, so when v is
  // folded in, its parent's running counts cover v plus its younger
  // siblings only; parking them in v's rank/offset slots fixes v's
  // place among its siblings.
  size_.assign(n, 1);
  leaf_count_.assign(n, 0);
  rank_.assign(n, 0);
  leaf_offset_.assign(n, 0);
  uint32_t* size = size_.data();
  uint32_t* leaf_count = leaf_count_.data();
  uint32_t* rank = rank_.data();
  uint32_t* leaf_offset = leaf_offset_.data();
  for (size_t v = n - 1; v > 0; --v) {
    leaf_count[v] += size[v] == 1;  // no children folded in: a leaf
    const NodeId p = parent[v];
    size[p] += size[v];
    leaf_count[p] += leaf_count[v];
    rank[v] = size[p];
    leaf_offset[v] = leaf_count[p];
  }
  leaf_count[0] += size[0] == 1;

  // Forward pass: parents are final before their children; v's elder
  // siblings fill the parent's subtree minus what was parked for v.
  root_weight_.assign(n, 0.0);
  leaves_.resize(leaf_count[0]);
  double* weight = root_weight_.data();
  NodeId* leaves = leaves_.data();
  for (size_t v = 0; v < n; ++v) {
    if (v > 0) {
      const NodeId p = parent[v];
      rank[v] = rank[p] + size[p] + 1 - rank[v];
      leaf_offset[v] = leaf_offset[p] + leaf_count[p] - leaf_offset[v];
      weight[v] = weight[p] + edge_length[v];
    }
    if (size[v] == 1) leaves[leaf_offset[v]] = static_cast<NodeId>(v);
  }
}

}  // namespace crimson
