// SubtreeIndex: immutable per-node subtree summaries of one PhyloTree,
// stored as flat arrays indexed by NodeId. It turns the paper's §2.2
// subtree questions into lookups:
//
//   * pre-order rank of every node (the projector's sort key);
//   * subtree node and leaf counts (a minimal spanning clade's size is
//     two lookups once its root -- an LCA -- is known);
//   * the leaves in pre-order, with each node's leaves a contiguous
//     slice of that array (time-respecting sampling draws from slices);
//   * root-path weights (the time frontier and projected edge lengths).
//
// Built in O(n) with two linear passes over the arena, relying on its
// invariants: parents precede children, and sibling chains run in
// node order. A reverse pass accumulates subtree counts into parents; a
// forward pass places each node after its parent and elder siblings.
// No traversal stack is needed.
//
// The index borrows the tree: it is valid for exactly the tree it was
// built over and must not outlive it or see it mutated.

#ifndef CRIMSON_TREE_SUBTREE_INDEX_H_
#define CRIMSON_TREE_SUBTREE_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "tree/phylo_tree.h"

namespace crimson {

class SubtreeIndex {
 public:
  /// An empty index over no tree.
  SubtreeIndex() = default;

  /// Builds the index over `tree`, which must outlive it.
  explicit SubtreeIndex(const PhyloTree* tree);

  const PhyloTree& tree() const { return *tree_; }

  /// Position of `n` in pre-order (the root is 0).
  uint32_t preorder_rank(NodeId n) const { return rank_[n]; }

  /// Nodes in the subtree rooted at `n`, including `n`.
  uint32_t subtree_size(NodeId n) const { return size_[n]; }

  /// Leaves in the subtree rooted at `n` (1 for a leaf).
  uint32_t leaf_count(NodeId n) const { return leaf_count_[n]; }

  /// Sum of edge lengths from the root to `n` (0 at the root).
  double root_weight(NodeId n) const { return root_weight_[n]; }

  /// The leaves under `n` in pre-order: a view into leaves().
  Span<const NodeId> LeavesUnder(NodeId n) const {
    return Span<const NodeId>(leaves_.data() + leaf_offset_[n],
                              leaf_count_[n]);
  }

  /// All leaves in pre-order (PhyloTree::Leaves() order).
  const std::vector<NodeId>& leaves() const { return leaves_; }

  /// Every node's pre-order rank (PhyloTree::PreOrderRanks() order).
  const std::vector<uint32_t>& preorder_ranks() const { return rank_; }

 private:
  const PhyloTree* tree_ = nullptr;
  std::vector<uint32_t> rank_;
  std::vector<uint32_t> size_;
  std::vector<uint32_t> leaf_count_;
  /// Index into leaves_ of the first leaf under each node.
  std::vector<uint32_t> leaf_offset_;
  std::vector<NodeId> leaves_;
  std::vector<double> root_weight_;
};

}  // namespace crimson

#endif  // CRIMSON_TREE_SUBTREE_INDEX_H_
