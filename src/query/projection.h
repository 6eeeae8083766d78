// Tree projection (paper §1 Fig. 1-2 and §2.2): given a tree T and a
// subset S of its leaves, produce the tree induced by S -- every node
// has >= 2 children (unary original nodes are merged, edge weights
// summed), edge weights are path-weight differences, and the projection
// root is the LCA of S.
//
// Algorithm (the paper's): sort S in pre-order of T; insert nodes left
// to right, maintaining the rightmost path of the growing projection on
// a stack; each insertion computes one LCA between the new leaf and the
// current rightmost leaf via the labeling scheme.

#ifndef CRIMSON_QUERY_PROJECTION_H_
#define CRIMSON_QUERY_PROJECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "labeling/scheme.h"
#include "tree/phylo_tree.h"
#include "tree/subtree_index.h"

namespace crimson {

/// Reusable projector; reads pre-order ranks and root path weights
/// from a SubtreeIndex of the source tree, then answers each projection
/// in O(|S| log |S| + |S| * lca_cost). Immutable after construction;
/// Project is const and allocates only locals, so one projector may be
/// shared across threads.
class TreeProjector {
 public:
  /// Builds a private SubtreeIndex over `tree` (O(n)). Both arguments
  /// must outlive the projector; scheme must be built over *tree.
  TreeProjector(const PhyloTree* tree, const LabelingScheme* scheme);

  /// Borrows a prebuilt index (O(1)). Both arguments must outlive the
  /// projector; scheme must be built over index->tree().
  TreeProjector(const SubtreeIndex* index, const LabelingScheme* scheme);

  /// Projects the tree induced by the given leaves (duplicates are
  /// ignored). Fails if any node is not a leaf of the source tree.
  Result<PhyloTree> Project(std::vector<NodeId> leaves) const;

  const PhyloTree& tree() const { return index_->tree(); }

 private:
  /// Set by the tree constructor; null when the index is borrowed.
  std::unique_ptr<SubtreeIndex> owned_index_;
  const SubtreeIndex* index_;
  const LabelingScheme* scheme_;
};

}  // namespace crimson

#endif  // CRIMSON_QUERY_PROJECTION_H_
