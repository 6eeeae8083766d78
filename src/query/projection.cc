#include "query/projection.h"

#include <algorithm>

#include "common/string_util.h"

namespace crimson {

TreeProjector::TreeProjector(const PhyloTree* tree,
                             const LabelingScheme* scheme)
    : owned_index_(std::make_unique<SubtreeIndex>(tree)),
      index_(owned_index_.get()),
      scheme_(scheme) {}

TreeProjector::TreeProjector(const SubtreeIndex* index,
                             const LabelingScheme* scheme)
    : index_(index), scheme_(scheme) {}

Result<PhyloTree> TreeProjector::Project(std::vector<NodeId> leaves) const {
  PhyloTree out;
  if (leaves.empty()) return out;
  const PhyloTree& tree = index_->tree();
  const std::vector<uint32_t>& preorder = index_->preorder_ranks();
  for (NodeId n : leaves) {
    if (n >= tree.size()) {
      return Status::InvalidArgument("projection: node out of range");
    }
    if (!tree.is_leaf(n)) {
      return Status::InvalidArgument(
          StrFormat("projection: node %u is not a leaf", n));
    }
  }

  // Pre-order sort, then dedup.
  std::sort(leaves.begin(), leaves.end(), [&](NodeId a, NodeId b) {
    return preorder[a] < preorder[b];
  });
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());

  if (leaves.size() == 1) {
    out.AddRoot(tree.name(leaves[0]), 0.0);
    return out;
  }

  // Intermediate nodes: parent links are discovered as the rightmost
  // path collapses, so build in a temp arena and convert at the end.
  struct Tmp {
    NodeId orig;
    int parent = -1;
  };
  std::vector<Tmp> tmp;
  tmp.reserve(2 * leaves.size());
  std::vector<int> stack;  // rightmost path, indexes into tmp

  tmp.push_back({leaves[0], -1});
  stack.push_back(0);

  for (size_t i = 1; i < leaves.size(); ++i) {
    NodeId x = leaves[i];
    CRIMSON_ASSIGN_OR_RETURN(NodeId l,
                             scheme_->Lca(tmp[stack.back()].orig, x));
    // Pop everything strictly below l, wiring parents as we go. The
    // stack and l all lie on the root path of the stack top, so "deeper
    // than l" is "later than l in pre-order".
    int last_popped = -1;
    while (!stack.empty() && preorder[tmp[stack.back()].orig] > preorder[l]) {
      int v = stack.back();
      stack.pop_back();
      if (!stack.empty() && preorder[tmp[stack.back()].orig] > preorder[l]) {
        tmp[v].parent = stack.back();
      } else {
        last_popped = v;  // attaches to l (created or found below)
      }
    }
    int l_idx;
    if (!stack.empty() && tmp[stack.back()].orig == l) {
      l_idx = stack.back();
    } else {
      l_idx = static_cast<int>(tmp.size());
      tmp.push_back({l, -1});
      if (!stack.empty()) {
        // l slots between the stack top (an ancestor) and the popped
        // chain; its parent is resolved when it is popped later.
      }
      stack.push_back(l_idx);
    }
    if (last_popped >= 0) tmp[last_popped].parent = l_idx;
    tmp.push_back({x, -1});
    stack.push_back(static_cast<int>(tmp.size()) - 1);
  }
  // Drain the stack: each element's parent is the one below it.
  while (stack.size() > 1) {
    int v = stack.back();
    stack.pop_back();
    tmp[v].parent = stack.back();
  }
  int root_idx = stack[0];

  // Convert to a PhyloTree. Children must be added parent-first; tmp
  // indices are not topologically ordered (LCAs are created after their
  // children), so do a BFS from the root over a child adjacency built
  // in one pass. Child order follows pre-order of the original nodes to
  // keep output deterministic.
  std::vector<std::vector<int>> children(tmp.size());
  for (size_t i = 0; i < tmp.size(); ++i) {
    if (tmp[i].parent >= 0) children[tmp[i].parent].push_back(static_cast<int>(i));
  }
  for (auto& kids : children) {
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      return preorder[tmp[a].orig] < preorder[tmp[b].orig];
    });
  }
  std::vector<NodeId> new_id(tmp.size(), kNoNode);
  new_id[root_idx] = out.AddRoot(tree.name(tmp[root_idx].orig), 0.0);
  std::vector<int> queue = {root_idx};
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    int v = queue[qi];
    for (int c : children[v]) {
      double edge = index_->root_weight(tmp[c].orig) -
                    index_->root_weight(tmp[v].orig);
      new_id[c] = out.AddChild(new_id[v], tree.name(tmp[c].orig), edge);
      queue.push_back(c);
    }
  }
  return out;
}

}  // namespace crimson
