// Species sampling (paper §2.2): uniform random leaf samples, and
// "sampling a set of species with respect to a given time" -- find the
// frontier of minimal nodes whose root-path weight exceeds t, then draw
// evenly from the leaf sets under each frontier node. These samples
// feed the Benchmark Manager's projection + reconstruction pipeline.

#ifndef CRIMSON_QUERY_SAMPLING_H_
#define CRIMSON_QUERY_SAMPLING_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/span.h"
#include "tree/phylo_tree.h"
#include "tree/subtree_index.h"

namespace crimson {

/// Reusable sampler over one tree, answering from its SubtreeIndex.
/// Immutable after construction: all query methods are const and draw
/// randomness only from the caller-supplied Rng, so one Sampler may be
/// shared by any number of threads (each with its own Rng).
class Sampler {
 public:
  /// Builds a private SubtreeIndex over `tree` (O(n)); the tree must
  /// outlive the sampler.
  explicit Sampler(const PhyloTree* tree);

  /// Borrows a prebuilt index (O(1)); it must outlive the sampler.
  explicit Sampler(const SubtreeIndex* index);

  /// k distinct leaves uniformly at random. k must not exceed the leaf
  /// count.
  Result<std::vector<NodeId>> SampleUniform(size_t k, Rng* rng) const;

  /// The paper's time-respecting sample: the frontier F of minimal
  /// nodes with root-path weight > time is computed; k draws are spread
  /// as evenly as possible over the frontier subtrees (k/|F| each,
  /// remainder to random frontier nodes), sampling uniformly among the
  /// leaves under each chosen node. A subtree with fewer leaves than
  /// its quota gives all it has, and the shortfall is drawn from the
  /// frontier leaves not yet chosen. Fails if fewer than k leaves lie
  /// under the frontier, or the frontier is empty. Cost: the frontier
  /// walk plus O(k) draws; the unchosen-leaf pool is only built when a
  /// subtree falls short.
  Result<std::vector<NodeId>> SampleWithRespectToTime(size_t k, double time,
                                                      Rng* rng) const;

  /// Minimal nodes (in pre-order) whose root-path weight exceeds
  /// `time`; exposed for tests (paper example: t=1 on the Fig. 1 tree
  /// gives {Bha, x, Syn, Bsu}). Visits only the nodes at or above the
  /// frontier.
  std::vector<NodeId> TimeFrontier(double time) const;

  /// All leaves under `node` (pre-order): a view into the index.
  Span<const NodeId> LeavesUnder(NodeId node) const {
    return index_->LeavesUnder(node);
  }

 private:
  /// Set by the tree constructor; null when the index is borrowed.
  std::unique_ptr<SubtreeIndex> owned_index_;
  const SubtreeIndex* index_;
};

}  // namespace crimson

#endif  // CRIMSON_QUERY_SAMPLING_H_
