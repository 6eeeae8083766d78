// The typed query layer of the Crimson session API. Every structure
// query is a value in the QueryRequest sum type; the facade executes
// all of them through one per-request routine (behind Crimson::Execute
// and ExecuteBatch), which is also the single place where query
// history is recorded. Because the
// request itself is stored (serialized) in the Query Repository,
// RerunQuery replays the typed value instead of re-parsing per-kind
// strings.

#ifndef CRIMSON_CRIMSON_QUERY_REQUEST_H_
#define CRIMSON_CRIMSON_QUERY_REQUEST_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "tree/phylo_tree.h"

namespace crimson {

// -- requests ---------------------------------------------------------------

/// LCA of two species (paper §2.1).
struct LcaQuery {
  std::string a;
  std::string b;
};

/// Projection of the tree induced by the named species (Fig. 2).
struct ProjectQuery {
  std::vector<std::string> species;
};

/// Uniform random species sample.
struct SampleUniformQuery {
  size_t k = 0;
};

/// Sampling with respect to evolutionary time (paper §2.2).
struct SampleTimeQuery {
  size_t k = 0;
  double time = 0;
};

/// Minimal spanning clade of the named species.
struct CladeQuery {
  std::vector<std::string> species;
};

/// Tree pattern match against a Newick pattern (paper §2.2).
struct PatternQuery {
  std::string pattern_newick;
  bool match_weights = false;
};

using QueryRequest =
    std::variant<LcaQuery, ProjectQuery, SampleUniformQuery, SampleTimeQuery,
                 CladeQuery, PatternQuery>;

/// Stable kind tag ("lca", "project", "sample_uniform", "sample_time",
/// "clade", "pattern_match") -- the Query Repository key, unchanged
/// from the string-API era so old histories stay replayable.
std::string_view QueryKindName(const QueryRequest& request);

// -- results ----------------------------------------------------------------

struct LcaAnswer {
  NodeId node = kNoNode;
  std::string name;
};

struct ProjectAnswer {
  PhyloTree projection;
};

struct SampleAnswer {
  std::vector<std::string> species;
};

struct CladeAnswer {
  NodeId root = kNoNode;
  size_t node_count = 0;
  size_t leaf_count = 0;
};

struct PatternAnswer {
  bool exact = false;
  double rf_normalized = 0.0;  // similarity of pattern vs projection
  PhyloTree projection;
};

using QueryResult =
    std::variant<LcaAnswer, ProjectAnswer, SampleAnswer, CladeAnswer,
                 PatternAnswer>;

/// One-line result summary stored in the query history (identical
/// strings to the pre-handle facade).
std::string SummarizeResult(const QueryResult& result);

/// Full textual rendering, used by RerunQuery: Newick for projections,
/// the comma-joined species list for samples, the summary otherwise.
std::string RenderResult(const QueryResult& result);

// -- history (de)serialization ----------------------------------------------

/// Encodes a request as the history "k=v&k=v" parameter string: the
/// one canonical encoding of a query (history row, slow-log params and,
/// prefixed with the kind tag, the result-cache key). Text values
/// escape '%' and '&' as %25 and %26, and species-list elements also
/// escape ',' as %2C, so distinct requests never share an encoding. A
/// request with none of those characters encodes byte-identically to
/// the strings earlier releases wrote, so their databases replay
/// unchanged.
std::string EncodeQueryParams(const std::string& tree_name,
                              const QueryRequest& request);

/// Decodes a history entry back into (tree name, typed request),
/// undoing EncodeQueryParams' escapes.
Result<std::pair<std::string, QueryRequest>> DecodeQueryRequest(
    const std::string& kind, const std::string& params);

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_QUERY_REQUEST_H_
