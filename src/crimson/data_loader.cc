#include "crimson/data_loader.h"

#include <string_view>
#include <unordered_map>

#include "common/log.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "labeling/layered_dewey.h"
#include "tree/name_index.h"
#include "tree/newick.h"

namespace crimson {

Result<LoadReport> DataLoader::LoadTree(const std::string& name,
                                        const PhyloTree& tree,
                                        LoadProgressFn progress) {
  WallTimer timer;
  // Duplicate leaf names would make every name-addressed query resolve
  // silently to one arbitrary occurrence; reject them at ingest. Trees
  // stored before this check still open (OpenTree applies a documented
  // first-occurrence rule and warns).
  {
    NameIndex names = NameIndex::Build(tree);
    if (names.has_duplicate_leaf_names()) {
      std::vector<std::string> dups = names.DuplicateLeafNames(tree);
      std::string sample = dups[0];
      return Status::InvalidArgument(StrFormat(
          "tree '%s' has %zu duplicate leaf name%s (e.g. '%s'); leaf names "
          "must be unique for name-addressed queries",
          name.c_str(), dups.size(), dups.size() == 1 ? "" : "s",
          sample.c_str()));
    }
  }
  if (progress) progress("indexing", 0);
  LayeredDeweyScheme scheme(f_);
  CRIMSON_RETURN_IF_ERROR(scheme.Build(tree));
  if (progress) progress("storing", 0);
  Result<int64_t> stored = trees_->StoreTree(name, tree, scheme);
  if (!stored.ok()) {
    CRIMSON_LOG(kError) << "loading tree '" << name
                        << "' failed: " << stored.status();
    return stored.status();
  }
  LoadReport report;
  report.tree_id = *stored;
  report.tree_name = name;
  report.nodes_loaded = tree.size();
  report.seconds = timer.ElapsedSeconds();
  CRIMSON_LOG(kInfo) << "loaded tree '" << name << "' (" << tree.size()
                     << " nodes) in " << report.seconds << "s";
  if (progress) progress("done", tree.size());
  return report;
}

Result<LoadReport> DataLoader::LoadNewick(const std::string& name,
                                          const std::string& newick_text,
                                          LoadMode mode,
                                          LoadProgressFn progress) {
  if (mode == LoadMode::kAppendSpeciesData) {
    return Status::InvalidArgument(
        "Newick input carries no species data to append");
  }
  if (progress) progress("parsing", 0);
  Result<PhyloTree> parsed = ParseNewick(newick_text);
  if (!parsed.ok()) {
    CRIMSON_LOG(kError) << "newick parse error: " << parsed.status();
    return parsed.status();
  }
  return LoadTree(name, *parsed, std::move(progress));
}

Result<LoadReport> DataLoader::LoadNexus(const std::string& name,
                                         const std::string& nexus_text,
                                         LoadMode mode,
                                         LoadProgressFn progress) {
  if (progress) progress("parsing", 0);
  Result<NexusDocument> parsed = ParseNexus(nexus_text);
  if (!parsed.ok()) {
    CRIMSON_LOG(kError) << "nexus parse error: " << parsed.status();
    return parsed.status();
  }
  const NexusDocument& doc = *parsed;

  if (mode == LoadMode::kAppendSpeciesData) {
    if (doc.sequences.empty()) {
      return Status::InvalidArgument("NEXUS input has no CHARACTERS data");
    }
    return AppendSpecies(name, doc.sequences, std::move(progress));
  }

  if (doc.trees.empty()) {
    return Status::InvalidArgument("NEXUS input has no TREES block");
  }
  CRIMSON_ASSIGN_OR_RETURN(LoadReport report,
                           LoadTree(name, doc.trees[0].tree, progress));
  if (mode == LoadMode::kTreeWithSpeciesData && !doc.sequences.empty()) {
    CRIMSON_ASSIGN_OR_RETURN(LoadReport append,
                             AppendSpecies(name, doc.sequences, progress));
    report.species_loaded = append.species_loaded;
  }
  return report;
}

Result<LoadReport> DataLoader::AppendSpecies(
    const std::string& tree_name,
    const std::map<std::string, std::string>& sequences,
    LoadProgressFn progress) {
  WallTimer timer;
  CRIMSON_ASSIGN_OR_RETURN(TreeInfo info, trees_->GetTreeInfo(tree_name));
  LoadReport report;
  report.tree_id = info.tree_id;
  report.tree_name = tree_name;
  // Resolve every species first (errors surface before any write),
  // then store the whole batch through the bulk path. Resolution runs
  // over the stored tree in memory: a species names the last node in
  // arena order carrying exactly that name, internal and unnamed nodes
  // included (DESIGN.md "The bulk-load ingest path").
  CRIMSON_ASSIGN_OR_RETURN(PhyloTree tree, trees_->LoadTree(info.tree_id));
  std::unordered_map<std::string_view, size_t> position;  // in map order
  position.reserve(sequences.size());
  for (const auto& entry : sequences) {
    position.emplace(entry.first, position.size());
  }
  std::vector<NodeId> nodes(sequences.size(), kNoNode);
  for (NodeId n = 0; n < tree.size(); ++n) {
    auto it = position.find(tree.name(n));
    if (it != position.end()) nodes[it->second] = n;
  }
  std::vector<SpeciesRepository::SpeciesEntry> entries;
  entries.reserve(sequences.size());
  uint64_t resolved = 0;
  for (const auto& [species, seq] : sequences) {
    const NodeId node = nodes[resolved];
    if (node == kNoNode) {
      CRIMSON_LOG(kError) << "append species: '" << species
                          << "' not found in tree '" << tree_name << "'";
      return Status::NotFound(
          StrFormat("species '%s' not in tree %lld", species.c_str(),
                    static_cast<long long>(info.tree_id)));
    }
    entries.push_back({species, node, seq});
    ++resolved;
    if (progress && resolved % 1024 == 0) progress("resolving", resolved);
  }
  uint64_t done = entries.size();
  CRIMSON_RETURN_IF_ERROR(species_->PutBatch(info.tree_id,
                                             std::move(entries)));
  if (progress) progress("species", done);
  report.species_loaded = done;
  report.seconds = timer.ElapsedSeconds();
  CRIMSON_LOG(kInfo) << "appended " << done << " sequences to '" << tree_name
                     << "' in " << report.seconds << "s";
  if (progress) progress("done", done);
  return report;
}

}  // namespace crimson
