#include "crimson/query_request.h"

#include <map>

#include "common/overloaded.h"
#include "common/string_util.h"
#include "tree/newick.h"

namespace crimson {

namespace {

std::string JoinSpecies(const std::vector<std::string>& species) {
  std::string out;
  for (size_t i = 0; i < species.size(); ++i) {
    if (i) out.push_back(',');
    out += species[i];
  }
  return out;
}

/// Appends one parameter value with the encoding's separators escaped:
/// '%' (the escape itself) and '&' (the field separator) everywhere,
/// and ',' too inside species-list elements (the list separator).
/// A value free of these characters appends unchanged, so history
/// rows written before escaping existed still decode as written.
void AppendEscaped(std::string_view value, bool list_element,
                   std::string* out) {
  const std::string_view reserved = list_element ? "%&," : "%&";
  size_t done = 0;
  for (size_t at = value.find_first_of(reserved); at != value.npos;
       at = value.find_first_of(reserved, done)) {
    out->append(value.substr(done, at - done));
    out->append(value[at] == '%' ? "%25" : value[at] == '&' ? "%26" : "%2C");
    done = at + 1;
  }
  out->append(value.substr(done));
}

void AppendSpeciesList(const std::vector<std::string>& species,
                       std::string* out) {
  for (size_t i = 0; i < species.size(); ++i) {
    if (i) out->push_back(',');
    AppendEscaped(species[i], /*list_element=*/true, out);
  }
}

/// Inverse of AppendEscaped. Only its three escapes decode; any other
/// '%' is literal, as in rows written before escaping existed.
std::string Unescape(std::string_view value) {
  std::string out;
  for (size_t i = 0; i < value.size(); ++i) {
    const std::string_view esc = value.substr(i, 3);
    if (esc == "%25" || esc == "%26" || esc == "%2C") {
      out.push_back(esc == "%25" ? '%' : esc == "%26" ? '&' : ',');
      i += 2;
    } else {
      out.push_back(value[i]);
    }
  }
  return out;
}

std::vector<std::string> SplitSpecies(std::string_view joined) {
  std::vector<std::string> out;
  for (std::string_view s : StrSplit(joined, ',')) {
    if (!s.empty()) out.push_back(Unescape(s));
  }
  return out;
}

}  // namespace

std::string_view QueryKindName(const QueryRequest& request) {
  return std::visit(
      Overloaded{
          [](const LcaQuery&) { return std::string_view("lca"); },
          [](const ProjectQuery&) { return std::string_view("project"); },
          [](const SampleUniformQuery&) {
            return std::string_view("sample_uniform");
          },
          [](const SampleTimeQuery&) {
            return std::string_view("sample_time");
          },
          [](const CladeQuery&) { return std::string_view("clade"); },
          [](const PatternQuery&) {
            return std::string_view("pattern_match");
          },
      },
      request);
}

std::string SummarizeResult(const QueryResult& result) {
  return std::visit(
      Overloaded{
          [](const LcaAnswer& a) {
            return StrFormat("lca node=%u name=%s", a.node, a.name.c_str());
          },
          [](const ProjectAnswer& a) {
            return StrFormat("projection nodes=%zu", a.projection.size());
          },
          [](const SampleAnswer& a) {
            return StrFormat("sampled %zu species", a.species.size());
          },
          [](const CladeAnswer& a) {
            return StrFormat("clade root=%u nodes=%zu leaves=%zu", a.root,
                             a.node_count, a.leaf_count);
          },
          [](const PatternAnswer& a) {
            return StrFormat("exact=%d rf=%.4f", a.exact ? 1 : 0,
                             a.rf_normalized);
          },
      },
      result);
}

std::string RenderResult(const QueryResult& result) {
  return std::visit(
      Overloaded{
          [](const LcaAnswer& a) {
            return StrFormat("lca node=%u name=%s", a.node, a.name.c_str());
          },
          [](const ProjectAnswer& a) { return WriteNewick(a.projection); },
          [](const SampleAnswer& a) { return JoinSpecies(a.species); },
          [](const CladeAnswer& a) {
            return StrFormat("clade root=%u nodes=%zu", a.root, a.node_count);
          },
          [](const PatternAnswer& a) {
            return StrFormat("exact=%d rf=%.4f", a.exact ? 1 : 0,
                             a.rf_normalized);
          },
      },
      result);
}

std::string EncodeQueryParams(const std::string& tree_name,
                              const QueryRequest& request) {
  std::string out = "tree=";
  AppendEscaped(tree_name, /*list_element=*/false, &out);
  std::visit(
      Overloaded{
          [&](const LcaQuery& q) {
            out += "&a=";
            AppendEscaped(q.a, /*list_element=*/false, &out);
            out += "&b=";
            AppendEscaped(q.b, /*list_element=*/false, &out);
          },
          [&](const ProjectQuery& q) {
            out += "&species=";
            AppendSpeciesList(q.species, &out);
          },
          [&](const SampleUniformQuery& q) {
            out += StrFormat("&k=%zu", q.k);
          },
          [&](const SampleTimeQuery& q) {
            out += StrFormat("&k=%zu&time=%.17g", q.k, q.time);
          },
          [&](const CladeQuery& q) {
            out += "&species=";
            AppendSpeciesList(q.species, &out);
          },
          [&](const PatternQuery& q) {
            out += "&pattern=";
            AppendEscaped(q.pattern_newick, /*list_element=*/false, &out);
            out += q.match_weights ? "&weights=1" : "&weights=0";
          },
      },
      request);
  return out;
}

Result<std::pair<std::string, QueryRequest>> DecodeQueryRequest(
    const std::string& kind, const std::string& params) {
  std::map<std::string, std::string> kv;
  for (std::string_view pair : StrSplit(params, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    kv[std::string(pair.substr(0, eq))] = std::string(pair.substr(eq + 1));
  }
  std::string tree = Unescape(kv["tree"]);
  if (tree.empty()) {
    return Status::InvalidArgument(
        StrFormat("query params missing tree name: '%s'", params.c_str()));
  }
  if (kind == "lca") {
    return std::make_pair(
        std::move(tree),
        QueryRequest(LcaQuery{Unescape(kv["a"]), Unescape(kv["b"])}));
  }
  if (kind == "project") {
    return std::make_pair(
        std::move(tree), QueryRequest(ProjectQuery{SplitSpecies(kv["species"])}));
  }
  if (kind == "sample_uniform") {
    CRIMSON_ASSIGN_OR_RETURN(int64_t k, ParseInt64(kv["k"]));
    return std::make_pair(
        std::move(tree),
        QueryRequest(SampleUniformQuery{static_cast<size_t>(k)}));
  }
  if (kind == "sample_time") {
    CRIMSON_ASSIGN_OR_RETURN(int64_t k, ParseInt64(kv["k"]));
    CRIMSON_ASSIGN_OR_RETURN(double t, ParseDouble(kv["time"]));
    return std::make_pair(
        std::move(tree),
        QueryRequest(SampleTimeQuery{static_cast<size_t>(k), t}));
  }
  if (kind == "clade") {
    return std::make_pair(
        std::move(tree), QueryRequest(CladeQuery{SplitSpecies(kv["species"])}));
  }
  if (kind == "pattern_match") {
    return std::make_pair(
        std::move(tree),
        QueryRequest(
            PatternQuery{Unescape(kv["pattern"]), kv["weights"] == "1"}));
  }
  return Status::Unimplemented(
      StrFormat("cannot decode query kind '%s'", kind.c_str()));
}

}  // namespace crimson
