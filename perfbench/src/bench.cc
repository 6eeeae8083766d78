#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "common/overloaded.h"
#include "crimson/service.h"
#include "labeling/layered_dewey.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/clade.h"
#include "query/pattern_match.h"
#include "query/projection.h"
#include "query/sampling.h"
#include "recon/rf_distance.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"

namespace perfbench {

using namespace crimson;
namespace fs = std::filesystem;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

uint64_t DatabaseBytes(const std::string& db_path) {
  uint64_t total = FileBytes(db_path);
  const fs::path db(db_path);
  const std::string wal_prefix = db.filename().string() + "-wal.";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(db.parent_path(), ec)) {
    if (entry.path().filename().string().rfind(wal_prefix, 0) == 0) {
      total += FileBytes(entry.path().string());
    }
  }
  return total;
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  fs::create_directories(dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// -- report ---------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("  %-34s %16.6g %s\n", name.c_str(), value, unit.c_str());
  std::fflush(stdout);
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  ++failed_;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, entry] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g", entry.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           entry.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

void Require(const Status& status, std::string_view what) {
  if (status.ok()) return;
  std::fprintf(stderr, "set-up failed: %.*s: %s\n",
               static_cast<int>(what.size()), what.data(),
               status.ToString().c_str());
  std::exit(1);
}

// -- spans ----------------------------------------------------------------------

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  out << "[";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const TraceSpan& s : log->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
      first = false;
    }
  }
  out << "\n]\n";
}

// -- inputs ---------------------------------------------------------------------

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->NextDouble();
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

PhyloTree MakeYuleTree(uint32_t leaves, Rng* rng) {
  YuleOptions options;
  options.n_leaves = leaves;
  return Require(SimulateYule(options, rng), "SimulateYule");
}

std::map<std::string, std::string> MakeSequences(const PhyloTree& tree,
                                                 size_t sites, Rng* rng) {
  SeqEvolveOptions options;
  options.model = SubstModel::kJC69;
  options.seq_length = sites;
  SequenceEvolver evolver =
      Require(SequenceEvolver::Create(options), "SequenceEvolver");
  return Require(evolver.EvolveLeaves(tree, rng), "EvolveLeaves");
}

std::vector<std::string> LeafNames(const PhyloTree& tree) {
  std::vector<std::string> names;
  for (NodeId n : tree.Leaves()) names.emplace_back(tree.name(n));
  return names;
}

double TreeHeight(const PhyloTree& tree) {
  double height = 0;
  NodeId n = tree.Leaves().front();
  while (n != tree.root()) {
    height += tree.edge_length(n);
    n = tree.parent(n);
  }
  return height;
}

CrimsonOptions DiskOptions(const std::string& db_path) {
  CrimsonOptions options;
  options.db_path = db_path;
  options.durability = Durability::kGroupCommit;
  return options;
}

std::string EncodeResult(const QueryResult& result) {
  std::string bytes;
  net::EncodeQueryResult(&bytes, result);
  return bytes;
}

void SkipTickets(Crimson* session, TreeRef tree, const std::string& a,
                 const std::string& b, size_t n) {
  const std::vector<QueryRequest> filler(n, LcaQuery{a, b});
  session->ExecuteBatch(tree, {filler.data(), filler.size()});
}

// -- per-layer metrics ----------------------------------------------------------

const char* const kKindNames[6] = {"lca",         "project", "sample_uniform",
                                   "sample_time", "clade",   "pattern_match"};

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v{
        {"net.rtt_p50_us", "us"},
        {"net.self_p50_us", "us"},
        {"net.admission_wait_p50_us", "us"},
        {"net.queries_per_batch", "count"},
        {"net.rejected", "count"},
    };
    for (const char* kind : kKindNames) {
      v.push_back({std::string("session.execute_p50_us.") + kind, "us"});
    }
    for (const char* kind : kKindNames) {
      v.push_back({std::string("session.over_kernel.") + kind, "x"});
    }
    v.insert(v.end(), {{"session.flush_ms", "ms"},
                         {"session.wal_fsyncs_per_kq", "count"},
                         {"session.batch_speedup", "x"},
                         {"cache.hit_ratio", "ratio"},
                         {"cache.evictions", "count"},
                         {"cache.bytes_used", "bytes"},
                         {"crack.loaded_ratio", "ratio"},
                         {"crack.piece_hit_ratio", "ratio"}});
    for (const char* kind : kKindNames) {
      v.push_back({std::string("kernel.p50_ns.") + kind, "ns"});
    }
    v.insert(v.end(), {{"labeling.build_ms", "ms"},
                         {"eval.sample_s", "s"},
                         {"eval.project_s", "s"},
                         {"eval.reconstruct_s", "s"},
                         {"eval.compare_s", "s"},
                         {"eval.cold_sweep_ms", "ms"},
                         {"tree.parse_ms", "ms"},
                         {"storage.load_ms", "ms"},
                         {"storage.checkpoint_ms", "ms"},
                         {"storage.append_ms", "ms"},
                         {"storage.open_ms", "ms"},
                         {"storage.bind_ms", "ms"},
                         {"storage.wal_bytes_per_input_byte", "ratio"},
                         {"storage.wal_fsyncs", "count"},
                         {"storage.pool_miss_ratio", "ratio"},
                         {"storage.pool_evictions", "count"},
                         {"storage.pool_dirty_writebacks", "count"},
                         {"storage.db_bytes", "bytes"},
                         {"obs.trace_overhead", "x"}});
    return v;
  }();
  return names;
}

void EmitLayerMetrics(const LayerValues& values, Report* report) {
  for (const auto& [name, unit] : LayerMetricNames()) {
    auto it = values.find(name);
    const double value = it == values.end() ? 0.0 : it->second;
    report->Metric(name, value, unit);
    report->Info(name, value, unit);
  }
  for (const auto& [name, value] : values) {
    const auto& known = LayerMetricNames();
    if (std::none_of(known.begin(), known.end(),
                     [&](const auto& e) { return e.first == name; })) {
      std::fprintf(stderr, "internal: undeclared layer metric %s\n",
                   name.c_str());
      std::exit(1);
    }
  }
}

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  return after.counter(name) - before.counter(name);
}

double HistogramDeltaP50(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after,
                         const std::string& name) {
  const obs::HistogramSnapshot* a = after.histogram(name);
  if (a == nullptr) return 0;
  obs::HistogramSnapshot delta = *a;
  if (const obs::HistogramSnapshot* b = before.histogram(name)) {
    for (size_t i = 0; i < delta.counts.size() && i < b->counts.size(); ++i) {
      delta.counts[i] -= b->counts[i];
    }
    delta.count -= b->count;
    delta.sum -= b->sum;
  }
  return delta.p50();
}

void ServerLoadValues(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after, LayerValues* values) {
  (*values)["net.admission_wait_p50_us"] =
      HistogramDeltaP50(before, after, "net.admission_wait_us");
  const double batches = CounterDelta(before, after, "net.batches_executed");
  (*values)["net.queries_per_batch"] =
      batches > 0 ? CounterDelta(before, after, "net.queries_executed") / batches
                  : 0;
  (*values)["net.rejected"] =
      CounterDelta(before, after, "net.queries_rejected");
}

void CacheValues(const cache::CacheStats& before,
                 const cache::CacheStats& after, LayerValues* values) {
  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  (*values)["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  (*values)["cache.evictions"] = after.evictions - before.evictions;
  (*values)["cache.bytes_used"] = after.bytes_used;
}

// -- traced ingest phases ---------------------------------------------------------

namespace {

/// Times fn(), records it as a root span unless `spans` is null, and
/// returns milliseconds.
template <typename Fn>
double TimedSpan(SpanLog* spans, const char* name, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  if (spans != nullptr) spans->Add(name, 0, 0, start, end);
  return static_cast<double>(end - start) / 1e6;
}

}  // namespace

BoundSession TraceIngestPhases(
    const std::string& db_path, const std::string& newick,
    const std::map<std::string, std::string>* sequences, uint64_t input_bytes,
    SpanLog* spans, LayerValues* values) {
  PhyloTree tree;
  (*values)["tree.parse_ms"] = TimedSpan(spans, "tree.parse", [&] {
    tree = Require(ParseNewick(newick), "ParseNewick");
  });
  (*values)["labeling.build_ms"] = TimedSpan(spans, "labeling.build", [&] {
    LayeredDeweyScheme scheme(CrimsonOptions().f);
    Require(scheme.Build(tree), "LayeredDeweyScheme::Build");
  });

  auto session = Require(Crimson::Open(DiskOptions(db_path)), "Open");
  const obs::MetricsSnapshot before = session->SnapshotMetrics();
  (*values)["storage.load_ms"] = TimedSpan(spans, "storage.load", [&] {
    Require(session->LoadTree("gold", tree), "LoadTree");
  });
  if (sequences != nullptr) {
    (*values)["storage.append_ms"] = TimedSpan(spans, "storage.append", [&] {
      Require(session->AppendSpeciesData("gold", *sequences),
              "AppendSpeciesData");
    });
  }
  (*values)["storage.checkpoint_ms"] =
      TimedSpan(spans, "storage.checkpoint",
                [&] { Require(session->Checkpoint(), "Checkpoint"); });
  const obs::MetricsSnapshot after = session->SnapshotMetrics();
  const double hits = CounterDelta(before, after, "storage.pool.hits");
  const double misses = CounterDelta(before, after, "storage.pool.misses");
  (*values)["storage.wal_bytes_per_input_byte"] =
      static_cast<double>(CounterDelta(before, after, "storage.wal.bytes")) /
      static_cast<double>(input_bytes);
  (*values)["storage.wal_fsyncs"] =
      CounterDelta(before, after, "storage.wal.fsyncs");
  (*values)["storage.pool_miss_ratio"] =
      hits + misses > 0 ? misses / (hits + misses) : 0;
  (*values)["storage.pool_evictions"] =
      CounterDelta(before, after, "storage.pool.evictions");
  (*values)["storage.pool_dirty_writebacks"] =
      CounterDelta(before, after, "storage.pool.dirty_writebacks");
  (*values)["storage.db_bytes"] = DatabaseBytes(db_path);
  session.reset();

  BoundSession bound;
  (*values)["storage.open_ms"] = TimedSpan(spans, "storage.open", [&] {
    bound.session = Require(Crimson::Open(DiskOptions(db_path)), "reopen");
  });
  (*values)["storage.bind_ms"] = TimedSpan(spans, "storage.bind", [&] {
    bound.tree = Require(bound.session->OpenTree("gold"), "OpenTree");
  });
  return bound;
}

// -- the rung ladder --------------------------------------------------------------

namespace {

/// The benchmark's own kernel objects over one tree (rung 1).
struct Kernels {
  PhyloTree tree;
  LayeredDeweyScheme scheme{CrimsonOptions().f};
  std::unique_ptr<TreeProjector> projector;
  std::unique_ptr<PatternMatcher> matcher;
  std::unique_ptr<Sampler> sampler;
  std::unordered_map<std::string, NodeId> leaf;

  explicit Kernels(const std::string& newick)
      : tree(Require(ParseNewick(newick), "ParseNewick")) {
    Require(scheme.Build(tree), "LayeredDeweyScheme::Build");
    projector = std::make_unique<TreeProjector>(&tree, &scheme);
    matcher = std::make_unique<PatternMatcher>(projector.get());
    sampler = std::make_unique<Sampler>(&tree);
    for (NodeId n : tree.Leaves()) leaf.emplace(tree.name(n), n);
  }

  std::vector<NodeId> Resolve(const std::vector<std::string>& names) const {
    std::vector<NodeId> ids;
    ids.reserve(names.size());
    for (const std::string& name : names) ids.push_back(leaf.at(name));
    return ids;
  }

  /// Runs one request's kernel; returns its wall time in ns. Name
  /// resolution happens before the clock starts.
  int64_t Run(const QueryRequest& request, Rng* rng) const {
    bool ok = true;
    int64_t start = 0;
    std::visit(
        Overloaded{
            [&](const LcaQuery& q) {
              const NodeId a = leaf.at(q.a), b = leaf.at(q.b);
              start = NowNs();
              ok = scheme.Lca(a, b).ok();
            },
            [&](const ProjectQuery& q) {
              std::vector<NodeId> ids = Resolve(q.species);
              start = NowNs();
              ok = projector->Project(std::move(ids)).ok();
            },
            [&](const SampleUniformQuery& q) {
              start = NowNs();
              ok = sampler->SampleUniform(q.k, rng).ok();
            },
            [&](const SampleTimeQuery& q) {
              start = NowNs();
              ok = sampler->SampleWithRespectToTime(q.k, q.time, rng).ok();
            },
            [&](const CladeQuery& q) {
              const std::vector<NodeId> ids = Resolve(q.species);
              start = NowNs();
              ok = MinimalSpanningClade(tree, scheme, ids).ok();
            },
            [&](const PatternQuery& q) {
              start = NowNs();
              Result<PhyloTree> pattern = ParseNewick(q.pattern_newick);
              ok = pattern.ok();
              if (!ok) return;
              Result<PatternMatcher::MatchResult> match =
                  matcher->Match(*pattern, 1e-9, q.match_weights);
              ok = match.ok();
              if (ok && !match->exact && pattern->LeafCount() >= 3) {
                ok = RobinsonFoulds(*pattern, match->projection).ok();
              }
            },
        },
        request);
    const int64_t elapsed = NowNs() - start;
    if (!ok) {
      std::fprintf(stderr, "kernel rung: request failed\n");
      std::exit(1);
    }
    return elapsed;
  }
};

const char* const kKernelSpans[6] = {
    "kernel.lca",         "kernel.project", "kernel.sample_uniform",
    "kernel.sample_time", "kernel.clade",   "kernel.pattern_match"};

}  // namespace

void RunLadder(const std::string& db_path, const std::string& newick,
               const std::vector<QueryRequest>& stream, SpanLog* spans,
               LayerValues* values, Report* report) {
  report->Attempted(4 * stream.size());
  // Every rung above the kernel starts from a fresh session (ticket 0)
  // and issues the stream in order, so all of them must return the
  // sequential rung's bytes, sampling included.
  std::vector<std::string> expected;
  const auto check = [&](const char* rung, size_t i,
                         const Result<QueryResult>& r) {
    if (!r.ok() || EncodeResult(*r) != expected[i]) {
      report->Mismatch(std::string(rung) + " rung differs from sequential "
                       "Execute on request " + std::to_string(i));
    }
  };
  // Rung 1: kernels called directly.
  std::vector<double> kernel_ns[6];
  {
    Kernels kernels(newick);
    Rng rng(stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
      const size_t kind = stream[i].index();
      const int64_t start = NowNs();
      const int64_t ns = kernels.Run(stream[i], &rng);
      spans->Add(kKernelSpans[kind], 0, i + 1, start, NowNs());
      kernel_ns[kind].push_back(static_cast<double>(ns));
    }
  }

  // Rung 2: Crimson::Execute, sequentially, on a fresh session.
  std::vector<double> session_us[6];
  std::vector<double> session_all_us;
  double sequential_s = 0;
  {
    auto session = Require(Crimson::Open(DiskOptions(db_path)), "Open");
    const TreeRef tree = Require(session->OpenTree("gold"), "OpenTree");
    const obs::MetricsSnapshot before = session->SnapshotMetrics();
    for (size_t i = 0; i < stream.size(); ++i) {
      const int64_t start = NowNs();
      Result<QueryResult> r = session->Execute(tree, stream[i]);
      const int64_t end = NowNs();
      expected.push_back(EncodeResult(Require(std::move(r), "session rung")));
      spans->Add("session.execute", 0, i + 1, start, end);
      const double us = static_cast<double>(end - start) / 1e3;
      session_us[stream[i].index()].push_back(us);
      session_all_us.push_back(us);
      sequential_s += us / 1e6;
    }
    (*values)["session.flush_ms"] = TimedSpan(
        spans, "session.flush", [&] { Require(session->Flush(), "Flush"); });
    const obs::MetricsSnapshot after = session->SnapshotMetrics();
    (*values)["session.wal_fsyncs_per_kq"] =
        static_cast<double>(CounterDelta(before, after, "storage.wal.fsyncs")) *
        1000.0 / static_cast<double>(stream.size());
  }
  for (size_t k = 0; k < 6; ++k) {
    if (kernel_ns[k].empty()) continue;
    const double kernel_p50 = Median(kernel_ns[k]);
    const double session_p50 = Median(session_us[k]);
    (*values)[std::string("kernel.p50_ns.") + kKindNames[k]] = kernel_p50;
    (*values)[std::string("session.execute_p50_us.") + kKindNames[k]] =
        session_p50;
    (*values)[std::string("session.over_kernel.") + kKindNames[k]] =
        kernel_p50 > 0 ? session_p50 * 1e3 / kernel_p50 : 0;
  }

  // ExecuteBatch over the same stream on another fresh session, in the
  // 256-request batches the analyze workload issues.
  {
    auto session = Require(Crimson::Open(DiskOptions(db_path)), "Open");
    const TreeRef tree = Require(session->OpenTree("gold"), "OpenTree");
    double batch_s = 0;
    for (size_t i = 0; i < stream.size(); i += 256) {
      const size_t n = std::min<size_t>(256, stream.size() - i);
      const int64_t start = NowNs();
      std::vector<Result<QueryResult>> results =
          session->ExecuteBatch(tree, {stream.data() + i, n});
      const int64_t end = NowNs();
      for (size_t j = 0; j < n; ++j) check("ExecuteBatch", i + j, results[j]);
      spans->Add("session.execute_batch", 0, i + 1, start, end);
      batch_s += static_cast<double>(end - start) / 1e9;
    }
    (*values)["session.batch_speedup"] = sequential_s / batch_s;
  }

  // Rung 3: one wire client calling a server over a fresh session.
  {
    auto session = Require(Crimson::Open(DiskOptions(db_path)), "Open");
    Require(session->OpenTree("gold").status(), "OpenTree");
    SessionService service(session.get());
    auto server = Require(net::CrimsonServer::Start(&service), "server");
    net::ClientOptions client_options;
    client_options.port = server->port();
    auto client =
        Require(net::CrimsonClient::Connect(client_options), "connect");
    const obs::MetricsSnapshot before = session->SnapshotMetrics();
    std::vector<double> wire_us;
    for (size_t i = 0; i < stream.size(); ++i) {
      const int64_t start = NowNs();
      Result<QueryResult> r = client->Execute("gold", stream[i]);
      const int64_t end = NowNs();
      check("wire", i, r);
      spans->Add("wire.call", 0, i + 1, start, end);
      wire_us.push_back(static_cast<double>(end - start) / 1e3);
    }
    ServerLoadValues(before, session->SnapshotMetrics(), values);
    const double rtt = Median(wire_us);
    (*values)["net.rtt_p50_us"] = rtt;
    (*values)["net.self_p50_us"] = rtt - Median(session_all_us);
    client.reset();
    Require(server->Shutdown(), "server shutdown");
  }
}

}  // namespace perfbench
