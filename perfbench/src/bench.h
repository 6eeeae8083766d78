// Shared pieces of the Crimson repository benchmark: timing and
// statistics, the run report (its last stdout line is the JSON result),
// the in-memory span log of traced runs, input generators, and the
// helpers the three workloads (serve, analyze, ingest) have in common.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "crimson/crimson.h"
#include "crimson/query_request.h"
#include "tree/phylo_tree.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory (under .bench_build/) for database files; created
  /// and removed by the workload.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON) when it ends.
  std::string spans_path;
};

/// Set-ups per untimed run; setup_s and the set-up loads report the
/// median over them, and the last one is the one measured.
constexpr int kSetupRounds = 5;

// -- time and statistics ------------------------------------------------------

double NowSeconds();
int64_t NowNs();

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty set.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// Size of one file; 0 when it does not exist.
uint64_t FileBytes(const std::string& path);
/// The database file plus its write-ahead log segments (<db>-wal.*).
uint64_t DatabaseBytes(const std::string& db_path);
/// Recreates `dir` empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

// -- the run report -------------------------------------------------------------

/// Accumulates what one run prints: human-readable lines as it goes,
/// then a single JSON object as the last stdout line.
class Report {
 public:
  /// A metric of the result line (the names BENCHMARK.json declares).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line (not part of the result line).
  void Info(const std::string& name, double value, const std::string& unit);
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  /// A correctness mismatch: counts one failed operation and makes the
  /// whole run incorrect.
  void Mismatch(const std::string& what);
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string Json() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Aborts the run (exit code 1, no result line) on a failed set-up
/// step: without its inputs the workload cannot measure anything.
void Require(const crimson::Status& status, std::string_view what);
template <typename T>
T Require(crimson::Result<T> result, std::string_view what) {
  Require(result.status(), what);
  return std::move(result).value();
}

// -- spans of the traced run ----------------------------------------------------

struct TraceSpan {
  const char* name;  // static string: the layer boundary crossed
  uint64_t id;
  uint64_t parent;   // 0 for a root span
  uint64_t request;  // request ordinal within its stream; 0 if none
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans recorded by one thread; kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread_index = 0)
      : next_id_((static_cast<uint64_t>(thread_index) << 40) + 1) {}
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, next_id_, parent, request, start_ns, end_ns});
    return next_id_++;
  }
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<TraceSpan> spans_;
};

/// Writes every span as one JSON array to `path`.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// -- inputs ---------------------------------------------------------------------

/// Zipf-like popularity over n items: item i has weight 1/(i+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(crimson::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// A simulated Yule gold tree with leaf names (input of every workload).
crimson::PhyloTree MakeYuleTree(uint32_t leaves, crimson::Rng* rng);
/// JC69 sequences of `sites` sites for every leaf of `tree`.
std::map<std::string, std::string> MakeSequences(const crimson::PhyloTree& tree,
                                                 size_t sites,
                                                 crimson::Rng* rng);
/// Leaf names in node order.
std::vector<std::string> LeafNames(const crimson::PhyloTree& tree);
/// Root-to-leaf distance of the (ultrametric) tree.
double TreeHeight(const crimson::PhyloTree& tree);

/// Session options every workload uses: on-disk, group commit pinned,
/// everything else at its default.
crimson::CrimsonOptions DiskOptions(const std::string& db_path);

/// The wire encoding of a result; checks compare these bytes.
std::string EncodeResult(const crimson::QueryResult& result);

/// Advances a session's query ticket counter by `n` with cheap LCA
/// queries, so a twin session draws the same sampling streams as the
/// session it mirrors after that one ran `n` ticketed operations the
/// twin skips.
void SkipTickets(crimson::Crimson* session, crimson::TreeRef tree,
                 const std::string& a, const std::string& b, size_t n);

// -- per-layer metrics ----------------------------------------------------------

/// The six query kinds, in QueryRequest variant order.
extern const char* const kKindNames[6];

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// A traced run reports all of them; layers a workload does not
/// exercise report 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// Per-layer values of one traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Emits every per-layer metric (0 where `values` has none).
void EmitLayerMetrics(const LayerValues& values, Report* report);

/// Deltas of a session's registry counters between two snapshots.
uint64_t CounterDelta(const crimson::obs::MetricsSnapshot& before,
                      const crimson::obs::MetricsSnapshot& after,
                      const std::string& name);
/// p50 of the observations a histogram gained between two snapshots.
double HistogramDeltaP50(const crimson::obs::MetricsSnapshot& before,
                         const crimson::obs::MetricsSnapshot& after,
                         const std::string& name);

/// net.admission_wait_p50_us, net.queries_per_batch and net.rejected of
/// the server traffic between two snapshots of its session.
void ServerLoadValues(const crimson::obs::MetricsSnapshot& before,
                      const crimson::obs::MetricsSnapshot& after,
                      LayerValues* values);
/// cache.hit_ratio and cache.evictions between two readings of a
/// session's result cache, and its cache.bytes_used at the second.
void CacheValues(const crimson::cache::CacheStats& before,
                 const crimson::cache::CacheStats& after, LayerValues* values);

/// The traced ingest phases of one tree, shared by all three workloads:
/// ParseNewick, a direct labeling build, LoadTree of the parsed tree,
/// optional AppendSpeciesData, Checkpoint, close, Open, OpenTree. Fills
/// tree.parse_ms, labeling.build_ms and the storage.* metrics, and
/// records one span per phase when `spans` is not null. Returns the
/// reopened, bound session.
struct BoundSession {
  std::unique_ptr<crimson::Crimson> session;
  crimson::TreeRef tree;
};
BoundSession TraceIngestPhases(
    const std::string& db_path, const std::string& newick,
    const std::map<std::string, std::string>* sequences, uint64_t input_bytes,
    SpanLog* spans, LayerValues* values);

/// The query rung ladder of a traced run: replays `stream` against
/// kernels built by the benchmark, then through Crimson::Execute on a
/// fresh session over `db_path`, then as single-client wire calls to a
/// server over another fresh session; ExecuteBatch runs the stream on a
/// further fresh session. Every rung above the kernel must return the
/// sequential rung's bytes. Fills kernel.*, session.* and net.* metrics.
void RunLadder(const std::string& db_path, const std::string& newick,
               const std::vector<crimson::QueryRequest>& stream,
               SpanLog* spans, LayerValues* values, Report* report);

int RunServe(const Args& args, Report* report);
int RunAnalyze(const Args& args, Report* report);
int RunIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
