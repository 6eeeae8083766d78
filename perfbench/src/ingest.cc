// The ingest workload: the write path on data larger than the buffer
// pool. Each load cycle works on a fresh file: LoadNewick of a
// 128k-leaf tree (~256k nodes), AppendSpeciesData with 200-site
// sequences, Checkpoint, then close, reopen with Crimson::Open and bind
// cold with OpenTree. The file (~74 MB) is larger than the default
// pool, unlike analyze's. Load cycles repeat for the run's seconds.
// Tree parsing, the labeling build and storage (B+tree, WAL, buffer
// pool) do the work; the query layers are idle.
//
// DropTree is not part of the workload: on this size, under group
// commit, it fails with resource_exhausted after ~20 s, and a
// benchmark's operations must all succeed. Each cycle's file is
// removed with its directory instead.

#include <cstdio>
#include <memory>

#include "bench.h"
#include "tree/newick.h"

namespace perfbench {
namespace {

using namespace crimson;

constexpr uint32_t kLeaves = 128000;
constexpr size_t kSites = 200;
/// Close / reopen / bind repeats per load cycle.
constexpr int kReopens = 6;

struct Inputs {
  size_t nodes = 0;
  std::string newick;
  std::map<std::string, std::string> sequences;
  uint64_t sequence_bytes = 0;

  explicit Inputs(uint64_t seed) {
    Rng rng(seed);
    const PhyloTree tree = MakeYuleTree(kLeaves, &rng);
    nodes = tree.size();
    newick = WriteNewick(tree);
    sequences = MakeSequences(tree, kSites, &rng);
    for (const auto& [name, seq] : sequences) sequence_bytes += seq.size();
  }
  uint64_t input_bytes() const { return newick.size() + sequence_bytes; }
};

struct Cycle {
  double load_s = 0;
  double append_s = 0;
  double checkpoint_s = 0;
  std::vector<double> reopen_bind_ms;
  double space_amp = 0;
  /// The reopened session, bound to the tree.
  std::unique_ptr<Crimson> session;
  TreeRef tree;
};

/// Reads the bound tree and its sequences back and compares them with
/// the input.
void CheckRoundTrip(Crimson* session, TreeRef tree, const Inputs& in,
                    Report* report) {
  report->Attempted(2);
  Result<const PhyloTree*> bound = session->GetTree(tree);
  if (!bound.ok() || WriteNewick(**bound) != in.newick) {
    report->Mismatch("WriteNewick of the reopened tree differs from input");
  }
  Result<TreeInfo> info = session->GetTreeInfo(tree);
  Result<std::map<std::string, std::string>> seqs =
      info.ok() ? session->species_repository()->SequencesForTree(info->tree_id)
                : Result<std::map<std::string, std::string>>(info.status());
  if (!seqs.ok() || *seqs != in.sequences) {
    report->Mismatch("sequences did not read back unchanged");
  }
}

/// Loads a fresh file, checkpoints, and reopens it kReopens times.
Cycle LoadCycle(const std::string& dir, const Inputs& in, Report* report) {
  Cycle c;
  ResetDir(dir);
  const std::string db = dir + "/ingest.db";
  c.session = Require(Crimson::Open(DiskOptions(db)), "Open");
  double t = NowSeconds();
  Require(c.session->LoadNewick("gold", in.newick).status(), "LoadNewick");
  c.load_s = NowSeconds() - t;
  t = NowSeconds();
  Require(c.session->AppendSpeciesData("gold", in.sequences).status(),
          "AppendSpeciesData");
  c.append_s = NowSeconds() - t;
  t = NowSeconds();
  Require(c.session->Checkpoint(), "Checkpoint");
  c.checkpoint_s = NowSeconds() - t;
  c.space_amp = static_cast<double>(DatabaseBytes(db)) /
                static_cast<double>(in.input_bytes());
  report->Attempted(4);

  for (int i = 0; i < kReopens; ++i) {
    c.session.reset();
    t = NowSeconds();
    c.session = Require(Crimson::Open(DiskOptions(db)), "reopen");
    c.tree = Require(c.session->OpenTree("gold"), "OpenTree");
    c.reopen_bind_ms.push_back((NowSeconds() - t) * 1e3);
    report->Attempted(2);
  }
  CheckRoundTrip(c.session.get(), c.tree, in, report);
  return c;
}

int RunTimed(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  for (int round = 0; round < kSetupRounds; ++round) {
    in.reset();
    const double t0 = NowSeconds();
    in = std::make_unique<Inputs>(args.seed);
    setup_s.push_back(NowSeconds() - t0);
  }

  std::vector<double> load_rate, append_rate, write_ms, reopen_bind_ms, amp;
  const double mb = static_cast<double>(in->sequence_bytes) / 1e6;
  const double deadline = NowSeconds() + args.seconds;
  do {
    const Cycle c = LoadCycle(args.work_dir, *in, report);
    load_rate.push_back(static_cast<double>(in->nodes) /
                        (c.load_s + c.checkpoint_s));
    append_rate.push_back(mb / c.append_s);
    write_ms.push_back((c.load_s + c.append_s + c.checkpoint_s) * 1e3);
    reopen_bind_ms.insert(reopen_bind_ms.end(), c.reopen_bind_ms.begin(),
                          c.reopen_bind_ms.end());
    amp.push_back(c.space_amp);
  } while (NowSeconds() < deadline);
  RemoveDir(args.work_dir);

  std::printf("ingest: %zu load cycles of %zu nodes\n", amp.size(), in->nodes);
  report->Info("load_nodes_per_s", Median(load_rate), "1/s");
  report->Info("append_mb_per_s", Median(append_rate), "MB/s");
  report->Info("reopen_bind_ms", Median(reopen_bind_ms), "ms");
  report->Info("write_ms", Median(write_ms), "ms");
  report->Info("space_amp", Median(amp), "x");
  report->Info("error_rate",
               static_cast<double>(report->failed()) /
                   static_cast<double>(report->attempted()),
               "ratio");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("space_amp", Median(amp), "x");
  report->Metric("load_nodes_per_s", Median(load_rate), "1/s");
  report->Metric("rate_per_s", Median(append_rate), "1/s");
  report->Metric("fast_op_ms", Median(reopen_bind_ms), "ms");
  report->Metric("slow_op_ms", Median(write_ms), "ms");
  return 0;
}

/// One pass over the ingest phases on a fresh file, with a span per
/// phase when `spans` is set; returns its wall time in seconds.
double IngestPass(const Args& args, const Inputs& in, SpanLog* spans,
                  LayerValues* values, Report* report) {
  const int64_t start = NowNs();
  ResetDir(args.work_dir);
  BoundSession bound =
      TraceIngestPhases(args.work_dir + "/ingest.db", in.newick,
                        &in.sequences, in.input_bytes(), spans, values);
  report->Attempted(7);
  CheckRoundTrip(bound.session.get(), bound.tree, in, report);
  bound.session.reset();
  RemoveDir(args.work_dir);
  return static_cast<double>(NowNs() - start) / 1e9;
}

int RunTraced(const Args& args, Report* report) {
  const Inputs in(args.seed);
  SpanLog spans;
  LayerValues values;

  // The same pass untraced, traced, then untraced again; the traced
  // time over the untraced mean is the tracing overhead. The traced
  // pass's values are reported.
  LayerValues untraced_values;
  const double untraced_a =
      IngestPass(args, in, nullptr, &untraced_values, report);
  const double traced = IngestPass(args, in, &spans, &values, report);
  const double untraced_b =
      IngestPass(args, in, nullptr, &untraced_values, report);

  values["obs.trace_overhead"] = traced / ((untraced_a + untraced_b) / 2);
  WriteSpans(args.spans_path, {&spans});
  EmitLayerMetrics(values, report);
  return 0;
}

}  // namespace

int RunIngest(const Args& args, Report* report) {
  return args.trace ? RunTraced(args, report) : RunTimed(args, report);
}

}  // namespace perfbench
