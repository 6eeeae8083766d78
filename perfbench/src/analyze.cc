// The analyze workload: whole-tree analysis plus algorithm evaluation,
// in-process. The data is a 20k-leaf Yule tree with 500-site JC69
// sequences (fits the default buffer pool). Each iteration runs one
// ExecuteBatch of 256 fresh, uniformly drawn requests (clade,
// sample_time(64), 256-species projection, sample_uniform(256); no
// request repeats, so the result cache runs but cannot hit) and one
// sweep of two RunExperiment specs. Query/labeling kernels, src/recon
// and the cracked store do the work here; net is idle.

#include <cstdio>
#include <memory>

#include "bench.h"
#include "tree/newick.h"

namespace perfbench {
namespace {

using namespace crimson;

constexpr uint32_t kLeaves = 20000;
constexpr size_t kSites = 500;
constexpr size_t kBatch = 256;
/// Requests each rung of the traced ladder replays.
constexpr size_t kLadderRequests = 1024;
/// Iterations per phase of the trace-overhead comparison.
constexpr int kOverheadIterations = 2;
/// Warm sweeps the traced run takes the eval.* stage split from.
constexpr int kTracedSweeps = 3;

struct Inputs {
  PhyloTree tree;
  std::string newick;
  std::map<std::string, std::string> sequences;
  std::vector<std::string> leaves;
  double height = 0;
  uint64_t input_bytes = 0;

  explicit Inputs(uint64_t seed) {
    Rng rng(seed);
    tree = MakeYuleTree(kLeaves, &rng);
    newick = WriteNewick(tree);
    sequences = MakeSequences(tree, kSites, &rng);
    leaves = LeafNames(tree);
    height = TreeHeight(tree);
    input_bytes = newick.size();
    for (const auto& [name, seq] : sequences) input_bytes += seq.size();
  }

  std::vector<std::string> Species(size_t n, Rng* rng) const {
    std::vector<std::string> out;
    for (uint64_t i : rng->SampleWithoutReplacement(leaves.size(), n)) {
      out.push_back(leaves[i]);
    }
    return out;
  }

  QueryRequest Next(Rng* rng) const {
    switch (rng->Uniform(4)) {
      case 0:
        return CladeQuery{Species(8, rng)};
      case 1:
        // Below the tree height every leaf lies under the time frontier.
        return SampleTimeQuery{64, rng->NextDouble() * 0.9 * height};
      case 2:
        return ProjectQuery{Species(256, rng)};
      default:
        return SampleUniformQuery{256};
    }
  }

  std::vector<QueryRequest> Batch(Rng* rng) const {
    std::vector<QueryRequest> batch;
    for (size_t i = 0; i < kBatch; ++i) batch.push_back(Next(rng));
    return batch;
  }
};

/// The two RunExperiment specs of one sweep: a triplet-scored grid and
/// an RF-only pass over large samples, where neighbor joining dominates.
std::vector<ExperimentSpec> SweepSpecs() {
  SelectionSpec u64, t64, u128, u512;
  u64.k = 64;
  t64.kind = SelectionSpec::Kind::kWithRespectToTime;
  t64.k = 64;
  t64.time = 0.5;
  u128.k = 128;
  u512.k = 512;
  ExperimentSpec grid;
  grid.algorithms = {"nj", "upgma"};
  grid.selections = {u64, t64, u128};
  grid.replicates = 4;
  grid.compute_triplets = true;
  ExperimentSpec large;
  large.algorithms = {"nj", "upgma"};
  large.selections = {u512};
  large.replicates = 2;
  large.compute_triplets = false;
  return {grid, large};
}

size_t SweepTickets() {
  size_t n = 0;
  for (const ExperimentSpec& spec : SweepSpecs()) n += spec.job_count();
  return n;
}

/// Runs one sweep; returns its reports (a failed experiment counts as a
/// failed operation and is left out).
std::vector<ExperimentReport> Sweep(Crimson* session, TreeRef tree,
                                    Report* report) {
  std::vector<ExperimentReport> reports;
  for (const ExperimentSpec& spec : SweepSpecs()) {
    report->Attempted();
    Result<ExperimentReport> r = session->RunExperiment(tree, spec);
    if (r.ok()) {
      reports.push_back(std::move(*r));
    } else {
      report->Failed();
      std::fprintf(stderr, "RunExperiment failed: %s\n",
                   r.status().ToString().c_str());
    }
  }
  return reports;
}

/// RerunExperiment must reproduce every run's scores and topologies.
void CheckRerun(Crimson* session, const ExperimentReport& original,
                Report* report) {
  report->Attempted();
  Result<ExperimentReport> rerun =
      session->RerunExperiment(original.experiment_id);
  bool same = rerun.ok() && rerun->runs.size() == original.runs.size();
  for (size_t i = 0; same && i < original.runs.size(); ++i) {
    const BenchmarkRun& a = original.runs[i];
    const BenchmarkRun& b = rerun->runs[i];
    same = a.rf.distance == b.rf.distance && a.rf.normalized == b.rf.normalized &&
           a.triplets.differing == b.triplets.differing &&
           a.triplets.total == b.triplets.total &&
           WriteNewick(a.reconstructed) == WriteNewick(b.reconstructed);
  }
  if (!same) report->Mismatch("RerunExperiment did not reproduce a sweep");
}

/// A batch the timed loop ran: its requests and the encodings of the
/// session's results (kept for the twin replay).
struct BatchRecord {
  std::vector<QueryRequest> requests;
  std::vector<std::string> results;
};

int RunTimed(const Args& args, Report* report) {
  std::vector<double> setup_s, load_rate, space_amp;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Crimson> session, twin;
  TreeRef tree, twin_tree;
  const std::string db = args.work_dir + "/analyze.db";
  for (int round = 0; round < kSetupRounds; ++round) {
    session.reset();
    twin.reset();
    const double t0 = NowSeconds();
    in = std::make_unique<Inputs>(args.seed);
    ResetDir(args.work_dir);
    session = Require(Crimson::Open(DiskOptions(db)), "Open");
    const double load0 = NowSeconds();
    Require(session->LoadNewick("gold", in->newick).status(), "LoadNewick");
    Require(session->Checkpoint(), "Checkpoint");
    load_rate.push_back(static_cast<double>(in->tree.size()) /
                        (NowSeconds() - load0));
    Require(session->AppendSpeciesData("gold", in->sequences).status(),
            "AppendSpeciesData");
    Require(session->Checkpoint(), "Checkpoint");
    space_amp.push_back(static_cast<double>(DatabaseBytes(db)) /
                        static_cast<double>(in->input_bytes));
    tree = Require(session->OpenTree("gold"), "OpenTree");
    twin = Require(Crimson::Open(CrimsonOptions()), "twin Open");
    twin_tree = Require(twin->LoadNewick("gold", in->newick), "twin load").ref;
    // Warm-up: the evaluation state build and the first (cold) sweep.
    Sweep(session.get(), tree, report);
    setup_s.push_back(NowSeconds() - t0);
  }
  report->Attempted(kSetupRounds * 5);  // open, load, 2 checkpoints, append
  // The twin mirrors the session's ticket counter from here on.
  SkipTickets(twin.get(), twin_tree, in->leaves[0], in->leaves[1],
              SweepTickets());

  Rng rng(args.seed ^ 0xa7a1);
  std::vector<double> batch_ms, sweep_ms;
  std::vector<BatchRecord> batches;
  std::vector<ExperimentReport> sweeps;
  size_t requests = 0;
  const double deadline = NowSeconds() + args.seconds;
  while (NowSeconds() < deadline) {
    BatchRecord record;
    record.requests = in->Batch(&rng);
    const double b0 = NowSeconds();
    std::vector<Result<QueryResult>> results = session->ExecuteBatch(
        tree, {record.requests.data(), record.requests.size()});
    batch_ms.push_back((NowSeconds() - b0) * 1e3);
    requests += results.size();
    report->Attempted(results.size());
    for (const Result<QueryResult>& r : results) {
      if (!r.ok()) report->Failed();
      record.results.push_back(r.ok() ? EncodeResult(*r) : std::string());
    }
    batches.push_back(std::move(record));

    const double s0 = NowSeconds();
    std::vector<ExperimentReport> sweep = Sweep(session.get(), tree, report);
    sweep_ms.push_back((NowSeconds() - s0) * 1e3);
    for (ExperimentReport& r : sweep) sweeps.push_back(std::move(r));
  }
  double batch_s = 0;
  for (double ms : batch_ms) batch_s += ms / 1e3;

  // ExecuteBatch must equal sequential Execute on the same-seed twin.
  for (const BatchRecord& record : batches) {
    for (size_t i = 0; i < record.requests.size(); ++i) {
      Result<QueryResult> r = twin->Execute(twin_tree, record.requests[i]);
      if (!r.ok() || EncodeResult(*r) != record.results[i]) {
        report->Mismatch(std::string("ExecuteBatch ") +
                         std::string(QueryKindName(record.requests[i])) +
                         " differs from sequential Execute on the twin");
      }
    }
    SkipTickets(twin.get(), twin_tree, in->leaves[0], in->leaves[1],
                SweepTickets());
  }
  for (const ExperimentReport& r : sweeps) CheckRerun(session.get(), r, report);
  session.reset();
  twin.reset();
  RemoveDir(args.work_dir);

  const double batch_qps = static_cast<double>(requests) / batch_s;
  std::printf("analyze: %zu batches, %zu sweeps\n", batch_ms.size(),
              sweep_ms.size());
  report->Info("batch_qps", batch_qps, "1/s");
  report->Info("sweep_ms", Median(sweep_ms), "ms");
  report->Info("error_rate",
               static_cast<double>(report->failed()) /
                   static_cast<double>(report->attempted()),
               "ratio");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("space_amp", Median(space_amp), "x");
  report->Metric("load_nodes_per_s", Median(load_rate), "1/s");
  report->Metric("rate_per_s", batch_qps, "1/s");
  report->Metric("fast_op_ms", Median(batch_ms), "ms");
  report->Metric("slow_op_ms", Median(sweep_ms), "ms");
  return 0;
}

/// One batch-plus-sweep iteration; returns its wall time in seconds.
double Iteration(Crimson* session, TreeRef tree, const Inputs& in, Rng* rng,
                 SpanLog* spans, Report* report) {
  const std::vector<QueryRequest> batch = in.Batch(rng);
  const int64_t start = NowNs();
  std::vector<Result<QueryResult>> results =
      session->ExecuteBatch(tree, {batch.data(), batch.size()});
  const int64_t batch_end = NowNs();
  Sweep(session, tree, report);
  const int64_t end = NowNs();
  report->Attempted(results.size());
  for (const Result<QueryResult>& r : results) {
    if (!r.ok()) report->Failed();
  }
  if (spans != nullptr) {
    const uint64_t root = spans->Add("analyze.iteration", 0, 0, start, end);
    spans->Add("session.execute_batch", root, 0, start, batch_end);
    spans->Add("eval.sweep", root, 0, batch_end, end);
  }
  return static_cast<double>(end - start) / 1e9;
}

int RunTraced(const Args& args, Report* report) {
  const Inputs in(args.seed);
  ResetDir(args.work_dir);
  const std::string db = args.work_dir + "/analyze.db";
  SpanLog spans;
  LayerValues values;
  BoundSession bound = TraceIngestPhases(db, in.newick, &in.sequences,
                                         in.input_bytes, &spans, &values);
  report->Attempted(7);

  // Sweeps: the first pays the evaluation-state build (cold); the warm
  // ones give the per-stage split of src/recon's pipeline.
  int64_t start = NowNs();
  Sweep(bound.session.get(), bound.tree, report);
  spans.Add("eval.cold_sweep", 0, 0, start, NowNs());
  values["eval.cold_sweep_ms"] = static_cast<double>(NowNs() - start) / 1e6;
  std::vector<double> sample_s, project_s, reconstruct_s, compare_s;
  for (int i = 0; i < kTracedSweeps; ++i) {
    start = NowNs();
    double stage[4] = {0, 0, 0, 0};
    for (const ExperimentReport& r :
         Sweep(bound.session.get(), bound.tree, report)) {
      for (const BenchmarkRun& run : r.runs) {
        stage[0] += run.sample_seconds;
        stage[1] += run.project_seconds;
        stage[2] += run.reconstruct_seconds;
        stage[3] += run.compare_seconds;
      }
    }
    spans.Add("eval.sweep", 0, 0, start, NowNs());
    sample_s.push_back(stage[0]);
    project_s.push_back(stage[1]);
    reconstruct_s.push_back(stage[2]);
    compare_s.push_back(stage[3]);
  }
  values["eval.sample_s"] = Median(sample_s);
  values["eval.project_s"] = Median(project_s);
  values["eval.reconstruct_s"] = Median(reconstruct_s);
  values["eval.compare_s"] = Median(compare_s);

  // Trace overhead and the cache/cracking figures of the analyze load:
  // untraced, traced and untraced iterations on the same session.
  Rng rng(args.seed ^ 0xa7a1);
  const cache::CacheStats cache_before = bound.session->GetCacheStats();
  double untraced = 0, traced = 0;
  for (int i = 0; i < kOverheadIterations; ++i) {
    untraced += Iteration(bound.session.get(), bound.tree, in, &rng, nullptr,
                          report);
  }
  for (int i = 0; i < kOverheadIterations; ++i) {
    traced +=
        Iteration(bound.session.get(), bound.tree, in, &rng, &spans, report);
  }
  for (int i = 0; i < kOverheadIterations; ++i) {
    untraced += Iteration(bound.session.get(), bound.tree, in, &rng, nullptr,
                          report);
  }
  values["obs.trace_overhead"] = traced / (untraced / 2);
  const cache::CacheStats cache = bound.session->GetCacheStats();
  CacheValues(cache_before, cache, &values);
  values["crack.loaded_ratio"] =
      cache.crack_sequences_total > 0
          ? static_cast<double>(cache.crack_sequences_loaded) /
                cache.crack_sequences_total
          : 0;
  values["crack.piece_hit_ratio"] =
      cache.crack_batches > 0
          ? static_cast<double>(cache.crack_piece_hits) / cache.crack_batches
          : 0;
  bound.session.reset();

  Rng ladder_rng(args.seed ^ 0x1add);
  std::vector<QueryRequest> stream;
  for (size_t i = 0; i < kLadderRequests; ++i) {
    stream.push_back(in.Next(&ladder_rng));
  }
  RunLadder(db, in.newick, stream, &spans, &values, report);

  WriteSpans(args.spans_path, {&spans});
  RemoveDir(args.work_dir);
  EmitLayerMetrics(values, report);
  return 0;
}

}  // namespace

int RunAnalyze(const Args& args, Report* report) {
  return args.trace ? RunTraced(args, report) : RunTimed(args, report);
}

}  // namespace perfbench
