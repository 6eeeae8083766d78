// The serve workload: interactive use over the wire. An in-process
// CrimsonServer serves a 100k-leaf Yule tree to two closed-loop client
// connections, each waiting for its reply before sending the next
// request, the way a GUI or a script calls it. The mix is 50% LCA and
// equal shares of 16-species projection, 3-leaf pattern match and
// sample_uniform(32); species popularity is Zipf-like, so the result
// cache sees repeats. Net, session dispatch, history drains and the
// cache do most of the work here, the query kernels little.

#include <cstdio>
#include <memory>
#include <set>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "crimson/service.h"
#include "net/client.h"
#include "net/server.h"
#include "tree/newick.h"

namespace perfbench {
namespace {

using namespace crimson;

constexpr uint32_t kLeaves = 100000;
constexpr double kZipfExponent = 1.0;
constexpr int kClients = 2;
/// Requests each client sends before timing starts (cache fill).
constexpr size_t kWarmupPerClient = 10000;
/// Timed wire results checked against the in-process twin: 1 in this.
constexpr uint64_t kCheckOneIn = 64;
/// Requests replayed on both sessions before warm-up, sampling included.
constexpr size_t kPrecheckRequests = 96;
/// Measurement windows of the timed run.
constexpr int kWindows = 20;
/// Latency recorded for a refused or failed request: it misses every
/// latency limit.
constexpr double kFailedLatencyUs = 1e12;
/// Requests each rung of the traced ladder replays.
constexpr size_t kLadderRequests = 20000;
/// Requests per client in each phase of the trace-overhead comparison.
constexpr size_t kOverheadPerClient = 20000;

struct Inputs {
  PhyloTree tree;
  std::string newick;
  std::vector<std::string> leaves;
  /// Popularity rank -> leaf ordinal (a seeded permutation).
  std::vector<size_t> by_rank;
  Zipf zipf{kLeaves, kZipfExponent};

  explicit Inputs(uint64_t seed) {
    Rng rng(seed);
    tree = MakeYuleTree(kLeaves, &rng);
    newick = WriteNewick(tree);
    leaves = LeafNames(tree);
    by_rank.resize(leaves.size());
    for (size_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
    rng.Shuffle(&by_rank);
  }

  /// `n` distinct species drawn by popularity.
  std::vector<std::string> Species(size_t n, Rng* rng) const {
    std::vector<std::string> out;
    std::unordered_set<size_t> seen;
    while (out.size() < n) {
      const size_t leaf = by_rank[zipf.Draw(rng)];
      if (seen.insert(leaf).second) out.push_back(leaves[leaf]);
    }
    return out;
  }

  QueryRequest Next(Rng* rng) const {
    switch (rng->Uniform(6)) {
      case 0:
      case 1:
      case 2: {
        std::vector<std::string> s = Species(2, rng);
        return LcaQuery{s[0], s[1]};
      }
      case 3:
        return ProjectQuery{Species(16, rng)};
      case 4: {
        std::vector<std::string> s = Species(3, rng);
        return PatternQuery{"((" + s[0] + "," + s[1] + ")," + s[2] + ");",
                            false};
      }
      default:
        return SampleUniformQuery{32};
    }
  }

  /// The request stream of client `c` (independent of timing).
  Rng ClientRng(uint64_t seed, int c) const {
    return Rng(seed * 1000003 + 17 + static_cast<uint64_t>(c));
  }
};

/// One served database plus its in-process twin.
struct Rig {
  std::unique_ptr<Crimson> session;
  std::unique_ptr<Crimson> twin;
  TreeRef twin_tree;
  std::unique_ptr<SessionService> service;
  std::unique_ptr<net::CrimsonServer> server;
  std::vector<std::unique_ptr<net::CrimsonClient>> clients;
  double load_s = 0;  // LoadNewick + Checkpoint
  uint64_t db_bytes = 0;

  ~Rig() {
    clients.clear();
    if (server) Require(server->Shutdown(), "server shutdown");
  }
};

std::unique_ptr<Rig> StartRig(const std::string& dir, const Inputs& in,
                              bool load) {
  auto rig = std::make_unique<Rig>();
  const std::string db = dir + "/serve.db";
  rig->session = Require(Crimson::Open(DiskOptions(db)), "Open");
  if (load) {
    const double t0 = NowSeconds();
    Require(rig->session->LoadNewick("gold", in.newick).status(),
            "LoadNewick");
    Require(rig->session->Checkpoint(), "Checkpoint");
    rig->load_s = NowSeconds() - t0;
    rig->db_bytes = DatabaseBytes(db);
  }
  Require(rig->session->OpenTree("gold").status(), "OpenTree");
  rig->twin = Require(Crimson::Open(CrimsonOptions()), "twin Open");
  rig->twin_tree =
      Require(rig->twin->LoadNewick("gold", in.newick), "twin LoadNewick").ref;
  rig->service = std::make_unique<SessionService>(rig->session.get());
  rig->server = Require(net::CrimsonServer::Start(rig->service.get()),
                        "server Start");
  net::ClientOptions options;
  options.port = rig->server->port();
  for (int c = 0; c < kClients; ++c) {
    rig->clients.push_back(
        Require(net::CrimsonClient::Connect(options), "client Connect"));
  }
  return rig;
}

/// Sends the same seeded requests, sampling included, through one wire
/// client and through the twin, both with fresh ticket counters, and
/// compares the encodings byte for byte.
void Precheck(Rig* rig, const Inputs& in, uint64_t seed, Report* report) {
  Rng rng(seed ^ 0x5e7e);
  for (size_t i = 0; i < kPrecheckRequests; ++i) {
    const QueryRequest request = in.Next(&rng);
    report->Attempted();
    Result<QueryResult> wire = rig->clients[0]->Execute("gold", request);
    Result<QueryResult> local = rig->twin->Execute(rig->twin_tree, request);
    if (!wire.ok() || !local.ok()) {
      report->Mismatch("precheck request failed: " +
                       (wire.ok() ? local.status() : wire.status()).ToString());
    } else if (EncodeResult(*wire) != EncodeResult(*local)) {
      report->Mismatch("precheck: wire result differs from in-process replay");
    }
  }
}

struct Sample {
  QueryRequest request;
  std::string bytes;
};

struct ClientLoad {
  std::vector<double> latency_us;
  std::vector<int64_t> end_ns;  // completion time of each request
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
  SpanLog spans;
};

/// One closed-loop client: runs `count` requests, or until `deadline`
/// when count is 0.
void ClientLoop(net::CrimsonClient* client, const Inputs& in, Rng* rng,
                Rng* check_rng, size_t count, double deadline, bool traced,
                ClientLoad* out) {
  for (size_t i = 0; count == 0 ? NowSeconds() < deadline : i < count; ++i) {
    const QueryRequest request = in.Next(rng);
    const int64_t start = NowNs();
    Result<QueryResult> result = client->Execute("gold", request);
    const int64_t end = NowNs();
    if (traced) out->spans.Add("wire.query", 0, i + 1, start, end);
    ++out->attempted;
    out->end_ns.push_back(end);
    if (!result.ok()) {
      ++out->failed;
      out->latency_us.push_back(kFailedLatencyUs);
      continue;
    }
    out->latency_us.push_back(static_cast<double>(end - start) / 1e3);
    if (check_rng != nullptr && check_rng->OneIn(kCheckOneIn)) {
      out->samples.push_back({request, EncodeResult(*result)});
    }
  }
}

/// Runs every client concurrently; returns the wall time in seconds.
double RunClients(Rig* rig, const Inputs& in, std::vector<Rng>* rngs,
                  std::vector<Rng>* check_rngs, size_t count_per_client,
                  double seconds, bool traced, std::vector<ClientLoad>* loads) {
  loads->clear();
  loads->resize(kClients);
  for (int c = 0; c < kClients; ++c) loads->at(c).spans = SpanLog(c + 1);
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(rig->clients[c].get(), in, &rngs->at(c),
                 check_rngs ? &check_rngs->at(c) : nullptr, count_per_client,
                 deadline, traced, &loads->at(c));
    });
  }
  for (std::thread& t : threads) t.join();
  return NowSeconds() - start;
}

void Account(const std::vector<ClientLoad>& loads, Report* report) {
  for (const ClientLoad& l : loads) {
    report->Attempted(l.attempted);
    report->Failed(l.failed);
  }
}

std::vector<Rng> ClientRngs(const Inputs& in, uint64_t seed) {
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.push_back(in.ClientRng(seed, c));
  return rngs;
}

/// Checks the sampled timed results: deterministic kinds must match the
/// twin's encoding byte for byte; a uniform sample (whose draw depends
/// on the server's ticket order across connections) must be 32
/// distinct leaves of the tree.
void CheckSamples(Rig* rig, const Inputs& in,
                  const std::vector<ClientLoad>& loads, Report* report) {
  const std::unordered_set<std::string> leaves(in.leaves.begin(),
                                               in.leaves.end());
  size_t checked = 0;
  for (const ClientLoad& load : loads) {
    for (const Sample& s : load.samples) {
      ++checked;
      if (const auto* q = std::get_if<SampleUniformQuery>(&s.request)) {
        Slice bytes(s.bytes);
        Result<QueryResult> decoded = net::DecodeQueryResultWire(&bytes);
        const auto* answer =
            decoded.ok() ? std::get_if<SampleAnswer>(&*decoded) : nullptr;
        std::set<std::string> distinct;
        bool valid = answer != nullptr && answer->species.size() == q->k;
        for (size_t i = 0; valid && i < answer->species.size(); ++i) {
          valid = leaves.count(answer->species[i]) > 0 &&
                  distinct.insert(answer->species[i]).second;
        }
        if (!valid) report->Mismatch("timed sample_uniform result invalid");
        continue;
      }
      Result<QueryResult> local = rig->twin->Execute(rig->twin_tree, s.request);
      if (!local.ok() || EncodeResult(*local) != s.bytes) {
        report->Mismatch(std::string("timed ") +
                         std::string(QueryKindName(s.request)) +
                         " result differs from in-process replay");
      }
    }
  }
  std::printf("  checked %zu sampled wire results\n", checked);
}

int RunTimed(const Args& args, Report* report) {
  std::vector<double> setup_s, load_rate, space_amp;
  std::unique_ptr<Rig> rig;
  std::unique_ptr<Inputs> in;
  std::vector<Rng> rngs;
  for (int round = 0; round < kSetupRounds; ++round) {
    rig.reset();
    const double t0 = NowSeconds();
    in = std::make_unique<Inputs>(args.seed);
    ResetDir(args.work_dir);
    rig = StartRig(args.work_dir, *in, /*load=*/true);
    Precheck(rig.get(), *in, args.seed, report);
    rngs = ClientRngs(*in, args.seed);
    std::vector<ClientLoad> warm;
    RunClients(rig.get(), *in, &rngs, nullptr, kWarmupPerClient, 0, false,
               &warm);
    setup_s.push_back(NowSeconds() - t0);
    load_rate.push_back(static_cast<double>(in->tree.size()) / rig->load_s);
    space_amp.push_back(static_cast<double>(rig->db_bytes) /
                        static_cast<double>(in->newick.size()));
    Account(warm, report);
  }

  std::vector<Rng> check_rngs;
  for (int c = 0; c < kClients; ++c) check_rngs.emplace_back(args.seed + c);
  std::vector<ClientLoad> loads;
  const int64_t start_ns = NowNs();
  RunClients(rig.get(), *in, &rngs, &check_rngs, 0, args.seconds, false,
             &loads);
  // The run is cut into windows; each figure is the median over the
  // windows, so a burst of interference moves one window, not the run.
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9) / kWindows;
  std::vector<std::vector<double>> window_latency(kWindows);
  std::vector<double> window_ok(kWindows, 0);
  size_t requests = 0;
  for (const ClientLoad& l : loads) {
    for (size_t i = 0; i < l.end_ns.size(); ++i) {
      const int64_t w = (l.end_ns[i] - start_ns) / window_ns;
      if (w < 0 || w >= kWindows) continue;  // the last requests overrun
      window_latency[w].push_back(l.latency_us[i]);
      if (l.latency_us[i] < kFailedLatencyUs) window_ok[w] += 1;
      ++requests;
    }
  }
  Account(loads, report);
  CheckSamples(rig.get(), *in, loads, report);
  rig.reset();
  RemoveDir(args.work_dir);

  std::vector<double> window_qps, window_p50, window_p90, window_p99;
  for (int w = 0; w < kWindows; ++w) {
    window_qps.push_back(window_ok[w] / (static_cast<double>(window_ns) / 1e9));
    window_p50.push_back(Percentile(window_latency[w], 50));
    window_p90.push_back(Percentile(window_latency[w], 90));
    window_p99.push_back(Percentile(window_latency[w], 99));
  }
  const double qps = Median(window_qps);
  const double p50 = Median(window_p50);
  const double p90 = Median(window_p90);
  const double p99 = Median(window_p99);
  std::printf("serve: %zu timed requests in %d windows\n", requests, kWindows);
  report->Info("query_qps", qps, "1/s");
  report->Info("query_p50_us", p50, "us");
  report->Info("query_p90_us", p90, "us");
  report->Info("query_p99_us", p99, "us");
  report->Info("error_rate",
               static_cast<double>(report->failed()) /
                   static_cast<double>(report->attempted()),
               "ratio");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("space_amp", Median(space_amp), "x");
  report->Metric("load_nodes_per_s", Median(load_rate), "1/s");
  report->Metric("rate_per_s", qps, "1/s");
  report->Metric("fast_op_ms", p50 / 1e3, "ms");
  report->Metric("slow_op_ms", p90 / 1e3, "ms");
  return 0;
}

int RunTraced(const Args& args, Report* report) {
  const Inputs in(args.seed);
  ResetDir(args.work_dir);
  const std::string db = args.work_dir + "/serve.db";
  SpanLog spans;
  LayerValues values;
  TraceIngestPhases(db, in.newick, nullptr, in.newick.size(), &spans, &values);
  report->Attempted(6);

  Rng ladder_rng(args.seed ^ 0x1add);
  std::vector<QueryRequest> stream;
  for (size_t i = 0; i < kLadderRequests; ++i) {
    stream.push_back(in.Next(&ladder_rng));
  }
  RunLadder(db, in.newick, stream, &spans, &values, report);

  // The loaded server: warm up, then untraced / traced / untraced
  // phases of equal size. The traced phase records one span per
  // request; its cost over the untraced mean is the tracing overhead.
  // Admission, coalescing and cache figures come from the traced phase
  // (the serve load), replacing the single-client ladder's.
  auto rig = StartRig(args.work_dir, in, /*load=*/false);
  std::vector<Rng> rngs = ClientRngs(in, args.seed);
  std::vector<ClientLoad> loads;
  RunClients(rig.get(), in, &rngs, nullptr, kWarmupPerClient, 0, false,
             &loads);
  Account(loads, report);
  const double untraced_a = RunClients(rig.get(), in, &rngs, nullptr,
                                       kOverheadPerClient, 0, false, &loads);
  Account(loads, report);
  const obs::MetricsSnapshot before = rig->session->SnapshotMetrics();
  const cache::CacheStats cache_before = rig->session->GetCacheStats();
  const double traced = RunClients(rig.get(), in, &rngs, nullptr,
                                   kOverheadPerClient, 0, true, &loads);
  const obs::MetricsSnapshot after = rig->session->SnapshotMetrics();
  const cache::CacheStats cache_after = rig->session->GetCacheStats();
  std::vector<ClientLoad> traced_loads = std::move(loads);
  Account(traced_loads, report);
  const double untraced_b = RunClients(rig.get(), in, &rngs, nullptr,
                                       kOverheadPerClient, 0, false, &loads);
  Account(loads, report);
  rig.reset();

  values["obs.trace_overhead"] = traced / ((untraced_a + untraced_b) / 2);
  ServerLoadValues(before, after, &values);
  CacheValues(cache_before, cache_after, &values);

  std::vector<const SpanLog*> logs = {&spans};
  for (const ClientLoad& l : traced_loads) logs.push_back(&l.spans);
  WriteSpans(args.spans_path, logs);
  RemoveDir(args.work_dir);
  EmitLayerMetrics(values, report);
  return 0;
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  return args.trace ? RunTraced(args, report) : RunTimed(args, report);
}

}  // namespace perfbench
