// bench_concurrent_reads: parallel vs serialized cold reads through
// the storage engine.
//
// A database of gold trees is built once, then read back by 8 threads
// -- each thread cold-binds its own trees (OpenTree: tree rows, label
// blobs) and exports them with their sequences (ExportNexus: species
// rows), i.e. exactly the storage-read mix ExecuteBatch workers and
// experiment EvalState builds generate. The same workload runs twice
// on fresh sessions:
//
//   serialized -- a bench-owned mutex is held around each cold-read
//                 task (OpenTree + ExportNexus), so the tasks run one
//                 at a time as under a single-lock engine;
//   shared     -- the default path: shared storage lock + Database
//                 read epochs + latched buffer pool, so cold misses
//                 from different threads overlap in the pager.
//
// A fixed injected latency on every page read (--read-delay-us,
// default 400us, modelling a cold random read from networked block
// storage) makes the contrast deterministic across machines --
// including single-core CI boxes, because overlapping *sleeps* need
// concurrency in the lock discipline, not extra cores. Raw no-delay
// numbers are reported alongside.
//
// Byte identity: after the timed phase both sessions execute all six
// query kinds per tree; every rendering and every NEXUS export must
// be identical across the two modes.
//
// A final overlap phase measures snapshot-read liveness: one thread
// bulk-stores a large tree (--writer-leaves, default 8000) while this
// thread keeps exporting a bound tree, timing each read. MVCC page
// versions let the exports resolve against the last committed epoch,
// so reads keep completing at idle-grade latency through the store.
//
// Writes BENCH_concurrent_reads.json. With --gate, exits non-zero
// unless the shared path sustains >= 3x the serialized aggregate
// throughput at 8 threads (the CI smoke contract) with identity
// intact and at least 4 reads complete during the bulk store.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "storage/file.h"

namespace crimson {
namespace {

/// File wrapper adding a fixed latency to every Read, standing in for
/// a cold random page read from the device.
class SlowReadFile final : public File {
 public:
  SlowReadFile(std::unique_ptr<File> base, int delay_us)
      : base_(std::move(base)), delay_us_(delay_us) {}

  Status Read(uint64_t offset, size_t n, char* scratch) const override {
    if (delay_us_ > 0) {
      // Sleeping (not spinning) yields the core, exactly like a
      // blocked pread: threads whose reads are not serialized behind
      // a lock overlap their waits.
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(delay_us_);
      std::this_thread::sleep_until(until);
    }
    return base_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    return base_->Write(offset, data, n);
  }
  Status Sync() override { return base_->Sync(); }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t new_size) override {
    return base_->Truncate(new_size);
  }

 private:
  std::unique_ptr<File> base_;
  int delay_us_;
};

StorageEnv DelayedReadEnv(int delay_us) {
  StorageEnv env = PosixStorageEnv();
  auto open = env.open_file;
  env.open_file =
      [open, delay_us](
          const std::string& path) -> Result<std::unique_ptr<File>> {
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> f, open(path));
    return std::unique_ptr<File>(new SlowReadFile(std::move(f), delay_us));
  };
  return env;
}

std::string TreeName(int i) { return StrFormat("gold%d", i); }

/// All six query kinds against an n-leaf Yule tree (leaves S0..).
std::vector<QueryRequest> SixKinds(uint32_t n_leaves) {
  const std::string a = StrFormat("S%u", n_leaves / 5);
  const std::string b = StrFormat("S%u", n_leaves - 2);
  return {
      QueryRequest(LcaQuery{a, b}),
      QueryRequest(ProjectQuery{{"S0", "S1", a, b}}),
      QueryRequest(SampleUniformQuery{10}),
      QueryRequest(SampleTimeQuery{8, 0.5}),
      QueryRequest(CladeQuery{{"S2", "S3", a}}),
      QueryRequest(PatternQuery{"(S1,S2);", false}),
  };
}

bool BuildDatabase(const std::string& path, int n_trees, uint32_t n_leaves) {
  std::remove(path.c_str());
  CrimsonOptions opts;
  opts.db_path = path;
  auto session_or = Crimson::Open(opts);
  if (!session_or.ok()) return false;
  auto session = std::move(session_or).value();
  for (int i = 0; i < n_trees; ++i) {
    Rng rng(0xC01D + i);
    YuleOptions yule;
    yule.n_leaves = n_leaves;
    auto tree = SimulateYule(yule, &rng);
    if (!tree.ok()) return false;
    SeqEvolveOptions seq;
    seq.seq_length = 120;
    auto sequences = SequenceEvolver::Create(seq)->EvolveLeaves(*tree, &rng);
    if (!sequences.ok()) return false;
    if (!session->LoadTree(TreeName(i), *tree).ok()) return false;
    if (!session->AppendSpeciesData(TreeName(i), *sequences).ok()) {
      return false;
    }
  }
  return session->Flush().ok();
}

struct PhaseResult {
  double seconds = 0;        // timed parallel cold-read section
  double tasks_per_sec = 0;  // aggregate throughput over that section
  std::vector<std::string> nexus;              // per tree
  std::vector<std::vector<std::string>> six;   // per tree, per query kind
  bool ok = false;
};

/// One full workload pass on a fresh session: 8 threads cold-bind and
/// export disjoint tree subsets (timed), then the six query kinds run
/// per tree in a fixed order (identity material, untimed).
PhaseResult RunPhase(const std::string& path, bool serialize, int n_trees,
                     uint32_t n_leaves, int threads, int delay_us,
                     size_t pool_pages) {
  PhaseResult out;
  CrimsonOptions opts;
  opts.db_path = path;
  opts.buffer_pool_pages = pool_pages;
  opts.batch_workers = static_cast<size_t>(threads);
  opts.storage_env = DelayedReadEnv(delay_us);
  opts.seed = 42;
  auto session_or = Crimson::Open(opts);
  if (!session_or.ok()) {
    fprintf(stderr, "session open failed: %s\n",
            session_or.status().ToString().c_str());
    return out;
  }
  auto session = std::move(session_or).value();

  out.nexus.resize(n_trees);
  std::vector<TreeRef> refs(n_trees);
  std::atomic<int> failures{0};
  std::mutex serial_mu;  // the serialized baseline's one lock
  std::vector<std::thread> workers;
  workers.reserve(threads);
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = t; i < n_trees; i += threads) {
        std::unique_lock<std::mutex> serial(serial_mu, std::defer_lock);
        if (serialize) serial.lock();
        auto ref = session->OpenTree(TreeName(i));
        if (!ref.ok()) {
          ++failures;
          return;
        }
        refs[i] = *ref;
        auto doc = session->ExportNexus(*ref);
        if (!doc.ok()) {
          ++failures;
          return;
        }
        out.nexus[i] = std::move(*doc);
      }
    });
  }
  for (auto& w : workers) w.join();
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (failures.load() != 0) {
    fprintf(stderr, "cold-read task failed\n");
    return out;
  }
  out.tasks_per_sec = n_trees / out.seconds;

  // Identity material: per-tree batches in a fixed global order, so
  // both modes assign the same tickets (sampling draws included).
  std::vector<QueryRequest> requests = SixKinds(n_leaves);
  out.six.resize(n_trees);
  for (int i = 0; i < n_trees; ++i) {
    auto results = session->ExecuteBatch(refs[i], requests);
    for (auto& r : results) {
      if (!r.ok()) {
        fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
        return out;
      }
      out.six[i].push_back(RenderResult(*r));
    }
  }
  out.ok = true;
  return out;
}

bool Identical(const PhaseResult& a, const PhaseResult& b) {
  return a.nexus == b.nexus && a.six == b.six;
}

struct WriteOverlapResult {
  double write_seconds = 0;        // the bulk StoreTree transaction
  double idle_mean_ms = 0;         // mean read latency, quiet engine
  double during_mean_ms = 0;       // mean read latency, store in flight
  double during_max_ms = 0;        // worst single read during the store
  int64_t reads_during_write = 0;  // reads completed while store ran
  bool ok = false;
};

/// Snapshot-read liveness during a bulk write: one thread bulk-stores
/// a large tree while this thread keeps exporting an already-bound
/// tree. Under the MVCC snapshot path the exports resolve against the
/// last committed epoch (page versions, not the writer's lock), so
/// reads keep completing -- and keep their idle-grade latency --
/// for the whole store. Before snapshots, this loop would stall for
/// the entire transaction and complete ~0 reads.
WriteOverlapResult RunWriteOverlap(const std::string& path,
                                   uint32_t writer_leaves,
                                   size_t pool_pages) {
  WriteOverlapResult out;
  CrimsonOptions opts;
  opts.db_path = path;
  opts.buffer_pool_pages = pool_pages;
  opts.seed = 42;
  auto session_or = Crimson::Open(opts);
  if (!session_or.ok()) {
    fprintf(stderr, "overlap session open failed: %s\n",
            session_or.status().ToString().c_str());
    return out;
  }
  auto session = std::move(session_or).value();
  auto ref = session->OpenTree(TreeName(0));
  if (!ref.ok()) return out;

  // Simulate the writer's tree outside the measured window.
  Rng rng(0xB16);
  YuleOptions yule;
  yule.n_leaves = writer_leaves;
  auto big = SimulateYule(yule, &rng);
  if (!big.ok()) return out;

  auto one_read_ms = [&]() -> double {
    auto t0 = std::chrono::steady_clock::now();
    auto doc = session->ExportNexus(*ref);
    if (!doc.ok()) return -1;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  const int kIdleReads = 16;
  double idle_total = 0;
  for (int i = 0; i < kIdleReads; ++i) {
    double ms = one_read_ms();
    if (ms < 0) return out;
    idle_total += ms;
  }
  out.idle_mean_ms = idle_total / kIdleReads;

  std::atomic<bool> writer_done{false};
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    auto t0 = std::chrono::steady_clock::now();
    if (!session->LoadTree("bulkwrite", *big).ok()) {
      writer_ok.store(false, std::memory_order_release);
    }
    out.write_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    writer_done.store(true, std::memory_order_release);
  });
  double during_total = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    double ms = one_read_ms();
    if (ms < 0) {
      writer.join();
      return out;
    }
    during_total += ms;
    if (ms > out.during_max_ms) out.during_max_ms = ms;
    ++out.reads_during_write;
  }
  writer.join();
  if (out.reads_during_write > 0) {
    out.during_mean_ms = during_total / out.reads_during_write;
  }
  out.ok = writer_ok.load(std::memory_order_acquire);
  return out;
}

}  // namespace

int Run(int argc, char** argv) {
  int threads = 8;
  int n_trees = 32;
  uint32_t n_leaves = 96;
  int delay_us = 400;
  size_t pool_pages = 64;
  uint32_t writer_leaves = 8000;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--gate") == 0) gate = true;
    if (strncmp(argv[i], "--threads=", 10) == 0) threads = atoi(argv[i] + 10);
    if (strncmp(argv[i], "--trees=", 8) == 0) n_trees = atoi(argv[i] + 8);
    if (strncmp(argv[i], "--leaves=", 9) == 0) {
      n_leaves = static_cast<uint32_t>(atoi(argv[i] + 9));
    }
    if (strncmp(argv[i], "--read-delay-us=", 16) == 0) {
      delay_us = atoi(argv[i] + 16);
    }
    if (strncmp(argv[i], "--pool-pages=", 13) == 0) {
      pool_pages = static_cast<size_t>(atoi(argv[i] + 13));
    }
    if (strncmp(argv[i], "--writer-leaves=", 16) == 0) {
      writer_leaves = static_cast<uint32_t>(atoi(argv[i] + 16));
    }
  }

  const std::string path = "/tmp/crimson_bench_concurrent_reads.db";
  if (!BuildDatabase(path, n_trees, n_leaves)) {
    fprintf(stderr, "database build failed\n");
    return 1;
  }

  // Gated contrast under deterministic read latency.
  PhaseResult serialized = RunPhase(path, /*serialize=*/true, n_trees,
                                    n_leaves, threads, delay_us, pool_pages);
  PhaseResult shared = RunPhase(path, /*serialize=*/false, n_trees, n_leaves,
                                threads, delay_us, pool_pages);
  if (!serialized.ok || !shared.ok) return 1;
  double speedup =
      shared.seconds > 0 ? serialized.seconds / shared.seconds : 0;
  bool identical = Identical(serialized, shared);

  // Raw numbers without injected latency, for the curious.
  PhaseResult raw_serialized = RunPhase(path, true, n_trees, n_leaves,
                                        threads, 0, pool_pages);
  PhaseResult raw_shared = RunPhase(path, false, n_trees, n_leaves, threads,
                                    0, pool_pages);

  // Snapshot-read liveness while a bulk store is in flight.
  WriteOverlapResult overlap =
      RunWriteOverlap(path, writer_leaves, pool_pages);

  const int64_t kMinReadsDuringWrite = 4;
  const bool overlap_pass =
      overlap.ok && overlap.reads_during_write >= kMinReadsDuringWrite;
  const bool pass = speedup >= 3.0 && identical && overlap_pass;
  printf(
      "cold-read throughput, %d trees x %u leaves, %d threads, "
      "%dus injected read latency, %zu-page pool:\n"
      "  serialized (single lock) : %8.1f binds+exports/s  (%.3fs)\n"
      "  shared (latched pool)    : %8.1f binds+exports/s  (%.3fs, %.1fx)\n"
      "raw device (no injected latency):\n"
      "  serialized               : %8.1f binds+exports/s\n"
      "  shared                   : %8.1f binds+exports/s\n"
      "six-kind + NEXUS byte identity across modes: %s\n"
      "snapshot reads during a %u-leaf bulk store (%.3fs write):\n"
      "  completed during write   : %lld exports (idle mean %.2fms, "
      "during mean %.2fms, during max %.2fms)\n"
      "gate (shared >= 3x, identity, >= %lld reads during write): %s\n",
      n_trees, n_leaves, threads, delay_us, pool_pages,
      serialized.tasks_per_sec, serialized.seconds, shared.tasks_per_sec,
      shared.seconds, speedup,
      raw_serialized.ok ? raw_serialized.tasks_per_sec : 0,
      raw_shared.ok ? raw_shared.tasks_per_sec : 0,
      identical ? "OK" : "MISMATCH", writer_leaves, overlap.write_seconds,
      static_cast<long long>(overlap.reads_during_write),
      overlap.idle_mean_ms, overlap.during_mean_ms, overlap.during_max_ms,
      static_cast<long long>(kMinReadsDuringWrite), pass ? "PASS" : "FAIL");

  FILE* json = fopen("BENCH_concurrent_reads.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"threads\": %d,\n"
            "  \"trees\": %d,\n"
            "  \"leaves\": %u,\n"
            "  \"read_delay_us\": %d,\n"
            "  \"pool_pages\": %zu,\n"
            "  \"serialized_tasks_per_sec\": %.2f,\n"
            "  \"shared_tasks_per_sec\": %.2f,\n"
            "  \"shared_speedup\": %.2f,\n"
            "  \"raw_serialized_tasks_per_sec\": %.2f,\n"
            "  \"raw_shared_tasks_per_sec\": %.2f,\n"
            "  \"byte_identical\": %s,\n"
            "  \"writer_leaves\": %u,\n"
            "  \"write_seconds\": %.3f,\n"
            "  \"reads_during_write\": %lld,\n"
            "  \"read_ms_idle_mean\": %.3f,\n"
            "  \"read_ms_during_write_mean\": %.3f,\n"
            "  \"read_ms_during_write_max\": %.3f,\n"
            "  \"gate_min_reads_during_write\": %lld,\n"
            "  \"gate_min_speedup\": 3.0,\n"
            "  \"pass\": %s\n"
            "}\n",
            threads, n_trees, n_leaves, delay_us, pool_pages,
            serialized.tasks_per_sec, shared.tasks_per_sec, speedup,
            raw_serialized.ok ? raw_serialized.tasks_per_sec : 0.0,
            raw_shared.ok ? raw_shared.tasks_per_sec : 0.0,
            identical ? "true" : "false", writer_leaves,
            overlap.write_seconds,
            static_cast<long long>(overlap.reads_during_write),
            overlap.idle_mean_ms, overlap.during_mean_ms,
            overlap.during_max_ms,
            static_cast<long long>(kMinReadsDuringWrite),
            pass ? "true" : "false");
    fclose(json);
  }

  std::remove(path.c_str());
  if (gate && !pass) {
    fprintf(stderr,
            "GATE FAILURE: speedup %.2fx < 3.0x, identity broken, or only "
            "%lld reads completed during the bulk store (need >= %lld)\n",
            speedup, static_cast<long long>(overlap.reads_during_write),
            static_cast<long long>(kMinReadsDuringWrite));
    return 1;
  }
  return 0;
}

}  // namespace crimson

int main(int argc, char** argv) { return crimson::Run(argc, argv); }
