// bench_wal: group commit vs per-commit fsync on the write-ahead log.
//
// Eight writer threads each run minimal transactions (header image +
// commit record + durable sync) as fast as they can. In per-commit
// mode every committer issues its own fdatasync; in group mode
// concurrent committers coalesce behind one leader sync (Wal::Sync
// with group=true). A fixed artificial sync latency (--sync-delay-us,
// default 200us, modelling a fast SSD flush) makes the contrast
// deterministic across machines; raw no-delay numbers are reported
// alongside.
//
// Writes BENCH_wal.json. With --gate, exits non-zero unless group
// commit sustains >= 5x the per-commit-fsync throughput at 8 threads
// under the injected latency (the CI smoke contract).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/string_util.h"
#include "storage/wal.h"

namespace crimson {
namespace {

/// File wrapper that adds a fixed latency to every Sync, standing in
/// for device flush time.
class SlowSyncFile final : public File {
 public:
  SlowSyncFile(std::unique_ptr<File> base, int delay_us)
      : base_(std::move(base)), delay_us_(delay_us) {}

  Status Read(uint64_t offset, size_t n, char* scratch) const override {
    return base_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    return base_->Write(offset, data, n);
  }
  Status Sync() override {
    if (delay_us_ > 0) {
      // Sleeping yields the core so concurrent committers keep
      // queueing behind the in-flight sync -- exactly how a real
      // device flush behaves.
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(delay_us_);
      std::this_thread::sleep_until(until);
    }
    return base_->Sync();
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t new_size) override {
    return base_->Truncate(new_size);
  }

 private:
  std::unique_ptr<File> base_;
  int delay_us_;
};

StorageEnv DelayedEnv(int delay_us) {
  StorageEnv env = PosixStorageEnv();
  auto open = env.open_file;
  env.open_file =
      [open, delay_us](
          const std::string& path) -> Result<std::unique_ptr<File>> {
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> f, open(path));
    return std::unique_ptr<File>(new SlowSyncFile(std::move(f), delay_us));
  };
  return env;
}

/// Commits/sec over `duration_ms` with `threads` writers.
double RunMode(const std::string& dir, bool group, int threads,
               int duration_ms, int delay_us, int window_us) {
  WalOptions opts;
  opts.segment_bytes = 256ull << 20;  // no rotation mid-bench
  opts.group_window_us = static_cast<uint64_t>(window_us);
  obs::MetricsRegistry metrics;
  auto wal_or = Wal::Open(dir + "/wal", DelayedEnv(delay_us), opts, &metrics);
  if (!wal_or.ok()) {
    fprintf(stderr, "wal open failed: %s\n",
            wal_or.status().ToString().c_str());
    return 0;
  }
  Wal* wal = wal_or->get();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t txn = static_cast<uint64_t>(t) << 32;
      while (!stop.load(std::memory_order_relaxed)) {
        auto header = wal->AppendHeaderImage(1, 0, 0);
        if (!header.ok()) { failed = true; return; }
        auto lsn = wal->AppendCommit(++txn);
        if (!lsn.ok() || !wal->Sync(*lsn, group).ok()) {
          failed = true;
          return;
        }
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop = true;
  for (auto& w : workers) w.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (failed.load()) {
    fprintf(stderr, "wal commit failed mid-bench\n");
    return 0;
  }
  return static_cast<double>(commits.load()) / seconds;
}

}  // namespace

int Run(int argc, char** argv) {
  int threads = 8;
  int duration_ms = 400;
  int delay_us = 200;
  int window_us = 150;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--gate") == 0) gate = true;
    if (strncmp(argv[i], "--threads=", 10) == 0) threads = atoi(argv[i] + 10);
    if (strncmp(argv[i], "--duration-ms=", 14) == 0) {
      duration_ms = atoi(argv[i] + 14);
    }
    if (strncmp(argv[i], "--sync-delay-us=", 16) == 0) {
      delay_us = atoi(argv[i] + 16);
    }
    if (strncmp(argv[i], "--group-window-us=", 18) == 0) {
      window_us = atoi(argv[i] + 18);
    }
  }

  char dir_template[] = "/tmp/crimson_bench_wal_XXXXXX";
  char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dirs(dir);

  // Gated contrast under deterministic sync latency.
  double commit_cps = RunMode(dirs, /*group=*/false, threads, duration_ms,
                              delay_us, window_us);
  double group_cps = RunMode(dirs, /*group=*/true, threads, duration_ms,
                             delay_us, window_us);
  double speedup = commit_cps > 0 ? group_cps / commit_cps : 0;
  // Raw numbers on the actual device, for the curious.
  double raw_commit_cps =
      RunMode(dirs, /*group=*/false, threads, duration_ms / 2, 0, window_us);
  double raw_group_cps =
      RunMode(dirs, /*group=*/true, threads, duration_ms / 2, 0, window_us);

  const bool pass = speedup >= 5.0;
  printf("wal commit throughput, %d threads, %dus injected sync latency:\n"
         "  per-commit fsync : %10.0f commits/s\n"
         "  group commit     : %10.0f commits/s  (%.1fx)\n"
         "raw device (no injected latency):\n"
         "  per-commit fsync : %10.0f commits/s\n"
         "  group commit     : %10.0f commits/s\n"
         "gate (group >= 5x): %s\n",
         threads, delay_us, commit_cps, group_cps, speedup, raw_commit_cps,
         raw_group_cps, pass ? "PASS" : "FAIL");

  FILE* json = fopen("BENCH_wal.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"threads\": %d,\n"
            "  \"duration_ms\": %d,\n"
            "  \"sync_delay_us\": %d,\n"
            "  \"per_commit_fsync_cps\": %.1f,\n"
            "  \"group_commit_cps\": %.1f,\n"
            "  \"group_commit_speedup\": %.2f,\n"
            "  \"raw_per_commit_fsync_cps\": %.1f,\n"
            "  \"raw_group_commit_cps\": %.1f,\n"
            "  \"gate_min_speedup\": 5.0,\n"
            "  \"pass\": %s\n"
            "}\n",
            threads, duration_ms, delay_us, commit_cps, group_cps, speedup,
            raw_commit_cps, raw_group_cps, pass ? "true" : "false");
    fclose(json);
  }

  // Best-effort cleanup of the temp WAL dir.
  for (uint32_t idx = 1; idx < 16; ++idx) {
    RemoveFile(WalSegmentPath(dirs + "/wal", idx));
  }
  rmdir(dirs.c_str());

  return gate && !pass ? 1 : 0;
}

}  // namespace crimson

int main(int argc, char** argv) { return crimson::Run(argc, argv); }
