// Durable-dispatch recovery gates (no paper figure — the durability rung of
// the ROADMAP): event-sourced WAL + snapshot restore, proven end to end.
//
// Part 1 (gate): for K ∈ {1, 4} shards, a run where one shard is destroyed
// at the midpoint window and rebuilt from its latest snapshot + WAL replay
// must finish with a WindowResult fingerprint bit-identical to an
// uninterrupted golden run. Exit status is nonzero on any divergence, so CI
// treats a recovery regression as a build break.
//
// Part 2 (cost): the same runs report what durability costs — WAL and
// snapshot bytes at the kill point, records/windows replayed, and the
// restore wall clock — into BENCH_recovery.json (--out=PATH), the artifact
// CI uploads next to the other bench JSONs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/support.h"
#include "common/flags.h"
#include "common/strings.h"

namespace fm::bench {
namespace {

std::uint64_t DirBytesWithExtension(const std::string& dir,
                                    const std::string& ext) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) total += entry.file_size();
  }
  return total;
}

struct RecoveryEntry {
  int shards = 1;
  int kill_shard = 0;
  std::uint64_t kill_window = 0;
  std::uint64_t windows = 0;
  bool snapshot_loaded = false;
  std::uint64_t records_valid = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t windows_replayed = 0;
  std::uint64_t trailing_events = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  double restore_wall_s = 0.0;
  std::uint64_t fingerprint = 0;
};

bool WriteRecoveryJson(const std::string& path,
                       const std::vector<RecoveryEntry>& entries) {
  BenchJsonDoc doc("foodmatch-recovery-v1", "bench_recovery");
  for (const RecoveryEntry& e : entries) {
    doc.AddEntry(StrFormat(
        "{\"shards\": %d, \"kill_shard\": %d, \"kill_window\": %llu, "
        "\"windows\": %llu,\n"
        "     \"snapshot_loaded\": %s, \"records_valid\": %llu, "
        "\"records_replayed\": %llu,\n"
        "     \"windows_replayed\": %llu, \"trailing_events\": %llu,\n"
        "     \"wal_bytes\": %llu, \"snapshot_bytes\": %llu, "
        "\"restore_wall_s\": %.6f,\n"
        "     \"fingerprint\": \"%016llx\"}",
        e.shards, e.kill_shard,
        static_cast<unsigned long long>(e.kill_window),
        static_cast<unsigned long long>(e.windows),
        e.snapshot_loaded ? "true" : "false",
        static_cast<unsigned long long>(e.records_valid),
        static_cast<unsigned long long>(e.records_replayed),
        static_cast<unsigned long long>(e.windows_replayed),
        static_cast<unsigned long long>(e.trailing_events),
        static_cast<unsigned long long>(e.wal_bytes),
        static_cast<unsigned long long>(e.snapshot_bytes), e.restore_wall_s,
        static_cast<unsigned long long>(e.fingerprint)));
  }
  return doc.Write(path);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out", "BENCH_recovery.json");
  PrintBanner("Durable dispatch — kill-restore recovery gates",
              "snapshot + WAL replay rebuilds a shard bit-identically");

  const Seconds start = 12.0 * 3600.0;
  const Seconds end = 13.0 * 3600.0;
  const Seconds delta = 120.0;

  Lab lab;
  RunSpec spec;
  spec.profile = BenchCityA();
  spec.start_time = start;
  spec.end_time = end;
  const Lab::Entry& entry = lab.Get(spec);
  const Workload& w = entry.workload;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(w.fleet, w.orders, start);
  std::printf(
      "Kill-restore gate (City A, %zu orders, %zu vehicles, foodmatch):\n"
      "one shard destroyed at the midpoint window, restored from\n"
      "snapshot + WAL, run finished — fingerprint must equal the\n"
      "uninterrupted golden.\n\n",
      w.orders.size(), w.fleet.size());

  std::vector<RecoveryEntry> entries;
  TablePrinter table({"shards", "kill@win", "snapshot", "replayed(rec)",
                      "replayed(win)", "wal(KiB)", "snap(KiB)",
                      "restore(ms)"});
  for (int shards : {1, 4}) {
    Config config;
    config.accumulation_window = delta;
    config.shards = shards;
    config.snapshot_every_windows = 4;
    config.Validate();
    GridRegionPartitioner partitioner(&w.network, shards);

    // Golden: uninterrupted, durability off.
    ShardedEngineOptions golden_options;
    golden_options.engine.measure_wall_clock = false;
    ShardedDispatchEngine golden(&partitioner, "foodmatch",
                                 entry.oracle.get(), config, PolicyOptions{},
                                 golden_options);
    const std::uint64_t expected = FingerprintWindowResults(
        ReplayEventStream(golden, events, start, end, delta));

    // Durable run: kill the highest shard at the midpoint window.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fm-bench-recovery-k" + std::to_string(shards)))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ShardedEngineOptions options;
    options.engine.measure_wall_clock = false;
    options.durability.dir = dir;
    options.durability.snapshot_every_windows =
        config.snapshot_every_windows;
    ShardedDispatchEngine durable(&partitioner, "foodmatch",
                                  entry.oracle.get(), config, PolicyOptions{},
                                  options);

    const std::uint64_t total_windows =
        static_cast<std::uint64_t>((end - start) / delta);
    RecoveryEntry e;
    e.shards = shards;
    e.kill_shard = shards - 1;
    // Off the snapshot cadence so the restore must replay WAL records past
    // the snapshot, not just load it.
    e.kill_window = total_windows / 2 + 2;
    e.windows = total_windows;

    bool restored = false;
    const std::vector<WindowResult> results = ReplayEventStream(
        durable, events, start, end, delta,
        [&](Seconds, std::size_t window_index) {
          if (restored || window_index != e.kill_window) return;
          restored = true;
          e.wal_bytes = DirBytesWithExtension(dir, ".seg");
          e.snapshot_bytes = DirBytesWithExtension(dir, ".snap");
          const auto t0 = std::chrono::steady_clock::now();
          const RecoveryReport report = durable.RestoreShard(e.kill_shard);
          e.restore_wall_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
          e.snapshot_loaded = report.snapshot_loaded;
          e.records_valid = report.records_valid;
          e.records_replayed = report.records_replayed;
          e.windows_replayed = report.windows_replayed;
          e.trailing_events = report.trailing_events;
        });
    std::filesystem::remove_all(dir);
    if (!restored) {
      std::fprintf(stderr, "RECOVERY GATE BROKEN: kill window %llu never "
                           "reached (K=%d)\n",
                   static_cast<unsigned long long>(e.kill_window), shards);
      return 1;
    }
    e.fingerprint = FingerprintWindowResults(results);
    if (e.fingerprint != expected) {
      std::fprintf(stderr,
                   "RECOVERY GATE VIOLATION: K=%d killed+restored run "
                   "fingerprint %016llx != uninterrupted golden %016llx\n",
                   shards, static_cast<unsigned long long>(e.fingerprint),
                   static_cast<unsigned long long>(expected));
      return 1;
    }
    std::printf("  K=%d ok (%016llx)\n", shards,
                static_cast<unsigned long long>(e.fingerprint));
    entries.push_back(e);
    table.AddRow({Fmt(shards, 0), Fmt(static_cast<double>(e.kill_window), 0),
                  e.snapshot_loaded ? "yes" : "no",
                  Fmt(static_cast<double>(e.records_replayed), 0),
                  Fmt(static_cast<double>(e.windows_replayed), 0),
                  Fmt(e.wal_bytes / 1024.0, 1),
                  Fmt(e.snapshot_bytes / 1024.0, 1),
                  Fmt(e.restore_wall_s * 1e3, 2)});
  }
  std::printf("\n");
  table.Print();

  if (!WriteRecoveryJson(out_path, entries)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nrecovery gates: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fm::bench

int main(int argc, char** argv) { return fm::bench::Main(argc, argv); }
