// Crash recovery: WAL + snapshot codec round trips (randomized streams,
// byte-exact re-encode, rotation boundaries), the fault-injection contract
// (torn tails recover to the last durable window; corruption dies loudly,
// never silently diverges), engine resident-state capture/restore, and the
// kill-restore-fingerprint gates: a shard killed at a random window and
// restored from snapshot + WAL finishes the run bit-identical to an
// uninterrupted golden, for K ∈ {1, 4}.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dispatch_engine.h"
#include "core/policy_registry.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "gen/city_gen.h"
#include "graph/distance_oracle.h"
#include "model/config.h"
#include "serving/event_source.h"
#include "serving/region_partitioner.h"
#include "serving/sharded_dispatch_engine.h"

namespace fm {
namespace {

// A fresh directory under the test temp root (wiped on entry, so reruns
// never see a previous process's files).
std::string TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::vector<unsigned char> bytes(
      static_cast<std::size_t>(std::filesystem::file_size(path)));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// ---- Randomized model values for the codec property tests ----

Order RandomOrder(Rng& rng) {
  Order o;
  o.id = static_cast<OrderId>(rng.UniformInt(100000));
  o.restaurant = static_cast<NodeId>(rng.UniformInt(5000));
  o.customer = static_cast<NodeId>(rng.UniformInt(5000));
  o.placed_at = rng.UniformRange(0.0, 86400.0);
  o.prep_time = rng.UniformRange(0.0, 1800.0);
  o.items = rng.UniformIntRange(1, 6);
  return o;
}

VehicleSnapshot RandomSnapshot(Rng& rng) {
  VehicleSnapshot v;
  v.id = static_cast<VehicleId>(rng.UniformInt(10000));
  v.location = static_cast<NodeId>(rng.UniformInt(5000));
  v.next_destination = static_cast<NodeId>(rng.UniformInt(5000));
  const int picked = static_cast<int>(rng.UniformInt(3));
  const int unpicked = static_cast<int>(rng.UniformInt(3));
  for (int i = 0; i < picked; ++i) v.picked.push_back(RandomOrder(rng));
  for (int i = 0; i < unpicked; ++i) v.unpicked.push_back(RandomOrder(rng));
  return v;
}

WalRecord RandomRecord(Rng& rng, std::uint64_t sequence) {
  WalRecord record;
  if (rng.UniformInt(5) == 0) {
    record.kind = WalRecord::Kind::kWindow;
    record.window_now = rng.UniformRange(0.0, 86400.0);
    return record;
  }
  record.kind = WalRecord::Kind::kEvent;
  record.event.timestamp = rng.UniformRange(0.0, 86400.0);
  record.event.sequence = sequence;
  switch (rng.UniformInt(4)) {
    case 0:
      record.event.event = OrderPlaced{RandomOrder(rng)};
      break;
    case 1:
      record.event.event =
          VehicleStateUpdate{RandomSnapshot(rng), rng.UniformInt(2) == 0};
      break;
    case 2:
      record.event.event =
          OrderDelivered{static_cast<OrderId>(rng.UniformInt(100000)),
                         static_cast<VehicleId>(rng.UniformInt(10000))};
      break;
    default:
      record.event.event =
          VehicleRetired{static_cast<VehicleId>(rng.UniformInt(10000))};
      break;
  }
  return record;
}

// ---- Payload codec: round trips and byte-exact re-encode ----

TEST(WalCodecTest, RandomizedRecordsRoundTripByteExactly) {
  Rng rng(20260808);
  for (int i = 0; i < 500; ++i) {
    const WalRecord record = RandomRecord(rng, static_cast<std::uint64_t>(i));
    BinaryWriter w;
    EncodeWalRecord(w, record);
    BinaryReader r(w.buffer());
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(r, &decoded));
    ASSERT_TRUE(r.exhausted());
    EXPECT_TRUE(WalRecordsEqual(record, decoded));
    // Re-encoding the decoded record must reproduce the exact bytes — the
    // codec is canonical, so fingerprints over encodings are well-defined.
    BinaryWriter w2;
    EncodeWalRecord(w2, decoded);
    EXPECT_EQ(w.buffer(), w2.buffer());
  }
}

TEST(WalCodecTest, TruncatedPayloadsNeverDecodeCleanly) {
  Rng rng(777);
  for (int i = 0; i < 50; ++i) {
    const WalRecord record = RandomRecord(rng, static_cast<std::uint64_t>(i));
    BinaryWriter w;
    EncodeWalRecord(w, record);
    for (std::size_t cut = 0; cut < w.size(); ++cut) {
      BinaryReader r(w.buffer().data(), cut);
      WalRecord decoded;
      // A strict prefix either fails to decode or leaves bytes unconsumed
      // relative to a full record — it can never pass for a whole one.
      EXPECT_FALSE(DecodeWalRecord(r, &decoded) && r.position() == w.size());
    }
  }
}

TEST(WalCodecTest, UnknownTagsAreRejected) {
  BinaryWriter w;
  w.AppendU8(0x7F);  // neither kEvent nor kWindow
  BinaryReader r(w.buffer());
  WalRecord record;
  EXPECT_FALSE(DecodeWalRecord(r, &record));
}

// ---- Writer/reader: segments, rotation, empty logs ----

TEST(WalWriterTest, EmptyDirectoryReadsAsEmptyLog) {
  const std::string dir = TestDir("wal-empty");
  const WalReadResult result = ReadShardWal(dir, 0);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.segments, 0u);
  EXPECT_FALSE(result.torn_tail);
  // A directory that does not exist at all is also an empty log.
  const WalReadResult missing = ReadShardWal(dir + "-missing", 0);
  EXPECT_TRUE(missing.records.empty());
}

TEST(WalWriterTest, RoundTripsAcrossSegmentRotation) {
  const std::string dir = TestDir("wal-rotate");
  Rng rng(31337);
  std::vector<WalRecord> appended;
  {
    // Tiny segments force rotation every few records; syncing after each
    // "window" (every 7 records) exercises the rotate-on-sync boundary.
    WalWriter writer(dir, /*shard=*/3, /*segment_bytes=*/256);
    for (int i = 0; i < 120; ++i) {
      WalRecord record = RandomRecord(rng, static_cast<std::uint64_t>(i));
      writer.Append(record);
      appended.push_back(std::move(record));
      if (i % 7 == 6) writer.Sync();
    }
  }
  const WalReadResult result = ReadShardWal(dir, 3);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_GT(result.segments, 1u);  // rotation actually happened
  ASSERT_EQ(result.records.size(), appended.size());
  for (std::size_t i = 0; i < appended.size(); ++i) {
    EXPECT_TRUE(WalRecordsEqual(appended[i], result.records[i])) << i;
  }
  // Logs are per shard: shard 0 sees nothing of shard 3's stream.
  EXPECT_TRUE(ReadShardWal(dir, 0).records.empty());
}

TEST(WalWriterTest, RemoveShardDurabilityFilesWipesOnlyThatShard) {
  const std::string dir = TestDir("wal-wipe");
  Rng rng(5);
  for (int shard : {0, 1}) {
    WalWriter writer(dir, shard, 1u << 20);
    writer.Append(RandomRecord(rng, 0));
    writer.Sync();
  }
  RemoveShardDurabilityFiles(dir, 0);
  EXPECT_TRUE(ReadShardWal(dir, 0).records.empty());
  EXPECT_EQ(ReadShardWal(dir, 1).records.size(), 1u);
}

// ---- Fault injection ----

// Wraps a WalWriter and, after closing it, mutates the finished log the way
// a crash (torn tail, truncation) or disk corruption (bit flip) would.
class FaultInjectingWal {
 public:
  FaultInjectingWal(std::string dir, int shard, std::size_t segment_bytes)
      : dir_(std::move(dir)),
        shard_(shard),
        writer_(std::make_unique<WalWriter>(dir_, shard, segment_bytes)) {}

  WalWriter& writer() { return *writer_; }

  // Flushes and closes the writer; faults are injected on the closed files.
  void Close() { writer_.reset(); }

  std::string SegmentPath(std::uint32_t segment) const {
    return WalSegmentPath(dir_, shard_, segment);
  }

  std::uint32_t TailSegment() const {
    std::uint32_t tail = 0;
    while (std::filesystem::exists(SegmentPath(tail + 1))) ++tail;
    return tail;
  }

  // A crash mid-append: garbage bytes past the last durable frame.
  void TearTail(std::size_t garbage_bytes) {
    std::vector<unsigned char> bytes = ReadFileBytes(SegmentPath(TailSegment()));
    for (std::size_t i = 0; i < garbage_bytes; ++i) {
      bytes.push_back(static_cast<unsigned char>(0xC0 + i));
    }
    WriteFileBytes(SegmentPath(TailSegment()), bytes);
  }

  // A crash mid-write acknowledged short: the file loses its last bytes.
  void TruncateSegment(std::uint32_t segment, std::size_t drop_bytes) {
    const std::string path = SegmentPath(segment);
    const std::uint64_t size = std::filesystem::file_size(path);
    ASSERT_GT(size, drop_bytes);
    std::filesystem::resize_file(path, size - drop_bytes);
  }

  // Silent media corruption: one byte flipped in place.
  void FlipByte(std::uint32_t segment, std::size_t offset) {
    const std::string path = SegmentPath(segment);
    std::vector<unsigned char> bytes = ReadFileBytes(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] ^= 0x40;
    WriteFileBytes(path, bytes);
  }

 private:
  std::string dir_;
  int shard_;
  std::unique_ptr<WalWriter> writer_;
};

// Appends `count` records with a window marker + sync every `per_window`,
// returning what was appended.
std::vector<WalRecord> FillWal(WalWriter& writer, Rng& rng, int count,
                               int per_window) {
  std::vector<WalRecord> appended;
  for (int i = 0; i < count; ++i) {
    WalRecord record;
    if (i % per_window == per_window - 1) {
      record.kind = WalRecord::Kind::kWindow;
      record.window_now = 1000.0 * (i / per_window + 1);
    } else {
      record = RandomRecord(rng, static_cast<std::uint64_t>(i));
      record.kind = WalRecord::Kind::kEvent;  // markers only on the cadence
    }
    writer.Append(record);
    appended.push_back(record);
    if (record.kind == WalRecord::Kind::kWindow) writer.Sync();
  }
  return appended;
}

TEST(WalFaultTest, TornTailRecoversToLastDurableRecord) {
  for (const std::size_t garbage : {1u, 5u, 11u, 40u}) {
    SCOPED_TRACE(garbage);
    const std::string dir = TestDir("wal-torn-" + std::to_string(garbage));
    Rng rng(99);
    FaultInjectingWal wal(dir, 0, 1u << 20);
    const std::vector<WalRecord> appended = FillWal(wal.writer(), rng, 40, 5);
    wal.Close();
    wal.TearTail(garbage);

    const WalReadResult result = ReadShardWal(dir, 0);
    EXPECT_TRUE(result.torn_tail);
    EXPECT_FALSE(result.diagnostic.empty());
    ASSERT_EQ(result.records.size(), appended.size());  // garbage dropped
    for (std::size_t i = 0; i < appended.size(); ++i) {
      EXPECT_TRUE(WalRecordsEqual(appended[i], result.records[i])) << i;
    }
  }
}

TEST(WalFaultTest, TruncatedFinalFrameIsATornTailNotCorruption) {
  const std::string dir = TestDir("wal-trunc-tail");
  Rng rng(123);
  FaultInjectingWal wal(dir, 0, 1u << 20);
  const std::vector<WalRecord> appended = FillWal(wal.writer(), rng, 30, 5);
  wal.Close();
  wal.TruncateSegment(wal.TailSegment(), 3);

  const WalReadResult result = ReadShardWal(dir, 0);
  EXPECT_TRUE(result.torn_tail);
  // Exactly the last record is lost; everything durable before it survives.
  ASSERT_EQ(result.records.size(), appended.size() - 1);
  for (std::size_t i = 0; i + 1 < appended.size(); ++i) {
    EXPECT_TRUE(WalRecordsEqual(appended[i], result.records[i])) << i;
  }
}

TEST(WalFaultDeathTest, BitFlippedChecksumDiesLoudly) {
  const std::string dir = TestDir("wal-flip");
  Rng rng(321);
  FaultInjectingWal wal(dir, 0, 1u << 20);
  FillWal(wal.writer(), rng, 30, 5);
  wal.Close();
  // Flip a payload byte of the FIRST frame — a complete frame, so this is
  // corruption, never mistakable for a torn write.
  wal.FlipByte(0, 16 + 12 + 2);  // segment header + frame header + 2

  EXPECT_DEATH(ReadShardWal(dir, 0), "checksum mismatch");
}

TEST(WalFaultDeathTest, TruncatedNonFinalSegmentDiesLoudly) {
  const std::string dir = TestDir("wal-trunc-mid");
  Rng rng(456);
  FaultInjectingWal wal(dir, 0, /*segment_bytes=*/256);
  FillWal(wal.writer(), rng, 120, 5);
  wal.Close();
  ASSERT_GT(wal.TailSegment(), 0u);  // rotation produced several segments
  wal.TruncateSegment(0, 3);

  EXPECT_DEATH(ReadShardWal(dir, 0), "non-final WAL segment");
}

TEST(WalFaultDeathTest, SegmentNumberingGapDiesLoudly) {
  const std::string dir = TestDir("wal-gap");
  Rng rng(654);
  FaultInjectingWal wal(dir, 0, /*segment_bytes=*/256);
  FillWal(wal.writer(), rng, 120, 5);
  wal.Close();
  ASSERT_GT(wal.TailSegment(), 1u);
  std::filesystem::remove(wal.SegmentPath(1));

  EXPECT_DEATH(ReadShardWal(dir, 0), "gap in WAL segment numbering");
}

// ---- Snapshots ----

EngineSnapshot RandomEngineSnapshot(Rng& rng, std::uint32_t shard,
                                    std::uint64_t windows) {
  EngineSnapshot snapshot;
  snapshot.shard = shard;
  snapshot.window_now = rng.UniformRange(0.0, 86400.0);
  snapshot.windows_closed = windows;
  snapshot.last_applied_record = rng.UniformInt(100000);
  const int pool = static_cast<int>(rng.UniformInt(10));
  for (int i = 0; i < pool; ++i) {
    snapshot.state.pool.push_back(RandomOrder(rng));
  }
  const int vehicles = static_cast<int>(rng.UniformInt(6));
  for (int i = 0; i < vehicles; ++i) {
    snapshot.state.vehicles.push_back(
        {RandomSnapshot(rng), rng.UniformInt(2) == 0});
  }
  const int assigned = static_cast<int>(rng.UniformInt(8));
  for (int i = 0; i < assigned; ++i) {
    snapshot.state.ever_assigned.push_back(
        static_cast<OrderId>(rng.UniformInt(100000)));
  }
  std::sort(snapshot.state.ever_assigned.begin(),
            snapshot.state.ever_assigned.end());
  return snapshot;
}

TEST(SnapshotTest, RandomizedSnapshotsRoundTripByteExactly) {
  Rng rng(2021);
  for (int i = 0; i < 200; ++i) {
    const EngineSnapshot snapshot =
        RandomEngineSnapshot(rng, static_cast<std::uint32_t>(i % 4),
                             static_cast<std::uint64_t>(i));
    BinaryWriter w;
    EncodeEngineSnapshot(w, snapshot);
    BinaryReader r(w.buffer());
    EngineSnapshot decoded;
    ASSERT_TRUE(DecodeEngineSnapshot(r, &decoded));
    ASSERT_TRUE(r.exhausted());
    EXPECT_EQ(snapshot, decoded);
    BinaryWriter w2;
    EncodeEngineSnapshot(w2, decoded);
    EXPECT_EQ(w.buffer(), w2.buffer());
  }
}

TEST(SnapshotTest, DiskRoundTripFindLatestAndPrune) {
  const std::string dir = TestDir("snap-roundtrip");
  Rng rng(11);
  for (std::uint64_t windows : {4ull, 8ull, 12ull}) {
    WriteSnapshotFile(dir, RandomEngineSnapshot(rng, 0, windows));
  }
  // A different shard's snapshots never interfere.
  WriteSnapshotFile(dir, RandomEngineSnapshot(rng, 1, 99));

  std::string path;
  std::uint64_t windows = 0;
  ASSERT_TRUE(FindLatestSnapshot(dir, 0, &path, &windows));
  EXPECT_EQ(windows, 12u);
  const EngineSnapshot loaded = ReadSnapshotFile(path);
  EXPECT_EQ(loaded.shard, 0u);
  EXPECT_EQ(loaded.windows_closed, 12u);

  PruneSnapshots(dir, 0, 2);
  EXPECT_FALSE(std::filesystem::exists(SnapshotPath(dir, 0, 4)));
  EXPECT_TRUE(std::filesystem::exists(SnapshotPath(dir, 0, 8)));
  EXPECT_TRUE(std::filesystem::exists(SnapshotPath(dir, 0, 12)));
  EXPECT_TRUE(std::filesystem::exists(SnapshotPath(dir, 1, 99)));

  ASSERT_TRUE(FindLatestSnapshot(dir, 1, &path, &windows));
  EXPECT_EQ(windows, 99u);
  EXPECT_FALSE(FindLatestSnapshot(dir, 7, &path, &windows));
}

TEST(SnapshotDeathTest, CorruptSnapshotRefusesToRestore) {
  const std::string dir = TestDir("snap-corrupt");
  Rng rng(13);
  const EngineSnapshot snapshot = RandomEngineSnapshot(rng, 0, 8);
  WriteSnapshotFile(dir, snapshot);
  const std::string path = SnapshotPath(dir, 0, 8);
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 25u);
  bytes[24] ^= 0x01;  // first payload byte (after u64 magic, u32 len, u64 sum)
  WriteFileBytes(path, bytes);

  EXPECT_DEATH(ReadSnapshotFile(path), "checksum mismatch");
}

TEST(ConfigDeathTest, SnapshotCadenceMustBePositive) {
  Config config;
  config.snapshot_every_windows = 0;
  EXPECT_DEATH(config.Validate(), "snapshot_every_windows >= 1");
  config.snapshot_every_windows = -3;
  EXPECT_DEATH(config.Validate(), "snapshot_every_windows >= 1");
}

// ---- Engine resident state and the kill-restore gates ----

struct Scenario {
  RoadNetwork network;
  std::vector<Vehicle> fleet;
  std::vector<Order> orders;
};

Scenario MakeScenario(std::uint64_t seed, int num_vehicles, int num_orders,
                      Seconds horizon) {
  Rng rng(seed);
  CityGenParams params;
  params.grid_width = 12;
  params.grid_height = 12;
  params.congestion = UrbanCongestion(1.8);
  Scenario s;
  s.network = GenerateGridCity(params, rng);
  for (int i = 0; i < num_vehicles; ++i) {
    Vehicle v;
    v.id = static_cast<VehicleId>(i);
    v.start_node = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    s.fleet.push_back(v);
  }
  for (int i = 0; i < num_orders; ++i) {
    Order o;
    o.restaurant = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.customer = static_cast<NodeId>(rng.UniformInt(s.network.num_nodes()));
    o.placed_at = 12 * 3600.0 + rng.UniformRange(0.0, horizon);
    o.prep_time = rng.UniformRange(120.0, 1200.0);
    o.items = rng.UniformIntRange(1, 4);
    s.orders.push_back(o);
  }
  std::sort(s.orders.begin(), s.orders.end(),
            [](const Order& a, const Order& b) {
              return a.placed_at < b.placed_at;
            });
  for (std::size_t i = 0; i < s.orders.size(); ++i) {
    s.orders[i].id = static_cast<OrderId>(i);
  }
  return s;
}

void ExpectWindowResultsEqual(const std::vector<WindowResult>& a,
                              const std::vector<WindowResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(a[w].now, b[w].now);
    EXPECT_EQ(a[w].rejected, b[w].rejected);
    EXPECT_EQ(a[w].reshuffled_vehicles, b[w].reshuffled_vehicles);
    ASSERT_EQ(a[w].decision.assignments.size(),
              b[w].decision.assignments.size());
    for (std::size_t i = 0; i < a[w].decision.assignments.size(); ++i) {
      EXPECT_EQ(a[w].decision.assignments[i].vehicle,
                b[w].decision.assignments[i].vehicle);
      EXPECT_EQ(a[w].decision.assignments[i].orders,
                b[w].decision.assignments[i].orders);
    }
    ASSERT_EQ(a[w].reinstatements.size(), b[w].reinstatements.size());
    for (std::size_t i = 0; i < a[w].reinstatements.size(); ++i) {
      EXPECT_EQ(a[w].reinstatements[i].order, b[w].reinstatements[i].order);
      EXPECT_EQ(a[w].reinstatements[i].vehicle,
                b[w].reinstatements[i].vehicle);
    }
    EXPECT_EQ(a[w].decision.cost_evaluations,
              b[w].decision.cost_evaluations);
  }
}

TEST(ResidentStateTest, CaptureRestoreContinuesBitIdentically) {
  const Scenario s = MakeScenario(4242, 6, 50, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 120.0;
  const Seconds start = 12 * 3600.0;
  const Seconds mid = start + 900.0;
  const Seconds end = start + 1800.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);

  std::unique_ptr<AssignmentPolicy> policy_a =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine a(policy_a.get(), config,
                   DispatchEngineOptions{.measure_wall_clock = false});
  ReplayEventStream(a, events, start, mid, 120.0);

  const EngineResidentState state = a.CaptureResidentState();
  std::unique_ptr<AssignmentPolicy> policy_b =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine b(policy_b.get(), config,
                   DispatchEngineOptions{.measure_wall_clock = false});
  b.RestoreResidentState(state);
  EXPECT_EQ(FingerprintResidentState(b.CaptureResidentState()),
            FingerprintResidentState(state));

  // Both engines now see the identical remaining stream; cold policy
  // caches on b are bit-neutral, so the windows must match exactly.
  std::vector<StampedEvent> rest;
  for (const StampedEvent& e : events) {
    if (e.timestamp > mid) rest.push_back(e);
  }
  ExpectWindowResultsEqual(ReplayEventStream(a, rest, mid, end, 120.0),
                           ReplayEventStream(b, rest, mid, end, 120.0));
}

TEST(ResidentStateDeathTest, RestoreRequiresAFreshEngine) {
  const Scenario s = MakeScenario(8, 2, 2, 600.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  Config config;
  config.accumulation_window = 120.0;
  std::unique_ptr<AssignmentPolicy> policy =
      PolicyRegistry::Global().Create("foodmatch", &oracle, config);
  DispatchEngine engine(policy.get(), config,
                        DispatchEngineOptions{.measure_wall_clock = false});
  engine.Handle(OrderPlaced{s.orders[0]});
  EXPECT_DEATH(engine.RestoreResidentState(EngineResidentState{}),
               "fresh engine");
}

// Drives the full kill-restore gate: golden uninterrupted run vs a durable
// run where one shard is destroyed at a (seeded-random) window and rebuilt
// from snapshot + WAL. The finished runs must be window-for-window
// bit-identical, and the restored shard's state fingerprint must equal the
// same shard's state in an unkilled durable run at the same window.
void RunKillRestoreGate(int shards, int snapshot_every, std::uint64_t seed,
                        const std::string& tag) {
  SCOPED_TRACE(tag);
  const Scenario s = MakeScenario(seed, 8, 70, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  GridRegionPartitioner partitioner(&s.network, shards);
  Config config;
  config.accumulation_window = 120.0;
  config.shards = shards;
  config.snapshot_every_windows = snapshot_every;
  config.Validate();
  const Seconds start = 12 * 3600.0;
  const Seconds end = start + 1800.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);

  auto make_core = [&](const std::string& dir) {
    ShardedEngineOptions options;
    options.engine.measure_wall_clock = false;
    if (!dir.empty()) {
      options.durability.dir = dir;
      options.durability.snapshot_every_windows = snapshot_every;
    }
    return std::make_unique<ShardedDispatchEngine>(
        &partitioner, "foodmatch", &oracle, config, PolicyOptions{}, options);
  };

  // Golden: uninterrupted, durability off entirely.
  auto golden_core = make_core("");
  const std::vector<WindowResult> golden =
      ReplayEventStream(*golden_core, events, start, end, 120.0);
  ASSERT_GT(golden.size(), 3u);

  // Pick the kill point and victim shard from the seed, never the last
  // window (a restore after the final window would go unobserved).
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  const std::size_t kill_window =
      1 + static_cast<std::size_t>(rng.UniformInt(
              static_cast<std::uint32_t>(golden.size() - 2)));
  const int kill_shard = static_cast<int>(
      rng.UniformInt(static_cast<std::uint32_t>(shards)));

  // Reference durable run (no kill): capture the victim shard's state
  // fingerprint at the kill window — what a restore must reproduce.
  std::uint64_t expected_state = 0;
  {
    auto reference = make_core(TestDir("recovery-ref-" + tag));
    const std::vector<WindowResult> results = ReplayEventStream(
        *reference, events, start, end, 120.0,
        [&](Seconds, std::size_t w) {
          if (w == kill_window) {
            expected_state = FingerprintResidentState(
                reference->shard(kill_shard).CaptureResidentState());
          }
        });
    ExpectWindowResultsEqual(golden, results);  // durability is bit-neutral
    EXPECT_GT(reference->durable_records(kill_shard), 0u);
  }

  // The kill-restore run.
  auto durable = make_core(TestDir("recovery-kill-" + tag));
  RecoveryReport report;
  bool restored = false;
  const std::vector<WindowResult> results = ReplayEventStream(
      *durable, events, start, end, 120.0,
      [&](Seconds, std::size_t w) {
        if (restored || w != kill_window) return;
        restored = true;
        report = durable->RestoreShard(kill_shard);
      });
  ASSERT_TRUE(restored);
  EXPECT_GT(report.records_valid, 0u);
  EXPECT_EQ(report.state_fingerprint, expected_state);
  if (snapshot_every == 1) {
    EXPECT_TRUE(report.snapshot_loaded);
  } else if (static_cast<std::size_t>(snapshot_every) > kill_window + 1) {
    // Cadence never reached: cold replay from record 0 must still work.
    EXPECT_FALSE(report.snapshot_loaded);
  }
  ExpectWindowResultsEqual(golden, results);
}

TEST(KillRestoreGateTest, SingleShardRestoresBitIdentically) {
  RunKillRestoreGate(/*shards=*/1, /*snapshot_every=*/4, 1357, "k1");
}

TEST(KillRestoreGateTest, FourShardsRestoreBitIdentically) {
  RunKillRestoreGate(/*shards=*/4, /*snapshot_every=*/4, 2468, "k4");
}

TEST(KillRestoreGateTest, EveryWindowSnapshotCadence) {
  RunKillRestoreGate(/*shards=*/4, /*snapshot_every=*/1, 97531, "k4-snap1");
}

TEST(KillRestoreGateTest, NoSnapshotForcesColdWalReplay) {
  RunKillRestoreGate(/*shards=*/4, /*snapshot_every=*/1000, 86420,
                     "k4-cold");
}

TEST(KillRestoreGateTest, TornTailOnLiveShardRecoversAndResumes) {
  // Kill the shard, tear its WAL tail (the crash interrupted an append),
  // and restore: recovery truncates the torn bytes, resumes at a fresh
  // segment, and the shard keeps serving — subsequent windows must agree
  // with golden because the torn bytes were never part of a closed window.
  const Scenario s = MakeScenario(1111, 6, 50, 1800.0);
  DistanceOracle oracle(&s.network, OracleBackend::kDijkstra);
  GridRegionPartitioner partitioner(&s.network, 2);
  Config config;
  config.accumulation_window = 120.0;
  config.shards = 2;
  const Seconds start = 12 * 3600.0;
  const Seconds end = start + 1800.0;
  const std::vector<StampedEvent> events =
      MakeBatchReplayEvents(s.fleet, s.orders, start);

  auto make_core = [&](const std::string& dir) {
    ShardedEngineOptions options;
    options.engine.measure_wall_clock = false;
    options.durability.dir = dir;
    options.durability.snapshot_every_windows = 4;
    return std::make_unique<ShardedDispatchEngine>(
        &partitioner, "foodmatch", &oracle, config, PolicyOptions{}, options);
  };

  ShardedEngineOptions golden_options;
  golden_options.engine.measure_wall_clock = false;
  ShardedDispatchEngine golden_core(&partitioner, "foodmatch", &oracle,
                                    config, PolicyOptions{}, golden_options);
  const std::vector<WindowResult> golden =
      ReplayEventStream(golden_core, events, start, end, 120.0);

  const std::string dir = TestDir("recovery-torn-live");
  auto durable = make_core(dir);
  bool restored = false;
  RecoveryReport report;
  const std::vector<WindowResult> results = ReplayEventStream(
      *durable, events, start, end, 120.0,
      [&](Seconds, std::size_t w) {
        if (restored || w != 7) return;
        restored = true;
        // Simulate the crash's torn append on the victim's current tail.
        std::uint32_t tail = 0;
        while (std::filesystem::exists(WalSegmentPath(dir, 0, tail + 1))) {
          ++tail;
        }
        const std::string tail_path = WalSegmentPath(dir, 0, tail);
        std::vector<unsigned char> bytes = ReadFileBytes(tail_path);
        bytes.push_back(0xDE);
        bytes.push_back(0xAD);
        WriteFileBytes(tail_path, bytes);
        report = durable->RestoreShard(0);
      });
  ASSERT_TRUE(restored);
  EXPECT_TRUE(report.torn_tail);
  ExpectWindowResultsEqual(golden, results);
}

}  // namespace
}  // namespace fm
