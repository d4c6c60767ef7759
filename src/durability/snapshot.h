// Engine-state snapshots: periodic checkpoints that bound WAL replay.
//
// A snapshot serializes one DispatchEngine's full resident state
// (core/dispatch_engine.h, EngineResidentState) together with its position
// in the durable event stream — the window clock and the count of WAL
// records already applied — so recovery (durability/recovery.h) loads the
// latest snapshot and replays only the log suffix behind it. Derived state
// is deliberately absent: the vehicle index is rebuilt on restore and
// policy caches (EdgeCache footprints and memos) start cold, which is
// bit-neutral by the incremental-graph equivalence contract.
//
// On-disk layout of snap-<shard>-<windows>.snap (little-endian):
//
//   [u64 magic][u32 payload_len][u64 fnv1a(payload)][payload]
//
// with the payload carrying shard, window_now, windows_closed,
// last_applied_record, and the resident state. Files are written to a
// temporary name and renamed into place, so a crash mid-snapshot leaves no
// half-written .snap file; any .snap that fails its checksum is therefore
// corruption and reading it aborts (never a silent partial restore).
#ifndef FOODMATCH_DURABILITY_SNAPSHOT_H_
#define FOODMATCH_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/binary_io.h"
#include "core/dispatch_engine.h"

namespace fm {

struct EngineSnapshot {
  std::uint32_t shard = 0;
  // The window clock at capture: `now` of the last closed window.
  Seconds window_now = 0.0;
  // Windows closed by this shard so far (the snapshot cadence counter and
  // the filename key).
  std::uint64_t windows_closed = 0;
  // WAL records (events + window markers) durable and applied at capture;
  // recovery skips exactly this many before replaying.
  std::uint64_t last_applied_record = 0;
  EngineResidentState state;

  friend bool operator==(const EngineSnapshot&,
                         const EngineSnapshot&) = default;
};

// Payload codec (exposed for the round-trip property tests). Decode
// returns false on truncation or malformed counts.
void EncodeEngineSnapshot(BinaryWriter& w, const EngineSnapshot& snapshot);
bool DecodeEngineSnapshot(BinaryReader& r, EngineSnapshot* snapshot);

// Canonical fingerprint of a resident state: FNV-1a over its encoded
// bytes. Equal states ⇒ equal fingerprints, and the encoding is canonical
// (ever_assigned sorted, vehicles in announcement order), so this is the
// bit-identity anchor the recovery gates compare.
std::uint64_t FingerprintResidentState(const EngineResidentState& state);

// snap-<shard>-<windows>.snap under `dir` (windows zero-padded so the
// lexicographically greatest file is the latest).
std::string SnapshotPath(const std::string& dir, int shard,
                         std::uint64_t windows);

// Atomically (tmp + rename) writes `snapshot` to
// SnapshotPath(dir, snapshot.shard, snapshot.windows_closed).
void WriteSnapshotFile(const std::string& dir, const EngineSnapshot& snapshot);

// Reads and verifies one snapshot file; aborts on any corruption (see the
// file comment for why a bad snapshot is never recoverable-from silently).
EngineSnapshot ReadSnapshotFile(const std::string& path);

// Locates the latest snapshot of `shard` under `dir`; false when none.
bool FindLatestSnapshot(const std::string& dir, int shard, std::string* path,
                        std::uint64_t* windows);

// Deletes all but the `keep` latest snapshots of `shard` (the older ones
// are strictly dominated — recovery always loads the latest; keeping one
// spare guards the instant between writing a new snapshot and trusting it).
void PruneSnapshots(const std::string& dir, int shard, int keep);

}  // namespace fm

#endif  // FOODMATCH_DURABILITY_SNAPSHOT_H_
