#include "durability/wal.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/checksum.h"

namespace fm {
namespace {

constexpr std::uint64_t kWalMagic = 0x31304C4157464Dull;  // "FMWAL01"
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 4;
constexpr std::size_t kFrameHeaderBytes = 4 + 8;

// Event type tags inside a kEvent payload (order matches the EngineEvent
// variant; the codec does not depend on variant indices staying put).
constexpr std::uint8_t kOrderPlaced = 0;
constexpr std::uint8_t kVehicleStateUpdate = 1;
constexpr std::uint8_t kOrderDelivered = 2;
constexpr std::uint8_t kVehicleRetired = 3;

void EncodeOrderList(BinaryWriter& w, const std::vector<Order>& orders) {
  w.AppendU32(static_cast<std::uint32_t>(orders.size()));
  for (const Order& o : orders) EncodeOrder(w, o);
}

bool DecodeOrderList(BinaryReader& r, std::vector<Order>* orders) {
  std::uint32_t count = 0;
  if (!r.ReadU32(&count)) return false;
  // A count beyond the remaining bytes is malformed, not a huge allocation.
  if (count > r.remaining()) return false;
  orders->resize(count);
  for (Order& o : *orders) {
    if (!DecodeOrder(r, &o)) return false;
  }
  return true;
}

}  // namespace

void EncodeOrder(BinaryWriter& w, const Order& order) {
  w.AppendU32(order.id);
  w.AppendU32(order.restaurant);
  w.AppendU32(order.customer);
  w.AppendF64(order.placed_at);
  w.AppendU32(static_cast<std::uint32_t>(order.items));
  w.AppendF64(order.prep_time);
}

bool DecodeOrder(BinaryReader& r, Order* order) {
  std::uint32_t items = 0;
  if (!r.ReadU32(&order->id) || !r.ReadU32(&order->restaurant) ||
      !r.ReadU32(&order->customer) || !r.ReadF64(&order->placed_at) ||
      !r.ReadU32(&items) || !r.ReadF64(&order->prep_time)) {
    return false;
  }
  order->items = static_cast<int>(items);
  return true;
}

void EncodeVehicleSnapshot(BinaryWriter& w, const VehicleSnapshot& snapshot) {
  w.AppendU32(snapshot.id);
  w.AppendU32(snapshot.location);
  w.AppendU32(snapshot.next_destination);
  EncodeOrderList(w, snapshot.picked);
  EncodeOrderList(w, snapshot.unpicked);
}

bool DecodeVehicleSnapshot(BinaryReader& r, VehicleSnapshot* snapshot) {
  return r.ReadU32(&snapshot->id) && r.ReadU32(&snapshot->location) &&
         r.ReadU32(&snapshot->next_destination) &&
         DecodeOrderList(r, &snapshot->picked) &&
         DecodeOrderList(r, &snapshot->unpicked);
}

void EncodeWalRecord(BinaryWriter& w, const WalRecord& record) {
  w.AppendU8(static_cast<std::uint8_t>(record.kind));
  if (record.kind == WalRecord::Kind::kWindow) {
    w.AppendF64(record.window_now);
    return;
  }
  w.AppendF64(record.event.timestamp);
  w.AppendU64(record.event.sequence);
  std::visit(
      [&w](const auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, OrderPlaced>) {
          w.AppendU8(kOrderPlaced);
          EncodeOrder(w, e.order);
        } else if constexpr (std::is_same_v<E, VehicleStateUpdate>) {
          w.AppendU8(kVehicleStateUpdate);
          EncodeVehicleSnapshot(w, e.snapshot);
          w.AppendU8(e.on_duty ? 1 : 0);
        } else if constexpr (std::is_same_v<E, OrderDelivered>) {
          w.AppendU8(kOrderDelivered);
          w.AppendU32(e.order);
          w.AppendU32(e.vehicle);
        } else {
          static_assert(std::is_same_v<E, VehicleRetired>);
          w.AppendU8(kVehicleRetired);
          w.AppendU32(e.vehicle);
        }
      },
      record.event.event);
}

bool DecodeWalRecord(BinaryReader& r, WalRecord* record) {
  std::uint8_t kind = 0;
  if (!r.ReadU8(&kind)) return false;
  if (kind == static_cast<std::uint8_t>(WalRecord::Kind::kWindow)) {
    record->kind = WalRecord::Kind::kWindow;
    return r.ReadF64(&record->window_now);
  }
  if (kind != static_cast<std::uint8_t>(WalRecord::Kind::kEvent)) return false;
  record->kind = WalRecord::Kind::kEvent;
  std::uint8_t type = 0;
  if (!r.ReadF64(&record->event.timestamp) ||
      !r.ReadU64(&record->event.sequence) || !r.ReadU8(&type)) {
    return false;
  }
  switch (type) {
    case kOrderPlaced: {
      OrderPlaced e;
      if (!DecodeOrder(r, &e.order)) return false;
      record->event.event = std::move(e);
      return true;
    }
    case kVehicleStateUpdate: {
      VehicleStateUpdate e;
      std::uint8_t on_duty = 0;
      if (!DecodeVehicleSnapshot(r, &e.snapshot) || !r.ReadU8(&on_duty)) {
        return false;
      }
      e.on_duty = on_duty != 0;
      record->event.event = std::move(e);
      return true;
    }
    case kOrderDelivered: {
      OrderDelivered e;
      if (!r.ReadU32(&e.order) || !r.ReadU32(&e.vehicle)) return false;
      record->event.event = e;
      return true;
    }
    case kVehicleRetired: {
      VehicleRetired e;
      if (!r.ReadU32(&e.vehicle)) return false;
      record->event.event = e;
      return true;
    }
    default:
      return false;
  }
}

bool WalRecordsEqual(const WalRecord& a, const WalRecord& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == WalRecord::Kind::kWindow) return a.window_now == b.window_now;
  if (a.event.timestamp != b.event.timestamp ||
      a.event.sequence != b.event.sequence) {
    return false;
  }
  // The payload codec is canonical, so payload equality is byte equality.
  BinaryWriter wa, wb;
  EncodeWalRecord(wa, a);
  EncodeWalRecord(wb, b);
  return wa.buffer() == wb.buffer();
}

std::string WalSegmentPath(const std::string& dir, int shard,
                           std::uint32_t segment) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%d-%08u.seg", shard, segment);
  return (std::filesystem::path(dir) / name).string();
}

// ---- Writer ----

WalWriter::WalWriter(std::string dir, int shard, std::size_t segment_bytes,
                     std::uint32_t start_segment)
    : dir_(std::move(dir)), shard_(shard), segment_bytes_(segment_bytes),
      segment_index_(start_segment) {
  FM_CHECK_GE(shard_, 0);
  FM_CHECK_GE(segment_bytes_, kSegmentHeaderBytes + kFrameHeaderBytes);
  std::filesystem::create_directories(dir_);
  OpenSegment(segment_index_);
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    Sync();
    std::fclose(file_);
  }
}

void WalWriter::OpenSegment(std::uint32_t segment) {
  if (file_ != nullptr) std::fclose(file_);
  const std::string path = WalSegmentPath(dir_, shard_, segment);
  file_ = std::fopen(path.c_str(), "wb");
  FM_CHECK_MSG(file_ != nullptr, "cannot open WAL segment " << path);
  segment_index_ = segment;
  scratch_.Clear();
  scratch_.AppendU64(kWalMagic);
  scratch_.AppendU32(static_cast<std::uint32_t>(shard_));
  scratch_.AppendU32(segment);
  FM_CHECK_EQ(std::fwrite(scratch_.buffer().data(), 1, scratch_.size(), file_),
              scratch_.size());
  segment_size_ = scratch_.size();
  bytes_written_.Add(scratch_.size());
}

void WalWriter::Append(const WalRecord& record) {
  scratch_.Clear();
  EncodeWalRecord(scratch_, record);
  const std::uint64_t checksum =
      Fnv1a(scratch_.buffer().data(), scratch_.size());
  BinaryWriter frame;
  frame.AppendU32(static_cast<std::uint32_t>(scratch_.size()));
  frame.AppendU64(checksum);
  frame.AppendBytes(scratch_.buffer().data(), scratch_.size());
  FM_CHECK_EQ(std::fwrite(frame.buffer().data(), 1, frame.size(), file_),
              frame.size());
  segment_size_ += frame.size();
  bytes_written_.Add(frame.size());
  ++appended_;
}

void WalWriter::Sync() {
  // The fsync latency histogram is wall-clock-only observability; a null
  // sink means no clock reads.
  const bool timed = fsync_histogram_ != nullptr;
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  FM_CHECK_EQ(std::fflush(file_), 0);
  FM_CHECK_EQ(::fsync(fileno(file_)), 0);
  if (timed) {
    fsync_histogram_->Observe(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  }
  syncs_.Increment();
  // Rotate only at a durable frame boundary, so a segment never ends
  // mid-window and non-final segments are frame-exact by construction.
  if (segment_size_ > segment_bytes_) {
    OpenSegment(segment_index_ + 1);
    rotations_.Increment();
  }
}

// ---- Reader ----

WalReadResult ReadShardWal(const std::string& dir, int shard) {
  WalReadResult result;
  std::vector<std::string> paths;
  for (std::uint32_t segment = 0;; ++segment) {
    std::string path = WalSegmentPath(dir, shard, segment);
    if (!std::filesystem::exists(path)) break;
    paths.push_back(std::move(path));
  }
  // A segment index past a hole would be silently unread — that is data
  // loss, not a torn tail. Refuse.
  if (std::filesystem::is_directory(dir)) {
    const std::string prefix = "wal-" + std::to_string(shard) + "-";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) != 0 || entry.path().extension() != ".seg") {
        continue;
      }
      const std::uint32_t segment = static_cast<std::uint32_t>(
          std::stoul(name.substr(prefix.size())));
      FM_CHECK_MSG(segment < paths.size(),
                   "gap in WAL segment numbering before " << name);
    }
  }

  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::string& path = paths[i];
    const bool final_segment = i + 1 == paths.size();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    FM_CHECK_MSG(f != nullptr, "cannot open WAL segment " << path);
    std::vector<unsigned char> bytes(
        static_cast<std::size_t>(std::filesystem::file_size(path)));
    if (!bytes.empty()) {
      FM_CHECK_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);

    if (bytes.size() < kSegmentHeaderBytes) {
      FM_CHECK_MSG(final_segment,
                   "truncated header in non-final WAL segment " << path);
      result.torn_tail = true;
      result.diagnostic = "torn segment header in " + path;
      result.torn_path = path;
      result.torn_valid_bytes = 0;
      break;
    }
    BinaryReader header(bytes.data(), kSegmentHeaderBytes);
    std::uint64_t magic = 0;
    std::uint32_t header_shard = 0, header_segment = 0;
    header.ReadU64(&magic);
    header.ReadU32(&header_shard);
    header.ReadU32(&header_segment);
    FM_CHECK_MSG(magic == kWalMagic, "bad WAL magic in " << path);
    FM_CHECK_MSG(header_shard == static_cast<std::uint32_t>(shard) &&
                     header_segment == static_cast<std::uint32_t>(i),
                 "WAL header mismatch in " << path);

    std::size_t pos = kSegmentHeaderBytes;
    while (pos < bytes.size()) {
      std::uint32_t payload_len = 0;
      std::uint64_t checksum = 0;
      bool complete = bytes.size() - pos >= kFrameHeaderBytes;
      if (complete) {
        BinaryReader frame(bytes.data() + pos, kFrameHeaderBytes);
        frame.ReadU32(&payload_len);
        frame.ReadU64(&checksum);
        complete = bytes.size() - pos - kFrameHeaderBytes >= payload_len;
      }
      if (!complete) {
        FM_CHECK_MSG(final_segment,
                     "truncated frame in non-final WAL segment " << path);
        result.torn_tail = true;
        result.diagnostic =
            "torn frame at byte " + std::to_string(pos) + " of " + path;
        result.torn_path = path;
        result.torn_valid_bytes = pos;
        break;
      }
      const unsigned char* payload = bytes.data() + pos + kFrameHeaderBytes;
      FM_CHECK_MSG(Fnv1a(payload, payload_len) == checksum,
                   "WAL checksum mismatch at byte "
                       << pos << " of " << path
                       << " — corrupt record, refusing to replay");
      BinaryReader payload_reader(payload, payload_len);
      WalRecord record;
      FM_CHECK_MSG(DecodeWalRecord(payload_reader, &record) &&
                       payload_reader.exhausted(),
                   "malformed WAL payload at byte " << pos << " of " << path);
      result.records.push_back(std::move(record));
      pos += kFrameHeaderBytes + payload_len;
    }
    ++result.segments;
    if (result.torn_tail) break;
  }
  return result;
}

void RemoveShardDurabilityFiles(const std::string& dir, int shard) {
  if (!std::filesystem::is_directory(dir)) return;
  const std::string wal_prefix = "wal-" + std::to_string(shard) + "-";
  const std::string snap_prefix = "snap-" + std::to_string(shard) + "-";
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(wal_prefix, 0) == 0 || name.rfind(snap_prefix, 0) == 0) {
      doomed.push_back(entry.path());
    }
  }
  for (const auto& path : doomed) std::filesystem::remove(path);
}

}  // namespace fm
