#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/strings.h"

namespace fm::obs {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

void Tracer::Enable(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  capacity_ = events_per_thread < 16 ? 16 : events_per_thread;
  epoch_ = std::chrono::steady_clock::now();
  generation_.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() {
  enabled_.store(false, std::memory_order_release);
}

Tracer::ThreadBuffer* Tracer::ThisBuffer() {
  // One cached (generation, buffer) pair per thread: a stale generation —
  // the tracer was re-Enabled since this thread last emitted — re-registers
  // instead of touching a cleared buffer.
  struct Cache {
    const Tracer* owner = nullptr;
    std::uint64_t generation = 0;
    ThreadBuffer* buffer = nullptr;
  };
  static thread_local Cache cache;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (cache.buffer == nullptr || cache.owner != this ||
      cache.generation != generation) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->ring.resize(capacity_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    cache.buffer = buffer.get();
    cache.owner = this;
    cache.generation = generation;
    buffers_.push_back(std::move(buffer));
  }
  return cache.buffer;
}

void Tracer::Push(TraceEvent event) {
  ThreadBuffer* buffer = ThisBuffer();
  event.tid = buffer->tid;
  buffer->ring[buffer->next % buffer->ring.size()] = std::move(event);
  ++buffer->next;
}

void Tracer::EmitComplete(const char* name, const char* category,
                          std::chrono::steady_clock::time_point start,
                          std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'X';
  event.ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(start - epoch_)
          .count());
  event.dur_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
  Push(std::move(event));
}

void Tracer::EmitAsync(char phase, const char* name, const char* category,
                       std::uint64_t id) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = phase;
  event.id = id;
  event.ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  Push(std::move(event));
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    const std::uint64_t cap = buffer->ring.size();
    if (buffer->next > cap) total += buffer->next - cap;
  }
  return total;
}

std::vector<TraceEvent> Tracer::SortedEvents() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      const std::uint64_t cap = buffer->ring.size();
      const std::uint64_t held = buffer->next < cap ? buffer->next : cap;
      for (std::uint64_t i = 0; i < held; ++i) {
        // Oldest-first within the ring.
        const std::uint64_t slot =
            buffer->next < cap ? i : (buffer->next + i) % cap;
        events.push_back(buffer->ring[slot]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });
  return events;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  const std::vector<TraceEvent> events = SortedEvents();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                 "\"ts\": %llu, \"pid\": 1, \"tid\": %u",
                 i == 0 ? "" : ",", EscapeJson(e.name).c_str(), e.category,
                 e.phase, static_cast<unsigned long long>(e.ts_us), e.tid);
    if (e.phase == 'X') {
      std::fprintf(f, ", \"dur\": %llu",
                   static_cast<unsigned long long>(e.dur_us));
    } else {
      std::fprintf(f, ", \"id\": %llu",
                   static_cast<unsigned long long>(e.id));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace fm::obs
