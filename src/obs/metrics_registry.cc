#include "obs/metrics_registry.h"

#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace fm::obs {

namespace {

// %.17g round-trips every double; integers render without an exponent up to
// 2^53, which covers every count the registry will ever hold.
std::string NumberJson(double v) {
  std::string s = StrFormat("%.17g", v);
  // JSON has no inf/nan literals; clamp to null (never produced by the
  // instruments, but a callback gauge could sample one).
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

const InstrumentValue* MetricsSnapshot::Find(const std::string& name) const {
  for (const InstrumentValue& v : instruments) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const InstrumentValue& v : instruments) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("\"%s\": ", v.name.c_str());
    switch (v.kind) {
      case InstrumentKind::kCounter:
        out += StrFormat("%llu",
                         static_cast<unsigned long long>(v.counter));
        break;
      case InstrumentKind::kGauge:
        out += NumberJson(v.gauge);
        break;
      case InstrumentKind::kHistogram: {
        out += "{\"boundaries\": [";
        for (std::size_t i = 0; i < v.histogram.boundaries.size(); ++i) {
          if (i > 0) out += ", ";
          out += NumberJson(v.histogram.boundaries[i]);
        }
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < v.histogram.counts.size(); ++i) {
          if (i > 0) out += ", ";
          out += StrFormat(
              "%llu", static_cast<unsigned long long>(v.histogram.counts[i]));
        }
        out += StrFormat(
            "], \"count\": %llu, \"sum\": %s}",
            static_cast<unsigned long long>(v.histogram.count),
            NumberJson(v.histogram.sum).c_str());
        break;
      }
    }
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const InstrumentValue& v : instruments) {
    const std::string name = PrometheusName(v.name);
    out += StrFormat("# HELP %s %s\n", name.c_str(), v.help.c_str());
    switch (v.kind) {
      case InstrumentKind::kCounter:
        out += StrFormat("# TYPE %s counter\n%s %llu\n", name.c_str(),
                         name.c_str(),
                         static_cast<unsigned long long>(v.counter));
        break;
      case InstrumentKind::kGauge:
        out += StrFormat("# TYPE %s gauge\n%s %s\n", name.c_str(),
                         name.c_str(), NumberJson(v.gauge).c_str());
        break;
      case InstrumentKind::kHistogram: {
        out += StrFormat("# TYPE %s histogram\n", name.c_str());
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < v.histogram.boundaries.size(); ++i) {
          cumulative += v.histogram.counts[i];
          out += StrFormat("%s_bucket{le=\"%s\"} %llu\n", name.c_str(),
                           NumberJson(v.histogram.boundaries[i]).c_str(),
                           static_cast<unsigned long long>(cumulative));
        }
        cumulative += v.histogram.counts.back();
        out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                         static_cast<unsigned long long>(cumulative));
        out += StrFormat("%s_sum %s\n", name.c_str(),
                         NumberJson(v.histogram.sum).c_str());
        out += StrFormat("%s_count %llu\n", name.c_str(),
                         static_cast<unsigned long long>(v.histogram.count));
        break;
      }
    }
  }
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::AddEntry(const std::string& name,
                                                  const std::string& help,
                                                  InstrumentKind kind) {
  for (const Entry& e : entries_) {
    FM_CHECK_MSG(e.name != name,
                 "duplicate metric registration: " << name);
  }
  Entry entry;
  entry.name = name;
  entry.help = help;
  entry.kind = kind;
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter& MetricsRegistry::RegisterCounter(const std::string& name,
                                          const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back();
  AddEntry(name, help, InstrumentKind::kCounter).counter = &counters_.back();
  return counters_.back();
}

Gauge& MetricsRegistry::RegisterGauge(const std::string& name,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_.emplace_back();
  AddEntry(name, help, InstrumentKind::kGauge).gauge = &gauges_.back();
  return gauges_.back();
}

Histogram& MetricsRegistry::RegisterHistogram(const std::string& name,
                                              const std::string& help,
                                              std::vector<double> boundaries) {
  std::lock_guard<std::mutex> lock(mu_);
  FM_CHECK_MSG(!boundaries.empty(), "histogram needs at least one boundary");
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    FM_CHECK_MSG(boundaries[i - 1] < boundaries[i],
                 "histogram boundaries must be strictly increasing");
  }
  histograms_.emplace_back(std::move(boundaries));
  AddEntry(name, help, InstrumentKind::kHistogram).histogram =
      &histograms_.back();
  return histograms_.back();
}

void MetricsRegistry::RegisterCallbackCounter(
    const std::string& name, const std::string& help,
    std::function<std::uint64_t()> sample, const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  FM_CHECK(sample != nullptr);
  Entry& entry = AddEntry(name, help, InstrumentKind::kCounter);
  entry.counter_fn = std::move(sample);
  entry.owner = owner;
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            const std::string& help,
                                            std::function<double()> sample,
                                            const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  FM_CHECK(sample != nullptr);
  Entry& entry = AddEntry(name, help, InstrumentKind::kGauge);
  entry.gauge_fn = std::move(sample);
  entry.owner = owner;
}

void MetricsRegistry::FreezeCallbacks(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.owner != owner) continue;
    if (e.counter_fn) {
      e.frozen_counter = e.counter_fn();
      e.counter_fn = nullptr;
    }
    if (e.gauge_fn) {
      e.frozen_gauge = e.gauge_fn();
      e.gauge_fn = nullptr;
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.instruments.reserve(entries_.size());
  for (const Entry& e : entries_) {
    InstrumentValue v;
    v.name = e.name;
    v.help = e.help;
    v.kind = e.kind;
    switch (e.kind) {
      case InstrumentKind::kCounter:
        if (e.counter != nullptr) {
          v.counter = e.counter->value();
        } else {
          v.counter = e.counter_fn ? e.counter_fn() : e.frozen_counter;
        }
        break;
      case InstrumentKind::kGauge:
        v.gauge = e.gauge != nullptr ? e.gauge->value()
                  : e.gauge_fn       ? e.gauge_fn()
                                     : e.frozen_gauge;
        break;
      case InstrumentKind::kHistogram: {
        const Histogram& h = *e.histogram;
        v.histogram.boundaries = h.boundaries();
        v.histogram.counts.resize(h.num_buckets());
        for (std::size_t i = 0; i < h.num_buckets(); ++i) {
          v.histogram.counts[i] = h.bucket_count(i);
        }
        v.histogram.count = h.count();
        v.histogram.sum = h.sum();
        break;
      }
    }
    snapshot.instruments.push_back(std::move(v));
  }
  return snapshot;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace fm::obs
