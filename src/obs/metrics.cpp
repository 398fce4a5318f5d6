#include "obs/metrics.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/json.hpp"

namespace dhtlb::obs {

MetricsRegistry::~MetricsRegistry() { flush(); }

MetricsRegistry::Id MetricsRegistry::intern(std::string_view name,
                                            std::string_view unit,
                                            Kind kind) {
  for (Id id = 0; id < instruments_.size(); ++id) {
    if (instruments_[id].name == name) {
      DHTLB_CHECK(instruments_[id].kind == kind,
                    "metric re-registered with a different kind");
      DHTLB_CHECK(instruments_[id].unit == unit,
                    "metric re-registered with a different unit");
      return id;
    }
  }
  Instrument inst;
  inst.name.assign(name);
  inst.unit.assign(unit);
  inst.kind = kind;
  instruments_.push_back(std::move(inst));
  const Id id = instruments_.size() - 1;
  by_name_.push_back(id);
  std::sort(by_name_.begin(), by_name_.end(), [this](Id a, Id b) {
    return instruments_[a].name < instruments_[b].name;
  });
  return id;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name,
                                             std::string_view unit) {
  support::MutexLock lock(mu_);
  return intern(name, unit, Kind::kCounter);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name,
                                           std::string_view unit) {
  support::MutexLock lock(mu_);
  return intern(name, unit, Kind::kGauge);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name,
                                               std::string_view unit,
                                               std::vector<double> bounds) {
  support::MutexLock lock(mu_);
  DHTLB_CHECK(std::is_sorted(bounds.begin(), bounds.end()) &&
                    std::adjacent_find(bounds.begin(), bounds.end()) ==
                        bounds.end(),
                "histogram bounds must be strictly increasing");
  const Id id = intern(name, unit, Kind::kHistogram);
  Instrument& inst = instruments_[id];
  if (inst.buckets.empty()) {
    inst.bounds = std::move(bounds);
    inst.buckets.assign(inst.bounds.size() + 1, 0);
  } else {
    DHTLB_CHECK(inst.bounds == bounds,
                  "histogram re-registered with different bounds");
  }
  return id;
}

void MetricsRegistry::add(Id id, double delta) {
  support::MutexLock lock(mu_);
  DHTLB_CHECK(id < instruments_.size(), "unknown metric id");
  DHTLB_CHECK(instruments_[id].kind == Kind::kCounter,
                "add() is only valid on counters");
  DHTLB_CHECK(delta >= 0.0, "counters are monotone");
  instruments_[id].value += delta;
}

void MetricsRegistry::set(Id id, double value) {
  support::MutexLock lock(mu_);
  DHTLB_CHECK(id < instruments_.size(), "unknown metric id");
  DHTLB_CHECK(instruments_[id].kind == Kind::kGauge,
                "set() is only valid on gauges");
  instruments_[id].value = value;
}

void MetricsRegistry::observe(Id id, double value) {
  support::MutexLock lock(mu_);
  DHTLB_CHECK(id < instruments_.size(), "unknown metric id");
  Instrument& inst = instruments_[id];
  DHTLB_CHECK(inst.kind == Kind::kHistogram,
                "observe() is only valid on histograms");
  // Cumulative buckets: bump every bucket whose edge admits the value.
  for (std::size_t b = 0; b < inst.bounds.size(); ++b) {
    if (value <= inst.bounds[b]) ++inst.buckets[b];
  }
  ++inst.buckets.back();  // +inf admits everything
  inst.sum += value;
}

void MetricsRegistry::observe_all(Id id, const std::vector<double>& values) {
  support::MutexLock lock(mu_);
  DHTLB_CHECK(id < instruments_.size(), "unknown metric id");
  Instrument& inst = instruments_[id];
  DHTLB_CHECK(inst.kind == Kind::kHistogram,
                "observe_all() is only valid on histograms");
  for (const double value : values) {
    for (std::size_t b = 0; b < inst.bounds.size(); ++b) {
      if (value <= inst.bounds[b]) ++inst.buckets[b];
    }
    ++inst.buckets.back();
    inst.sum += value;
  }
}

void MetricsRegistry::emit_row(const Instrument& inst, std::uint64_t tick) {
  const auto row = [&](std::string_view metric, const double* le,
                       bool le_inf, double value) {
    buffer_ += '{';
    if (le != nullptr || le_inf) {
      buffer_ += "\"le\":";
      if (le_inf) {
        buffer_ += "\"+inf\"";
      } else {
        support::json_append_double(buffer_, *le);
      }
      buffer_ += ',';
    }
    buffer_ += "\"metric\":";
    support::json_append_escaped(buffer_, metric);
    buffer_ += ",\"tick\":";
    support::json_append_u64(buffer_, tick);
    buffer_ += ",\"type\":";
    switch (inst.kind) {
      case Kind::kCounter: buffer_ += "\"counter\""; break;
      case Kind::kGauge: buffer_ += "\"gauge\""; break;
      case Kind::kHistogram: buffer_ += "\"histogram\""; break;
    }
    buffer_ += ",\"unit\":";
    support::json_append_escaped(buffer_, inst.unit);
    buffer_ += ",\"value\":";
    support::json_append_double(buffer_, value);
    buffer_ += "}\n";
    ++rows_;
  };

  switch (inst.kind) {
    case Kind::kCounter:
    case Kind::kGauge:
      row(inst.name, nullptr, false, inst.value);
      break;
    case Kind::kHistogram: {
      for (std::size_t b = 0; b < inst.bounds.size(); ++b) {
        row(inst.name, &inst.bounds[b], false,
            static_cast<double>(inst.buckets[b]));
      }
      row(inst.name, nullptr, true,
          static_cast<double>(inst.buckets.back()));
      row(inst.name + "_sum", nullptr, false, inst.sum);
      break;
    }
  }
}

void MetricsRegistry::sample(std::uint64_t tick) {
  support::MutexLock lock(mu_);
  for (const Id id : by_name_) {
    Instrument& inst = instruments_[id];
    emit_row(inst, tick);
    if (inst.kind == Kind::kHistogram) {
      std::fill(inst.buckets.begin(), inst.buckets.end(), std::uint64_t{0});
      inst.sum = 0.0;
    }
  }
  if (++samples_since_flush_ >= kFlushEverySamples) flush_locked();
}

void MetricsRegistry::flush() {
  support::MutexLock lock(mu_);
  flush_locked();
}

void MetricsRegistry::flush_locked() {
  samples_since_flush_ = 0;
  if (buffer_.empty()) return;
  out_ << buffer_;
  out_.flush();
  buffer_.clear();
}

std::uint64_t MetricsRegistry::rows_written() const {
  support::MutexLock lock(mu_);
  return rows_;
}

}  // namespace dhtlb::obs
