#include "util/metrics.h"

#include <cstdio>
#include <ostream>

#include "util/json.h"

namespace cpm::util {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

void MetricsRegistry::add(const std::string& name, std::uint64_t n) {
  if (n == 0) return;
  counter(name).add(n);
}

void MetricsRegistry::merge(const std::string& name,
                            const RunningStats& stats) {
  if (stats.count() == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].merge(stats);
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

namespace {

void write_number(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(name) << "\":" << c->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, s] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(name) << "\":{\"count\":" << s.count()
       << ",\"mean\":";
    write_number(os, s.mean());
    os << ",\"stddev\":";
    write_number(os, s.stddev());
    os << ",\"min\":";
    write_number(os, s.min());
    os << ",\"max\":";
    write_number(os, s.max());
    os << ",\"sum\":";
    write_number(os, s.sum());
    os << '}';
  }
  os << "}}\n";
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace cpm::util
