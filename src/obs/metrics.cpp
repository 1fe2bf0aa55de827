#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace sage::obs {
namespace {

// Shortest round-trippable spelling: %.17g is exact for doubles but ugly for
// the common case (integral byte counts, 0.5-style ratios); try increasing
// precision until the value round-trips.
std::string fmt_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string MetricsRegistry::make_key(std::string_view name, const LabelSet& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

MetricsRegistry::Entry* MetricsRegistry::resolve(const std::string& key, Kind kind) {
  const auto [slot, inserted] = index_.find_or_insert(hash_string(key));
  if (!inserted) {
    Entry& hit = entries_[*slot];
    if (hit.key != key) {
      // Hash collision between distinct keys: fall back to the linear
      // overflow list (create on miss).
      for (std::uint32_t idx : overflow_) {
        if (entries_[idx].key == key) {
          SAGE_CHECK(entries_[idx].kind == kind);
          return &entries_[idx];
        }
      }
      overflow_.push_back(static_cast<std::uint32_t>(entries_.size()));
    } else {
      SAGE_CHECK(hit.kind == kind);
      return &hit;
    }
  } else {
    *slot = static_cast<std::uint32_t>(entries_.size());
  }
  Entry& entry = entries_.emplace_back();
  entry.key = key;
  entry.kind = kind;
  return &entry;
}

const MetricsRegistry::Entry* MetricsRegistry::lookup(const std::string& key) const {
  const std::uint32_t* slot = index_.find(hash_string(key));
  if (slot == nullptr) return nullptr;
  const Entry& hit = entries_[*slot];
  if (hit.key == key) return &hit;
  for (std::uint32_t idx : overflow_) {
    if (entries_[idx].key == key) return &entries_[idx];
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(std::string_view name, const LabelSet& labels) {
  return &resolve(make_key(name, labels), Kind::kCounter)->counter;
}

Gauge* MetricsRegistry::gauge(std::string_view name, const LabelSet& labels) {
  return &resolve(make_key(name, labels), Kind::kGauge)->gauge;
}

Histogram* MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds,
                                      const LabelSet& labels) {
  SAGE_CHECK(std::is_sorted(bounds.begin(), bounds.end()));
  Entry* entry = resolve(make_key(name, labels), Kind::kHistogram);
  if (entry->histogram.counts_.empty()) {
    entry->histogram.bounds_ = std::move(bounds);
    entry->histogram.counts_.assign(entry->histogram.bounds_.size() + 1, 0);
  } else {
    SAGE_CHECK(entry->histogram.bounds_ == bounds);
  }
  return &entry->histogram;
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             const LabelSet& labels) const {
  const Entry* e = lookup(make_key(name, labels));
  return (e != nullptr && e->kind == Kind::kCounter) ? &e->counter : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name,
                                         const LabelSet& labels) const {
  const Entry* e = lookup(make_key(name, labels));
  return (e != nullptr && e->kind == Kind::kGauge) ? &e->gauge : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name,
                                                 const LabelSet& labels) const {
  const Entry* e = lookup(make_key(name, labels));
  return (e != nullptr && e->kind == Kind::kHistogram) ? &e->histogram : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Worst case every incoming key is new: one up-front reserve instead of
  // log2(n) incremental rehashes of the key index per merged World.
  reserve(entries_.size() + other.entries_.size());
  for (const Entry& src : other.entries_) {
    Entry* dst = resolve(src.key, src.kind);
    switch (src.kind) {
      case Kind::kCounter:
        dst->counter.value_ += src.counter.value_;
        break;
      case Kind::kGauge:
        dst->gauge.value_ = src.gauge.value_;
        break;
      case Kind::kHistogram: {
        Histogram& h = dst->histogram;
        if (h.counts_.empty()) {
          h.bounds_ = src.histogram.bounds_;
          h.counts_.assign(h.bounds_.size() + 1, 0);
        }
        SAGE_CHECK(h.bounds_ == src.histogram.bounds_);
        for (std::size_t i = 0; i < h.counts_.size(); ++i) {
          h.counts_[i] += src.histogram.counts_[i];
        }
        h.sum_ += src.histogram.sum_;
        h.count_ += src.histogram.count_;
        break;
      }
    }
  }
}

std::string MetricsRegistry::snapshot_json() const {
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->key < b->key; });

  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Entry& e = *sorted[i];
    if (i) out += ',';
    append_json_string(out, e.key);
    out += ':';
    switch (e.kind) {
      case Kind::kCounter:
        out += std::to_string(e.counter.value_);
        break;
      case Kind::kGauge:
        out += fmt_double(e.gauge.value_);
        break;
      case Kind::kHistogram: {
        const Histogram& h = e.histogram;
        out += "{\"count\":" + std::to_string(h.count_);
        out += ",\"sum\":" + fmt_double(h.sum_);
        out += ",\"bounds\":[";
        for (std::size_t j = 0; j < h.bounds_.size(); ++j) {
          if (j) out += ',';
          out += fmt_double(h.bounds_[j]);
        }
        out += "],\"buckets\":[";
        for (std::size_t j = 0; j < h.counts_.size(); ++j) {
          if (j) out += ',';
          out += std::to_string(h.counts_[j]);
        }
        out += "]}";
        break;
      }
    }
  }
  out += '}';
  return out;
}

}  // namespace sage::obs
