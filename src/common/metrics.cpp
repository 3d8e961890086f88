#include "common/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/diag.h"
#include "common/strutil.h"

namespace reese::metrics {

namespace {

bool valid_identifier(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::islower(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const usize n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool valid_labels(const Labels& labels) {
  for (const auto& [name, value] : labels) {
    (void)value;
    if (!valid_label_name(name)) return false;
  }
  return true;
}

/// Type suffix rules from the header: counters end in _total, others don't.
bool name_fits_type(const std::string& name, MetricType type) {
  return type == MetricType::kCounter ? ends_with(name, "_total")
                                      : !ends_with(name, "_total");
}

/// Render a double the way Prometheus expects: integers without a mantissa,
/// everything else with enough digits to round-trip.
std::string render_value(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return format("%.0f", value);
  }
  return format("%.9g", value);
}

/// {a="b",c="d"} — empty string for no labels.
std::string render_label_block(const Labels& labels,
                               const char* extra_name = nullptr,
                               const std::string& extra_value = "") {
  if (labels.empty() && extra_name == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += name + "=\"" + json_escape(value) + "\"";
  }
  if (extra_name != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_name) + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

bool valid_metric_name(const std::string& name) {
  return valid_identifier(name) && starts_with(name, "reese_");
}

bool valid_label_name(const std::string& name) { return valid_identifier(name); }

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void HistogramMetric::observe(double sample) {
  usize index = bounds_.size();  // +Inf by default
  for (usize i = 0; i < bounds_.size(); ++i) {
    if (sample <= bounds_[i]) {
      index = i;
      break;
    }
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + sample,
                                     std::memory_order_relaxed)) {
  }
}

void HistogramMetric::add_bucket(usize index, u64 count, double sum_delta) {
  if (index >= buckets_.size()) return;
  buckets_[index].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + sum_delta,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<u64> HistogramMetric::bucket_counts() const {
  std::vector<u64> counts(buckets_.size());
  for (usize i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

Registry::Entry* Registry::find_or_create(const std::string& name,
                                          MetricType type,
                                          const Labels& labels,
                                          const std::string& help) {
  if (!valid_metric_name(name) || !valid_labels(labels) ||
      !name_fits_type(name, type)) {
    return nullptr;
  }
  for (const auto& entry : entries_) {
    if (entry->name != name) continue;
    // A name owns its type: a second registration with another type is a
    // programming error surfaced as nullptr, not a silent second family.
    if (entry->type != type) return nullptr;
    if (entry->labels == labels) return entry.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->type = type;
  entry->labels = labels;
  entry->help = help;
  if (help.empty()) {
    // Share the help text across label sets of the same family.
    for (const auto& existing : entries_) {
      if (existing->name == name) {
        entry->help = existing->help;
        break;
      }
    }
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(name, MetricType::kCounter, labels, help);
  if (entry == nullptr) return nullptr;
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(name, MetricType::kGauge, labels, help);
  if (entry == nullptr) return nullptr;
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

HistogramMetric* Registry::histogram(const std::string& name,
                                     std::vector<double> bounds,
                                     const Labels& labels,
                                     const std::string& help) {
  if (bounds.empty()) return nullptr;
  for (usize i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_or_create(name, MetricType::kHistogram, labels, help);
  if (entry == nullptr) return nullptr;
  if (entry->histogram == nullptr) {
    // First label set fixes the family's bounds; later sets must agree so
    // the exposition stays scrapeable as one family.
    for (const auto& existing : entries_) {
      if (existing.get() != entry && existing->name == name &&
          existing->histogram != nullptr &&
          existing->histogram->bounds() != bounds) {
        return nullptr;
      }
    }
    entry->histogram = std::make_unique<HistogramMetric>(std::move(bounds));
  } else if (entry->histogram->bounds() != bounds) {
    return nullptr;
  }
  return entry->histogram.get();
}

usize Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<Sample> Registry::snapshot() const {
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples.reserve(entries_.size());
    for (const auto& entry : entries_) {
      Sample sample;
      sample.name = entry->name;
      sample.type = entry->type;
      sample.help = entry->help;
      sample.labels = entry->labels;
      switch (entry->type) {
        case MetricType::kCounter:
          sample.value = static_cast<double>(entry->counter->value());
          break;
        case MetricType::kGauge:
          sample.value = entry->gauge->value();
          break;
        case MetricType::kHistogram:
          sample.bounds = entry->histogram->bounds();
          sample.buckets = entry->histogram->bucket_counts();
          sample.count = entry->histogram->count();
          sample.sum = entry->histogram->sum();
          break;
      }
      samples.push_back(std::move(sample));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return samples;
}

std::string Registry::prometheus() const {
  const std::vector<Sample> samples = snapshot();
  std::string out;
  std::string current_family;
  for (const Sample& sample : samples) {
    if (sample.name != current_family) {
      current_family = sample.name;
      if (!sample.help.empty()) {
        out += "# HELP " + sample.name + " " + sample.help + "\n";
      }
      out += "# TYPE " + sample.name + " " +
             metric_type_name(sample.type) + "\n";
    }
    if (sample.type == MetricType::kHistogram) {
      u64 cumulative = 0;
      for (usize i = 0; i < sample.buckets.size(); ++i) {
        cumulative += sample.buckets[i];
        const std::string le = i < sample.bounds.size()
                                   ? render_value(sample.bounds[i])
                                   : "+Inf";
        out += sample.name + "_bucket" +
               render_label_block(sample.labels, "le", le) +
               format(" %llu\n", static_cast<unsigned long long>(cumulative));
      }
      out += sample.name + "_sum" + render_label_block(sample.labels) + " " +
             render_value(sample.sum) + "\n";
      out += sample.name + "_count" + render_label_block(sample.labels) +
             format(" %llu\n", static_cast<unsigned long long>(sample.count));
    } else {
      out += sample.name + render_label_block(sample.labels) + " " +
             render_value(sample.value) + "\n";
    }
  }
  return out;
}

std::string Registry::json() const {
  const std::vector<Sample> samples = snapshot();
  std::string out = "{\n  \"metrics\": [\n";
  for (usize i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples[i];
    out += "    {";
    out += format("\"name\": \"%s\", \"type\": \"%s\", ", sample.name.c_str(),
                  metric_type_name(sample.type));
    out += "\"labels\": {";
    for (usize l = 0; l < sample.labels.size(); ++l) {
      out += format("%s\"%s\": \"%s\"", l == 0 ? "" : ", ",
                    sample.labels[l].first.c_str(),
                    json_escape(sample.labels[l].second).c_str());
    }
    out += "}, ";
    if (sample.type == MetricType::kHistogram) {
      out += "\"bounds\": [";
      for (usize b = 0; b < sample.bounds.size(); ++b) {
        out += format("%s%s", b == 0 ? "" : ", ",
                      render_value(sample.bounds[b]).c_str());
      }
      out += "], \"buckets\": [";
      for (usize b = 0; b < sample.buckets.size(); ++b) {
        out += format("%s%llu", b == 0 ? "" : ", ",
                      static_cast<unsigned long long>(sample.buckets[b]));
      }
      out += format("], \"count\": %llu, \"sum\": %s",
                    static_cast<unsigned long long>(sample.count),
                    render_value(sample.sum).c_str());
    } else {
      out += format("\"value\": %s", render_value(sample.value).c_str());
    }
    out += format("}%s\n", i + 1 < samples.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace reese::metrics
