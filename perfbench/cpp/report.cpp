// Metrics, spans and result output shared by every workload.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/diag.h"
#include "common/strutil.h"

namespace perfbench {

Sizes full_sizes() { return Sizes{}; }

Sizes small_sizes() {
  Sizes sizes;
  sizes.cell_budget = 20'000;
  sizes.warmup_budget = 5'000;
  sizes.campaign_budget = 5'000;
  sizes.campaign_replicas = 1;
  sizes.component_replicas = 1;
  sizes.job_experiment_budget = 10'000;
  sizes.job_campaign_budget = 5'000;
  sizes.hook_budget = 10'000;
  sizes.service_probe_s = 0.3;
  sizes.setup_reps = 3;
  return sizes;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

u64 fnv1a(const std::string& bytes) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(u64 value) {
  return reese::format("%016llx", static_cast<unsigned long long>(value));
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double thread_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// --- spans --------------------------------------------------------------

long Trace::begin(const std::string& name, u64 id, long parent) {
  if (!enabled_) return -1;
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, parent, start, start});
  return static_cast<long>(spans_.size() - 1);
}

void Trace::end(long index) {
  if (!enabled_ || index < 0) return;
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<usize>(index)].end = end;
}

long Trace::add(const std::string& name, u64 id, long parent, double start,
                double end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, parent, start, end});
  return static_cast<long>(spans_.size() - 1);
}

double Trace::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

std::vector<double> Trace::durations_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& span : spans_) {
    out << reese::format(
        "{\"name\": \"%s\", \"id\": %llu, \"parent\": %ld, "
        "\"start_us\": %.3f, \"end_us\": %.3f}\n",
        reese::json_escape(span.name).c_str(),
        static_cast<unsigned long long>(span.id), span.parent,
        (span.start - origin) * 1e6, (span.end - origin) * 1e6);
  }
  return static_cast<bool>(out);
}

double Scope::close() {
  if (elapsed_ < 0.0) {
    elapsed_ = now_s() - start_;
    trace_->end(index_);
  }
  return elapsed_;
}

// --- grid clock ---------------------------------------------------------

GridClock::GridClock(bool reference)
    : start_(now_s()),
      start_cpu_(thread_cpu_s()),
      owner_(std::this_thread::get_id()),
      reference_(reference) {}

void GridClock::on_cell() {
  const double now = now_s();
  const double cpu = thread_cpu_s();
  const ReferenceSample sample =
      reference_ ? reference_sample() : ReferenceSample{};
  std::ostringstream thread_key;
  thread_key << std::this_thread::get_id();
  // A pool thread is created by the grid call, so its first cell starts at
  // zero thread CPU time; the calling thread started at start_cpu_.
  const double first_cpu =
      std::this_thread::get_id() == owner_ ? start_cpu_ : 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      last_.emplace(thread_key.str(), std::make_pair(start_, first_cpu));
  cells_.push_back({it->second.first, now, cpu - it->second.second});
  if (reference_) samples_.push_back(sample);
  // The thread's next cell starts after the reference sample.
  it->second = {now + sample.wall_s, cpu + sample.cpu_s};
}

void GridClock::finish(GridTimes* times, Trace* trace, u64 id, long parent) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  double last_start = start_;
  for (const Cell& cell : cells_) {
    times->cell_s.push_back(cell.end - cell.start);
    times->cell_cpu_s.push_back(cell.cpu_s);
    last_start = std::max(last_start, cell.start);
    trace->add("sim.cell", id, parent, cell.start, cell.end);
  }
  for (const ReferenceSample& sample : samples_) {
    times->reference_wall_s.push_back(sample.wall_s);
    times->reference_cpu_s.push_back(sample.cpu_s);
  }
  // The queue is empty once the last cell has been taken.
  times->tail_s += end - last_start;
  times->wall_s += end - start_;
}

BestPass best_of_passes(const std::vector<GridTimes>& passes) {
  const usize cells = passes.front().cell_s.size();
  std::vector<double> fastest(cells, 1e300);
  std::vector<double> cheapest(cells, 1e300);
  std::vector<double> fastest_raw(cells, 1e300);
  std::vector<double> reference;
  for (const GridTimes& pass : passes) {
    // One sample per cell, in cell order.
    const std::vector<double> wall_scale =
        local_speed_scales(pass.reference_wall_s);
    const std::vector<double> cpu_scale =
        local_speed_scales(pass.reference_cpu_s);
    for (usize c = 0; c < cells; ++c) {
      fastest[c] = std::min(fastest[c], pass.cell_s[c] * wall_scale[c]);
      cheapest[c] = std::min(cheapest[c], pass.cell_cpu_s[c] * cpu_scale[c]);
      fastest_raw[c] = std::min(fastest_raw[c], pass.cell_s[c]);
    }
    reference.insert(reference.end(), pass.reference_wall_s.begin(),
                     pass.reference_wall_s.end());
  }
  BestPass best;
  for (usize c = 0; c < cells; ++c) {
    best.wall_s += fastest[c];
    best.cpu_s += cheapest[c];
    best.raw_wall_s += fastest_raw[c];
  }
  best.mean_s = best.wall_s / static_cast<double>(cells);
  best.p50_s = percentile(fastest, 0.5);
  best.p95_s = percentile(fastest, 0.95);
  best.reference_ms = 1e3 * median(reference);
  return best;
}

// --- metric lists -------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},     {"sim_kips", "kIPS"},        {"ops_per_s", "1/s"},
      {"latency_mean_ms", "ms"}, {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"workloads.build_ms", "ms"},
      {"workloads.build_share", "ratio"},
      {"isa.step_ns", "ns"},
      {"isa.exec_per_inst", "count"},
      {"mem.access_ns", "ns"},
      {"mem.il1_per_inst", "count"},
      {"mem.dl1_per_inst", "count"},
      {"mem.dl1_miss_rate", "count"},
      {"mem.ul2_miss_rate", "count"},
      {"mem.dtlb_miss_rate", "count"},
      {"branch.predict_ns", "ns"},
      {"branch.mispredict_rate", "count"},
      {"branch.btb_lookups_per_inst", "count"},
      {"core.wrongpath_per_inst", "count"},
      {"core.ns_per_inst.baseline", "ns"},
      {"core.ns_per_inst.reese", "ns"},
      {"core.ns_per_inst.reese_2alu", "ns"},
      {"core.ns_per_inst.ruu256", "ns"},
      {"core.self_ns_per_inst.baseline", "ns"},
      {"core.cpi.baseline", "count"},
      {"core.cpi.reese", "count"},
      {"core.idle_cycle_frac", "count"},
      {"core.ruu_occupancy_mean", "count"},
      {"core.reese.tax", "ratio"},
      {"core.reese.issued_r_per_inst", "count"},
      {"core.reese.rqueue_occupancy_mean", "count"},
      {"core.reese.rqueue_full_frac", "count"},
      {"core.reese.ipc_overhead_pct", "%"},
      {"faults.hook_overhead_pct.result", "%"},
      {"faults.hook_overhead_pct.rqueue", "%"},
      {"faults.injected_per_kinst", "count"},
      {"faults.reese_coverage", "count"},
      {"sim.grid.cell_ms_p50", "ms"},
      {"sim.grid.cell_ms_max", "ms"},
      {"sim.grid.efficiency", "ratio"},
      {"sim.grid.tail_ms", "ms"},
      {"service.submit_ms", "ms"},
      {"service.result_fetch_ms", "ms"},
      {"service.run_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"service.requests_per_job", "count"},
      {"http.connects_per_job", "count"},
      {"service.rejected_frac", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

// --- report -------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::count(const std::string& name, double value) {
  counts_[name] = value;
}

void Report::fingerprint(const std::string& name, const std::string& bytes) {
  fingerprints_[name] = hex64(fnv1a(bytes));
}

void Report::record(const std::string& key, const std::string& value) {
  records_.push_back({key, value});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::printf("FAILED check: %s\n", what.c_str());
}

bool Report::finish(
    const Options& options,
    const std::vector<std::pair<std::string, std::string>>& final_metrics) {
  for (const auto& [key, value] : records_) {
    std::printf("record %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, fp] : fingerprints_) {
    std::printf("fingerprint %s = %s\n", name.c_str(), fp.c_str());
  }
  for (const auto& [name, value] : counts_) {
    std::printf("count %s = %.17g\n", name.c_str(), value);
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %s = %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_frac =
      attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / attempted_;
  std::printf("metric failed_frac = %.6g ratio (%llu of %llu)\n", failed_frac,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  const std::string stem =
      options.out_dir + "/" + options.workload + "-seed" +
      std::to_string(options.seed) + (options.trace ? "-trace" : "");
  // Counts and fingerprints alone: deterministic for a seed and size, so
  // two commits' files compare byte for byte.
  {
    std::ofstream out(stem + ".counts.json");
    out << "{\n  \"fingerprints\": {";
    const char* sep = "\n";
    for (const auto& [name, fp] : fingerprints_) {
      out << sep << "    \"" << name << "\": \"" << fp << "\"";
      sep = ",\n";
    }
    out << "\n  },\n  \"counts\": {";
    sep = "\n";
    for (const auto& [name, value] : counts_) {
      out << sep << "    \"" << name << "\": "
          << reese::format("%.17g", value);
      sep = ",\n";
    }
    out << "\n  }\n}\n";
  }

  bool complete = true;
  std::string json = "{";
  const char* sep = "";
  for (const auto& [name, unit] : final_metrics) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::printf("MISSING metric %s\n", name.c_str());
      complete = false;
      continue;
    }
    json += reese::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          sep, name.c_str(), it->second.value, unit.c_str());
    sep = ", ";
  }
  json += "}";
  const bool correct = complete && failed_ == 0 && attempted_ > 0;
  // reese::format truncates at 2 KiB; the metrics object can be longer.
  const std::string result =
      reese::format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": ",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(std::max<u64>(attempted_, 1)),
                    static_cast<unsigned long long>(
                        attempted_ == 0 ? 1 : failed_)) +
      json + "}";
  {
    std::ofstream out(stem + ".result.json");
    out << "{\"records\": {";
    const char* rsep = "";
    for (const auto& [key, value] : records_) {
      out << rsep << "\"" << key << "\": \"" << reese::json_escape(value)
          << "\"";
      rsep = ", ";
    }
    out << "}, \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace perfbench
