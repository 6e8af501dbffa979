// Sample statistics, the host fingerprint, process counters, and the JSON
// writer behind every record the benchmark prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Order statistics over one metric's samples.  Quantiles use the same
// "exclusive" method as Python's statistics.quantiles, so the numbers
// printed here and the spread a caller computes from ten runs agree.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

// The highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond
// it, or 0 when fewer than forty samples exist (the median is always
// reported).
[[nodiscard]] double tail_percentile(std::size_t samples) noexcept;

// One metric as reported: a value, its unit, and where it came from.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 for derived values (ratios, counters)
  double tail_p = 0.0;      // percentile reported beside the median, or 0
  double tail_value = 0.0;
};

// Builds a Metric from raw samples: the median, the sample count, and the
// tail percentile when the count allows one.
[[nodiscard]] Metric from_samples(const std::vector<double>& samples,
                                  const std::string& unit);

// What every result record carries so no number is host-anonymous.
struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string build_type;
  std::string commit;
  std::string gf_kernel;
  std::string crc32c_kernel;
  std::string sha1_kernel;
  std::string hmerge_kernel;
};
[[nodiscard]] HostInfo probe_host(const std::string& commit);

// getrusage(RUSAGE_SELF) snapshot, plus the machine's vCPU steal time from
// /proc/stat (time the host ran something else while this VM wanted a CPU:
// the usual cause of a whole run reading slow); differences bound a timed
// region.
struct ProcCounters {
  double user_s = 0.0;
  double sys_s = 0.0;
  double vcsw = 0.0;
  double ivcsw = 0.0;
  double minflt = 0.0;
  double maxrss_mb = 0.0;
  double steal_s = 0.0;

  [[nodiscard]] static ProcCounters now();
  ProcCounters& operator+=(const ProcCounters& o);
  [[nodiscard]] ProcCounters operator-(const ProcCounters& o) const;
};

// Minimal JSON emission (objects of scalars and nested raw JSON).
[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

// Renders {"name": {"value": v, "unit": u}, ...} in name order.
[[nodiscard]] std::string metrics_json(
    const std::map<std::string, Metric>& metrics);

}  // namespace perfbench
