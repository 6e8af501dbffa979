#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "kernels/kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  // statistics.quantiles(method="exclusive"): position q * (n + 1), 1-based,
  // clamped to the sample range.
  const double pos = q * static_cast<double>(v.size() + 1);
  if (pos <= 1.0) return v.front();
  if (pos >= static_cast<double>(v.size())) return v.back();
  const auto lo = static_cast<std::size_t>(std::floor(pos)) - 1;
  const double frac = pos - std::floor(pos);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double tail_percentile(std::size_t samples) noexcept {
  static constexpr std::array<double, 5> kCandidates = {0.999, 0.99, 0.95,
                                                        0.9, 0.75};
  for (const double p : kCandidates) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return p;
  }
  return 0.0;
}

Metric from_samples(const std::vector<double>& samples,
                    const std::string& unit) {
  Metric m;
  m.unit = unit;
  m.samples = samples.size();
  m.value = median(samples);
  m.tail_p = tail_percentile(samples.size());
  if (m.tail_p > 0.0) m.tail_value = quantile(samples, m.tail_p);
  return m;
}

HostInfo probe_host(const std::string& commit) {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(colon + 1);
        h.cpu_model.erase(0, h.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.nproc = std::thread::hardware_concurrency();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.commit = commit.empty() ? "unknown" : commit;
  const auto& d = collrep::kernels::dispatch();
  h.gf_kernel = d.gf_name;
  h.crc32c_kernel = d.crc32c_name;
  h.sha1_kernel = d.sha1_name;
  h.hmerge_kernel = d.hmerge_name;
  return h;
}

ProcCounters ProcCounters::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcCounters c;
  c.user_s = secs(ru.ru_utime);
  c.sys_s = secs(ru.ru_stime);
  c.vcsw = static_cast<double>(ru.ru_nvcsw);
  c.ivcsw = static_cast<double>(ru.ru_nivcsw);
  c.minflt = static_cast<double>(ru.ru_minflt);
  c.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ...", in USER_HZ ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (double& t : ticks) stat >> t;
  }
  c.steal_s = ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  return c;
}

ProcCounters& ProcCounters::operator+=(const ProcCounters& o) {
  user_s += o.user_s;
  sys_s += o.sys_s;
  vcsw += o.vcsw;
  ivcsw += o.ivcsw;
  minflt += o.minflt;
  maxrss_mb = std::max(maxrss_mb, o.maxrss_mb);
  steal_s += o.steal_s;
  return *this;
}

ProcCounters ProcCounters::operator-(const ProcCounters& o) const {
  ProcCounters d;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.vcsw = vcsw - o.vcsw;
  d.ivcsw = ivcsw - o.ivcsw;
  d.minflt = minflt - o.minflt;
  d.maxrss_mb = maxrss_mb;
  d.steal_s = steal_s - o.steal_s;
  return d;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // Seventeen significant digits round-trip a double exactly: measured
  // values keep all their digits and sim-clock values stay bit-comparable.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
