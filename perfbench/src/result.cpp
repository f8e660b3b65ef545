#include "result.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "field/fp.h"

namespace perfbench {

void Result::set(const std::string& name, double value) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

Result per_layer_result() {
  static const char* const kNames[] = {
      "sim.plumbing_ns_per_beat",  "sim.plumbing_share",
      "sim.msgs_per_beat",         "sim.plumbing_ns_per_msg",
      "adversary.act_ns_per_beat", "core.send_ns_per_beat",
      "core.recv_ns_per_beat",     "core.share",
      "coin.pipeline_ns_per_beat", "coin.deal.send_ns_per_beat",
      "coin.deal.recv_ns_per_beat", "coin.cross.send_ns_per_beat",
      "coin.cross.recv_ns_per_beat", "coin.vote.send_ns_per_beat",
      "coin.vote.recv_ns_per_beat", "coin.share.send_ns_per_beat",
      "coin.recover_ns_per_beat",  "coin.deal.kib_per_beat",
      "coin.cross.kib_per_beat",   "coin.vote.kib_per_beat",
      "coin.share.kib_per_beat",   "coin.oracle_ns_per_beat",
      "harness.build_ms_per_trial", "harness.dw.beats",
      "harness.dw.ns_per_beat",    "harness.queen.beats",
      "harness.queen.ns_per_beat", "harness.king.beats",
      "harness.king.ns_per_beat",  "harness.sync.beats",
      "harness.sync.ns_per_beat",  "harness.sync-fm.beats",
      "harness.sync-fm.ns_per_beat", "harness.sweep_busy_frac",
      "trace_overhead_frac",
  };
  Result r;
  for (const char* name : kNames) r.set(name, 0.0);
  return r;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = samples.size() / 2;
  return samples.size() % 2 ? samples[m] : (samples[m - 1] + samples[m]) / 2;
}

double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "\"cpu\": \"" << cpu << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"isa\": \""
     << (ssbft::PrimeField().simd_active() ? "avx2" : "scalar")
     << "\", \"compiler\": \""
#if defined(__clang__)
     << "clang "
#elif defined(__GNUC__)
     << "gcc "
#endif
     << __VERSION__ << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\"";
  return os.str();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 over (seed, index).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
