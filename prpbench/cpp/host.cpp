#include "host.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/json.hpp"

#ifndef PRPBENCH_BUILD_TYPE
#define PRPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PRPBENCH_CXX_FLAGS
#define PRPBENCH_CXX_FLAGS ""
#endif

namespace prpbench {

namespace {

std::string read_first(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::uint64_t parse_size(const std::string& text) {
  // Linux cache sizes read like "107520K".
  if (text.empty()) return 0;
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': return value << 10;
    case 'M': return value << 20;
    case 'G': return value << 30;
    default: return value;
  }
}

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first(dir + "/level");
    if (level.empty()) continue;
    const int lv = std::atoi(level.c_str());
    if (lv >= best_level) {
      best_level = lv;
      best = parse_size(read_first(dir + "/size"));
    }
  }
  return best;
}

void triad_child(int fd, int threads, std::uint64_t array_bytes) {
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / threads;
        const std::size_t hi = n * (t + 1) / threads;
        body(lo, hi);
      });
    }
    for (auto& thread : pool) thread.join();
  };
  // First touch on the thread that later streams each slice.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbps;
  const double scalar = 3.0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    const double s = seconds_since(t0);
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(n) / s / 1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  const double result = median(gbps);
  const ssize_t written = ::write(fd, &result, sizeof result);
  ::_exit(written == static_cast<ssize_t>(sizeof result) ? 0 : 1);
}

}  // namespace

std::string Fingerprint::json() const {
  prpb::util::JsonWriter w;
  w.begin_object();
  w.field("cpu_model", cpu_model);
  w.field("vcpus", static_cast<std::int64_t>(vcpus));
  w.field("llc_bytes", static_cast<std::int64_t>(llc_bytes));
  w.field("ram_bytes", static_cast<std::int64_t>(ram_bytes));
  w.field("compiler", compiler);
  w.field("cxx_flags", cxx_flags);
  w.field("build_type", build_type);
  w.field("git_sha", git_sha);
  w.field("triad_threads", static_cast<std::int64_t>(triad_threads));
  w.field("triad_array_bytes", static_cast<std::int64_t>(triad_array_bytes));
  w.field("triad_gbps", triad_gbps);
  w.end_object();
  return w.str();
}

Fingerprint host_fingerprint(const std::string& git_sha) {
  Fingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        fp.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  fp.vcpus = std::thread::hardware_concurrency();
  fp.llc_bytes = llc_bytes();
  std::ifstream meminfo("/proc/meminfo");
  for (std::string line; std::getline(meminfo, line);) {
    if (line.rfind("MemTotal:", 0) == 0) {
      fp.ram_bytes = std::strtoull(line.c_str() + 9, nullptr, 10) << 10;
      break;
    }
  }
  fp.compiler = std::string("g++ ") + __VERSION__;
  fp.cxx_flags = PRPBENCH_CXX_FLAGS;
  fp.build_type = PRPBENCH_BUILD_TYPE;
  fp.git_sha = git_sha;
  return fp;
}

double probe_triad_gbps(int threads, std::uint64_t array_bytes) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    triad_child(fds[1], threads, array_bytes);
  }
  ::close(fds[1]);
  double result = 0;
  const ssize_t got = ::read(fds[0], &result, sizeof result);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof result) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !(result > 0)) {
    throw std::runtime_error("triad probe failed");
  }
  return result;
}

}  // namespace prpbench
