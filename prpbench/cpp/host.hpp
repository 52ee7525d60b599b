// Host fingerprint and the STREAM-triad bandwidth probe every run records,
// so results from different machines or builds are never compared as if
// they came from one.
#pragma once

#include <cstdint>
#include <string>

namespace prpbench {

struct Fingerprint {
  std::string cpu_model;
  unsigned vcpus = 0;
  std::uint64_t llc_bytes = 0;
  std::uint64_t ram_bytes = 0;
  std::string compiler;
  std::string cxx_flags;
  std::string build_type;
  std::string git_sha;
  int triad_threads = 1;
  double triad_gbps = 0;
  std::uint64_t triad_array_bytes = 0;  ///< size of each of the 3 arrays

  /// One JSON object (no trailing newline).
  [[nodiscard]] std::string json() const;
};

/// Reads the static host description (no probing).
Fingerprint host_fingerprint(const std::string& git_sha);

/// Measures a STREAM triad a[i] = b[i] + s*c[i] with `threads` threads
/// over three arrays that together span at least 4x the last-level cache.
/// Runs in a forked child so its arrays never count toward this process's
/// peak RSS; call it before any thread is started. Returns GB/s (1e9 B/s,
/// counting 3 x 8 bytes per element), or throws on failure.
double probe_triad_gbps(int threads, std::uint64_t array_bytes);

}  // namespace prpbench
