#include "serving.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/checksum.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace prpbench {

namespace ps = prpb::serve;

namespace {

/// splitmix64: the benchmark's own deterministic stream for inputs.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

unsigned client_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ps::Request make_request(Rng& rng, const QueryMix& mix,
                         std::uint64_t vertices) {
  const double total = mix.topk + mix.rank + mix.neighbors + mix.ppr;
  double pick = rng.unit() * total;
  ps::Request request;
  if ((pick -= mix.topk) < 0) {
    request.opcode = ps::Opcode::kTopk;
    request.topk_k = kTopk;
  } else if ((pick -= mix.rank) < 0) {
    request.opcode = ps::Opcode::kRank;
    request.vertex = rng.next() % vertices;
  } else if ((pick -= mix.neighbors) < 0 || mix.ppr <= 0) {
    request.opcode = ps::Opcode::kNeighbors;
    request.vertex = rng.next() % vertices;
  } else {
    request.opcode = ps::Opcode::kPpr;
    request.ppr.iterations = kPprIterations;
    request.ppr.topk = kTopk;
    for (std::uint32_t i = 0; i < kPprRestart; ++i) {
      request.ppr.restart.push_back(rng.next() % vertices);
    }
  }
  return request;
}

/// Checks what can be checked at once and keeps the rest (bounded).
void take_reply(const ps::Request& request, const ps::Response& response,
                const RankOracle& oracle, TrafficResult& out) {
  std::string error;
  switch (request.opcode) {
    case ps::Opcode::kTopk:
      error = check_topk(response.entries, request.topk_k, *oracle.ranks,
                         oracle.order);
      break;
    case ps::Opcode::kRank:
      if (response.rank != (*oracle.ranks)[request.vertex]) {
        error = "rank(" + std::to_string(request.vertex) + ") differs";
      }
      break;
    case ps::Opcode::kNeighbors:
      if (out.kept.size() < 256) out.kept.push_back({request, response.entries});
      break;
    case ps::Opcode::kPpr:
      if (response.ppr.iterations_run != request.ppr.iterations ||
          response.ppr.top.empty()) {
        error = "ppr reply malformed";
      } else if (out.kept.size() < 512) {
        out.kept.push_back({request, response.ppr.top});
      }
      break;
    default:
      error = "unexpected opcode";
  }
  if (!error.empty() && out.errors.size() < 16) out.errors.push_back(error);
}

bool is_light(ps::Opcode op) { return op != ps::Opcode::kPpr; }

void merge(TrafficResult& into, TrafficResult&& part) {
  into.sent += part.sent;
  into.answered += part.answered;
  into.shed += part.shed;
  into.failed += part.failed;
  into.light.insert(into.light.end(), part.light.begin(), part.light.end());
  into.ppr.insert(into.ppr.end(), part.ppr.begin(), part.ppr.end());
  into.send_s.insert(into.send_s.end(), part.send_s.begin(),
                     part.send_s.end());
  for (auto& e : part.errors) {
    if (into.errors.size() < 16) into.errors.push_back(std::move(e));
  }
  for (auto& k : part.kept) into.kept.push_back(std::move(k));
}

/// A loopback connection the open-loop generator reads without blocking.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to the rank server failed");
    }
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { ::close(fd_); }
  [[nodiscard]] int fd() const { return fd_; }

  void send_all(const std::string& bytes) const {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to the rank server failed");
      at += static_cast<std::size_t>(n);
    }
  }

  /// Appends whatever is readable now; false once the peer closed.
  bool drain(std::string& into) const {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        into.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  }

 private:
  int fd_;
};

}  // namespace

ServingStack::ServingStack(prpb::core::PipelineResult&& result,
                           const prpb::core::PipelineConfig& config,
                           const prpb::obs::Hooks& hooks) {
  ps::ServiceOptions service_options;
  service_options.iterations = config.iterations;
  service_options.damping = config.damping;
  service_options.seed = config.seed;
  service_ = std::make_unique<ps::RankService>(
      std::move(result.matrix), std::move(result.ranks), service_options);
  ps::ServerOptions server_options;
  server_options.hooks = hooks;
  server_ = std::make_unique<ps::RankServer>(*service_, server_options);
  server_->start();
}

TrafficResult closed_loop(std::uint16_t port, std::uint64_t vertices,
                          const QueryMix& mix, double seconds, int waves,
                          std::uint64_t seed, const RankOracle& oracle,
                          bool record_sends) {
  const unsigned clients = client_count();
  TrafficResult result;
  result.epoch = Clock::now();
  for (int wave = 0; wave < waves; ++wave) {
    // Each wave connects afresh, so the server starts new reader
    // threads and one unlucky thread placement spoils one wave only.
    const auto deadline =
        result.epoch + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               seconds * (wave + 1) / waves));
    std::vector<TrafficResult> parts(clients);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        TrafficResult& mine = parts[t];
        try {
          ps::RankClient client(port);
          Rng rng(seed * 0x100000001b3ULL + wave * 64 + t + 1);
          while (Clock::now() < deadline) {
            const ps::Request request = make_request(rng, mix, vertices);
            const auto t0 = Clock::now();
            if (record_sends) {
              mine.send_s.push_back(seconds_between(result.epoch, t0));
            }
            const ps::Response response = client.request(request);
            const auto t1 = Clock::now();
            const double ms = seconds_between(t0, t1) * 1e3;
            ++mine.sent;
            if (!response.ok()) {
              ++mine.failed;
              if (response.status == ps::Status::kOverloaded) ++mine.shed;
              continue;
            }
            ++mine.answered;
            (is_light(request.opcode) ? mine.light : mine.ppr)
                .push_back({seconds_between(result.epoch, t1), ms});
            take_reply(request, response, oracle, mine);
          }
        } catch (const std::exception& e) {
          ++mine.failed;
          mine.errors.push_back(std::string("client: ") + e.what());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (auto& part : parts) merge(result, std::move(part));
  }
  result.elapsed_s = seconds_since(result.epoch);
  std::sort(result.send_s.begin(), result.send_s.end());
  return result;
}

TrafficResult open_loop(std::uint16_t port, std::uint64_t vertices,
                        const QueryMix& mix, double rate, double seconds,
                        std::uint64_t seed, const RankOracle& oracle,
                        bool record_sends) {
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<ps::Request> requests(n);
  std::vector<std::string> frames(n);
  std::vector<double> due(n);  // seconds after the schedule start
  double at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    at += -std::log1p(-rng.unit()) / rate;
    due[i] = at;
    requests[i] = make_request(rng, mix, vertices);
    requests[i].id = static_cast<std::uint32_t>(i);
    frames[i] = ps::frame(ps::encode_request(requests[i]));
  }

  const unsigned count = client_count();
  std::vector<std::unique_ptr<Socket>> sockets;
  for (unsigned c = 0; c < count; ++c) {
    sockets.push_back(std::make_unique<Socket>(port));
  }
  std::vector<pollfd> pfds(count);
  for (unsigned c = 0; c < count; ++c) pfds[c] = {sockets[c]->fd(), POLLIN, 0};
  std::vector<std::string> inbox(count);
  std::vector<std::size_t> head(count, 0);

  TrafficResult result;
  result.epoch = Clock::now();
  const auto start = result.epoch + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };
  const auto give_up = due_at(n - 1) + std::chrono::seconds(30);
  std::vector<double> late_ms(n, 0.0);
  std::vector<char> done(n, 0);
  std::size_t next = 0;
  std::size_t received = 0;
  auto last_reply = start;

  const auto handle = [&](std::string_view payload, Clock::time_point now) {
    ps::Response response;
    try {
      response = ps::decode_response(payload);
    } catch (const std::exception& e) {
      if (result.errors.size() < 16) result.errors.push_back(e.what());
      return;
    }
    const std::size_t id = response.id;
    if (id >= n || done[id]) {
      if (result.errors.size() < 16) result.errors.push_back("stray reply id");
      return;
    }
    done[id] = 1;
    ++received;
    last_reply = now;
    if (!response.ok()) {
      ++result.failed;
      if (response.status == ps::Status::kOverloaded) ++result.shed;
      return;
    }
    ++result.answered;
    const double ms = seconds_between(due_at(id), now) * 1e3;
    (is_light(requests[id].opcode) ? result.light : result.ppr)
        .push_back({seconds_between(result.epoch, due_at(id)), ms});
    take_reply(requests[id], response, oracle, result);
  };

  while (received < n) {
    auto now = Clock::now();
    while (next < n && due_at(next) <= now) {
      sockets[next % count]->send_all(frames[next]);
      late_ms[next] = seconds_between(due_at(next), now) * 1e3;
      if (record_sends) {
        result.send_s.push_back(seconds_between(result.epoch, now));
      }
      ++next;
      ++result.sent;
      now = Clock::now();
    }
    if (now > give_up) break;
    const auto wait = next < n ? due_at(next) - now
                               : Clock::duration(std::chrono::milliseconds(50));
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::max(wait, Clock::duration::zero()))
                        .count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (unsigned c = 0; c < count; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::string& box = inbox[c];
      const bool open = sockets[c]->drain(box);
      const auto arrived = Clock::now();
      while (box.size() - head[c] >= 4) {
        std::uint32_t length = 0;
        std::memcpy(&length, box.data() + head[c], 4);  // little-endian host
        if (box.size() - head[c] - 4 < length) break;
        handle(std::string_view(box).substr(head[c] + 4, length), arrived);
        head[c] += 4 + length;
      }
      if (head[c] == box.size()) {
        box.clear();
        head[c] = 0;
      } else if (head[c] > (1u << 20)) {
        box.erase(0, head[c]);
        head[c] = 0;
      }
      if (!open) pfds[c].fd = -1;
    }
  }
  result.failed += n - received;  // never answered
  result.elapsed_s = seconds_between(start, last_reply);
  result.lateness_p50_ms = quantile(late_ms, 0.5);
  result.lateness_p99_ms = quantile(late_ms, 0.99);
  result.lateness_max_ms = *std::max_element(late_ms.begin(), late_ms.end());
  return result;
}

std::vector<double> ppr_probe(std::uint16_t port, std::uint64_t vertices,
                              int count, std::uint64_t seed,
                              const RankOracle& oracle, TrafficResult& into) {
  ps::RankClient client(port);
  Rng rng(seed ^ 0x27d4eb2f165667c5ULL);
  QueryMix only_ppr{0, 0, 0, 1};
  std::vector<double> ms;
  for (int i = 0; i < count; ++i) {
    const ps::Request request = make_request(rng, only_ppr, vertices);
    const auto t0 = Clock::now();
    const ps::Response response = client.request(request);
    ms.push_back(seconds_since(t0) * 1e3);
    ++into.sent;
    if (!response.ok()) {
      ++into.failed;
      continue;
    }
    ++into.answered;
    take_reply(request, response, oracle, into);
  }
  return ms;
}

SliceStats slice_stats(const TrafficResult& traffic, double slice_s) {
  double end = 0;
  for (const auto* samples : {&traffic.light, &traffic.ppr}) {
    for (const auto& sample : *samples) end = std::max(end, sample.at_s);
  }
  const auto slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(end / slice_s)));
  struct Slice {
    std::vector<double> light;
    std::vector<double> ppr;
  };
  std::vector<Slice> per(slices);
  const auto index = [&](double at) {
    return std::min(slices - 1, static_cast<std::size_t>(at / slice_s));
  };
  for (const auto& s : traffic.light) per[index(s.at_s)].light.push_back(s.ms);
  for (const auto& s : traffic.ppr) per[index(s.at_s)].ppr.push_back(s.ms);
  std::vector<double> qps, l50, l99, p50, p99;
  for (const Slice& slice : per) {
    qps.push_back(static_cast<double>(slice.light.size() + slice.ppr.size()) /
                  slice_s);
    if (!slice.light.empty()) {
      l50.push_back(quantile(slice.light, 0.5));
      l99.push_back(quantile(slice.light, 0.99));
    }
    if (!slice.ppr.empty()) {
      p50.push_back(quantile(slice.ppr, 0.5));
      p99.push_back(quantile(slice.ppr, 0.99));
    }
  }
  SliceStats stats;
  stats.slices = slices;
  stats.qps = median(qps);
  stats.light_p50_ms = median(l50);
  stats.light_p99_ms = median(l99);
  stats.ppr_p50_ms = median(p50);
  stats.ppr_p99_ms = median(p99);
  return stats;
}

bool generator_behind(const TrafficResult& traffic) {
  return traffic.lateness_p50_ms > 1.0;
}

void serving_layers(const ServingStack& stack, std::uint64_t seed,
                    const std::vector<prpb::obs::TraceEvent>& events,
                    std::uint64_t begin_us, std::uint64_t end_us,
                    std::uint64_t epoch_us, const TrafficResult& traffic,
                    MetricMap& out) {
  const ps::RankService& service = stack.service();
  const std::uint64_t n = service.vertices();
  Rng rng(seed ^ 0x5bd1e995ULL);
  double sink = 0;

  const auto per_call_us = [](Clock::time_point t0, std::size_t calls) {
    return seconds_since(t0) * 1e6 / static_cast<double>(calls);
  };
  {
    constexpr std::size_t kCalls = 2000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) sink += service.topk(kTopk).size();
    out["serve.handler_topk_us"] = {per_call_us(t0, kCalls), "us"};
  }
  std::vector<std::uint64_t> picks(20000);
  for (auto& v : picks) v = rng.next() % n;
  {
    const auto t0 = Clock::now();
    for (const auto v : picks) sink += service.rank(v);
    out["serve.handler_rank_us"] = {per_call_us(t0, picks.size()), "us"};
  }
  {
    const auto t0 = Clock::now();
    for (const auto v : picks) sink += service.neighbors(v).size();
    out["serve.handler_neighbors_us"] = {per_call_us(t0, picks.size()), "us"};
  }
  {
    std::vector<double> ms;
    for (int i = 0; i < 6; ++i) {
      ps::PprRequest request;
      request.iterations = kPprIterations;
      request.topk = kTopk;
      for (std::uint32_t j = 0; j < kPprRestart; ++j) {
        request.restart.push_back(rng.next() % n);
      }
      const auto t0 = Clock::now();
      sink += service.ppr(request).iterations_run;
      ms.push_back(seconds_since(t0) * 1e3);
    }
    out["serve.handler_ppr_ms"] = {median(ms), "ms"};
  }
  {
    // Encode, frame, decode the request; encode and decode the reply.
    QueryMix light;
    std::vector<ps::Request> requests;
    std::vector<ps::Response> answers;
    for (int i = 0; i < 2000; ++i) {
      ps::Request request = make_request(rng, light, n);
      request.id = static_cast<std::uint32_t>(i);
      ps::Response answer;
      if (request.opcode == ps::Opcode::kTopk) {
        answer.entries = service.topk(request.topk_k);
      } else if (request.opcode == ps::Opcode::kNeighbors) {
        answer.entries = service.neighbors(request.vertex);
      } else {
        answer.rank = service.rank(request.vertex);
      }
      requests.push_back(std::move(request));
      answers.push_back(std::move(answer));
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ps::Request& request = requests[i];
      const std::string framed = ps::frame(ps::encode_request(request));
      const ps::Request decoded =
          ps::decode_request(std::string_view(framed).substr(4));
      const std::string reply =
          decoded.opcode == ps::Opcode::kRank
              ? ps::encode_rank_reply(decoded.id, answers[i].rank)
              : ps::encode_entries_reply(decoded.id, decoded.opcode,
                                         answers[i].entries);
      sink += ps::decode_response(ps::frame(reply).substr(4)).id;
    }
    out["serve.protocol_us"] = {per_call_us(t0, requests.size()), "us"};
  }
  {
    ps::RankClient client(stack.port());
    for (int i = 0; i < 200; ++i) client.ping();
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      client.ping();
      us.push_back(seconds_since(t0) * 1e6);
    }
    out["serve.ping_rtt_us"] = {median(us), "us"};
  }
  {
    // One FIFO queue feeds the workers, so the i-th request to arrive is
    // the i-th to start its handler span.
    std::vector<double> starts;
    for (const auto& e : events) {
      if (e.phase == 'X' && e.name == "serve/request" && e.ts >= begin_us &&
          e.ts < end_us) {
        starts.push_back(static_cast<double>(e.ts));
      }
    }
    std::sort(starts.begin(), starts.end());
    const std::size_t pairs = std::min(starts.size(), traffic.send_s.size());
    std::vector<double> wait_ms;
    wait_ms.reserve(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      const double sent_us =
          static_cast<double>(epoch_us) + traffic.send_s[i] * 1e6;
      wait_ms.push_back(std::max(0.0, starts[i] - sent_us) / 1e3);
    }
    out["serve.queue_p50_ms"] = {quantile(wait_ms, 0.5), "ms"};
    out["serve.queue_p99_ms"] = {quantile(wait_ms, 0.99), "ms"};
  }
  if (sink == -1) note("");  // keeps the probed calls observable
}

void check_replies(const ServingStack& stack, const OwnMatrix& own,
                   const TrafficResult& traffic, std::uint64_t seed,
                   CheckLog& log) {
  const ps::RankService& service = stack.service();
  const std::vector<double>& ranks = service.ranks();
  const double c = service.options().damping;
  for (const auto& error : traffic.errors) log.expect(false, error);

  std::size_t ppr_checked = 0;
  for (const auto& kept : traffic.kept) {
    if (kept.request.opcode == ps::Opcode::kNeighbors) {
      const std::string error =
          check_neighbors(kept.entries, kept.request.vertex, own, ranks);
      log.expect(error.empty(), error);
    } else if (ppr_checked < 6) {
      ++ppr_checked;
      std::vector<std::uint64_t> restart = kept.request.ppr.restart;
      std::sort(restart.begin(), restart.end());
      restart.erase(std::unique(restart.begin(), restart.end()),
                    restart.end());
      const std::string error = check_ppr_top(
          kept.entries, own_ppr(own, restart, kPprIterations, c));
      log.expect(error.empty(), error);
    }
  }

  ps::RankClient client(stack.port());
  Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  for (int i = 0; i < 2; ++i) {
    ps::PprRequest request;
    request.iterations = kPprIterations;
    request.topk = kTopk;
    for (std::uint32_t j = 0; j < kPprRestart; ++j) {
      request.restart.push_back(rng.next() % service.vertices());
    }
    const ps::Response response = client.ppr(request);
    std::sort(request.restart.begin(), request.restart.end());
    request.restart.erase(
        std::unique(request.restart.begin(), request.restart.end()),
        request.restart.end());
    const std::string error =
        response.ok() ? check_ppr_top(response.ppr.top,
                                      own_ppr(own, request.restart,
                                              kPprIterations, c))
                      : std::string("ppr over the wire failed");
    log.expect(error.empty(), error);
  }
}

void check_full_restart(const ServingStack& stack, CheckLog& log) {
  const ps::RankService& service = stack.service();
  ps::RankClient client(stack.port());
  ps::PprRequest full;
  full.iterations = static_cast<std::uint32_t>(service.options().iterations);
  full.topk = kTopk;
  const ps::Response response = client.ppr(full);
  log.expect(
      response.ok() &&
          response.ppr.digest == prpb::core::rank_digest(service.ranks()),
      "full-restart ppr does not reproduce the kernel-3 rank digest");
}

}  // namespace prpbench
