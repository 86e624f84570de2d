#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <limits>
#include <memory>
#include <unordered_map>

#include "trace.h"

namespace perfbench {
namespace {

using xar::serve::AppendFrame;
using xar::serve::BookingResult;
using xar::serve::BookPayload;
using xar::serve::Frame;
using xar::serve::FrameDecoder;
using xar::serve::RespStatus;
using xar::serve::SearchPayload;
using xar::serve::SearchResult;
using xar::serve::Verb;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long a phase waits for answers after its last due time. The server
/// answers every request it accepted, so this only bounds a hung run: an
/// overloaded ladder rung can leave up to a full queue per worker to drain.
constexpr std::int64_t kDrainNs = 30'000'000'000;

/// One nonblocking-read, blocking-write loopback connection.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(std::uint64_t tag, Verb verb,
            const std::vector<std::uint8_t>& payload) {
    out_.clear();
    AppendFrame(tag, static_cast<std::uint8_t>(verb), payload, &out_);
    std::size_t sent = 0;
    while (sent < out_.size()) {
      ssize_t w = ::send(fd_, out_.data() + sent, out_.size() - sent,
                         MSG_NOSIGNAL);
      if (w > 0) {
        sent += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  int fd() const { return fd_; }

  /// Reads whatever bytes are available into the decoder. False on EOF or
  /// a socket error.
  bool ReadAvailable() {
    std::uint8_t buf[16384];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.Feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      } else if (n == 0) {
        return false;
      } else {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
    }
  }

  FrameDecoder::Next Pop(Frame* frame) { return decoder_.Pop(frame); }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> out_;
};

struct InFlight {
  Verb verb = Verb::kSearch;
  std::int64_t due_ns = 0;
  std::size_t index = 0;  ///< request index within the phase
  std::uint32_t rider = 0;
  double quoted_eta_s = 0.0;  ///< BOOK: the top match's ETA in the SEARCH
};

void RecordAnswer(TrafficMix mix, const InFlight& req, const Frame& frame,
                  std::int64_t now_ns, Connection* conn,
                  std::uint64_t* next_tag,
                  std::unordered_map<std::uint64_t, InFlight>* in_flight,
                  PhaseResult* result) {
  PhaseResult& r = *result;
  const double latency_us = static_cast<double>(now_ns - req.due_ns) * 1e-3;
  const RespStatus status = static_cast<RespStatus>(frame.code);
  const bool is_search = req.verb == Verb::kSearch;
  VerbTally& tally = is_search ? r.search : r.book;
  if (status == RespStatus::kBusy) ++r.busy;

  if (is_search) {
    SearchResult result;
    if (status != RespStatus::kOk ||
        !xar::serve::DecodeSearchResult(frame.payload.data(),
                                        frame.payload.size(), &result)) {
      ++tally.failed;
      tally.latency_us.push_back(kInf);
      return;
    }
    ++tally.ok;
    tally.latency_us.push_back(latency_us);
    if (mix == TrafficMix::kLook &&
        req.index % kLookToBook == kLookToBook - 1) {
      if (result.matches.empty()) {
        ++r.books_skipped;
        return;
      }
      std::vector<std::uint8_t> payload;
      xar::serve::EncodeBook(BookPayload{req.rider, result.matches[0].ride_id},
                             &payload);
      const std::uint64_t tag = (*next_tag)++;
      ++r.book.attempted;
      ++r.sent;
      (*in_flight)[tag] = InFlight{Verb::kBook, now_ns, req.index, req.rider,
                                   result.matches[0].eta_s};
      if (!conn->Send(tag, Verb::kBook, payload)) ++r.transport_errors;
    }
    return;
  }

  BookingResult booking;
  if (status == RespStatus::kOk &&
      xar::serve::DecodeBookingResult(frame.payload.data(),
                                      frame.payload.size(), &booking)) {
    ++tally.ok;
    tally.latency_us.push_back(latency_us);
    r.landed.push_back({req.rider, booking.ride_id, booking.pickup_eta_s,
                        booking.detour_m, req.quoted_eta_s});
    r.booking_outcomes.emplace_back(req.index, true);
  } else if (status == RespStatus::kFailed) {
    ++tally.not_booked;
    tally.latency_us.push_back(latency_us);
    r.booking_outcomes.emplace_back(req.index, false);
  } else {
    ++tally.failed;
    tally.latency_us.push_back(kInf);
  }
}

/// The generator: one thread owning every connection, busy-polling them
/// between due times instead of sleeping: on a virtual machine a sleeping
/// thread's wake-up can be delayed by milliseconds, which would make the
/// generator late and charge its own delay to the server. The cost is one
/// vCPU kept busy for the length of a phase.
void RunGenerator(std::uint16_t port, TrafficMix mix,
                  const std::vector<SearchPayload>& templates,
                  std::size_t template_base, std::uint32_t rider_base,
                  double rate_rps, std::size_t total, PhaseResult* result) {
  PhaseResult& r = *result;
  struct Link {
    std::unique_ptr<Connection> conn;
    std::unordered_map<std::uint64_t, InFlight> in_flight;
    std::uint64_t next_tag = 1;
    bool broken = false;
  };
  std::vector<Link> links(kConnections);
  std::vector<pollfd> fds(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    links[c].conn = std::make_unique<Connection>(port);
    links[c].broken = !links[c].conn->ok();
    fds[c] = pollfd{links[c].conn->fd(), POLLIN, 0};
  }
  // Start slightly in the future so the connections are accepted before the
  // first request is due.
  const std::int64_t t0_ns = NowNs() + 20'000'000;
  const double ns_per_request = 1e9 / rate_rps;
  auto due_of = [&](std::size_t i) {
    return t0_ns + static_cast<std::int64_t>(static_cast<double>(i) *
                                             ns_per_request);
  };
  const std::int64_t last_due_ns = due_of(total);
  const Verb verb =
      mix == TrafficMix::kLook ? Verb::kSearch : Verb::kSearchAndBook;
  std::size_t next_index = 0;
  bool backlog_taken = false;
  auto outstanding = [&] {
    std::size_t n = 0;
    for (const Link& l : links) n += l.in_flight.size();
    return n;
  };

  for (;;) {
    std::int64_t now = NowNs();
    while (next_index < total && due_of(next_index) <= now) {
      const std::size_t i = next_index++;
      Link& link = links[i % kConnections];
      VerbTally& tally = verb == Verb::kSearch ? r.search : r.book;
      ++tally.attempted;
      if (link.broken) {
        ++tally.failed;
        tally.latency_us.push_back(kInf);
        continue;
      }
      SearchPayload p = templates[(template_base + i) % templates.size()];
      p.rider_id = rider_base + static_cast<std::uint32_t>(i);
      std::vector<std::uint8_t> payload;
      xar::serve::EncodeSearch(p, &payload);
      const std::uint64_t tag = link.next_tag++;
      ++r.sent;
      r.lag_us.push_back(static_cast<double>(now - due_of(i)) * 1e-3);
      link.in_flight[tag] = InFlight{verb, due_of(i), i, p.rider_id};
      if (!link.conn->Send(tag, verb, payload)) {
        ++r.transport_errors;
        link.broken = true;
      }
      now = NowNs();
    }
    if (!backlog_taken && now >= last_due_ns) {
      r.backlog = outstanding();
      backlog_taken = true;
    }
    if (next_index >= total && outstanding() == 0) break;
    if (now >= last_due_ns + kDrainNs) break;

    const timespec no_wait{0, 0};
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = links[c].broken ? -1 : links[c].conn->fd();
      fds[c].revents = 0;
    }
    if (::ppoll(fds.data(), fds.size(), &no_wait, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < kConnections; ++c) {
      Link& link = links[c];
      if (fds[c].revents == 0 || link.broken) continue;
      if (!link.conn->ReadAvailable()) {
        ++r.transport_errors;
        link.broken = true;
      }
      Frame frame;
      FrameDecoder::Next next;
      while ((next = link.conn->Pop(&frame)) == FrameDecoder::Next::kFrame) {
        auto it = link.in_flight.find(frame.tag);
        if (it == link.in_flight.end()) {
          ++r.duplicates;
          continue;
        }
        const InFlight req = it->second;
        link.in_flight.erase(it);
        ++r.answered;
        RecordAnswer(mix, req, frame, NowNs(), link.conn.get(), &link.next_tag,
                     &link.in_flight, &r);
      }
      if (next == FrameDecoder::Next::kError) {
        ++r.transport_errors;
        link.broken = true;
      }
    }
  }
  if (!backlog_taken) r.backlog = outstanding();
  // Whatever is still unanswered (drain timeout, broken connection) failed.
  for (const Link& link : links) {
    for (const auto& [tag, req] : link.in_flight) {
      VerbTally& tally = req.verb == Verb::kSearch ? r.search : r.book;
      ++tally.failed;
      tally.latency_us.push_back(kInf);
    }
  }
}

}  // namespace

PhaseResult RunPhase(std::uint16_t port, TrafficMix mix,
                     const std::vector<SearchPayload>& templates,
                     double rate_rps, double duration_s,
                     std::size_t* next_template, std::uint32_t* next_rider) {
  const std::size_t total =
      static_cast<std::size_t>(rate_rps * duration_s + 0.5);
  PhaseResult result;
  RunGenerator(port, mix, templates, *next_template, *next_rider, rate_rps,
               total, &result);
  *next_template += total;
  *next_rider += static_cast<std::uint32_t>(total);
  std::sort(result.booking_outcomes.begin(), result.booking_outcomes.end());
  return result;
}

}  // namespace perfbench
