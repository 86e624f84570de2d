#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/clock.h"

namespace xar {
namespace serve {

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_tag_(other.next_tag_),
      decoder_(std::move(other.decoder_)),
      parked_(std::move(other.parked_)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_tag_ = other.next_tag_;
    decoder_ = std::move(other.decoder_);
    parked_ = std::move(other.parked_);
  }
  return *this;
}

Status ServeClient::Connect(std::uint16_t port, const std::string& host) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::Internal(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Internal(std::string("connect: ") +
                                     std::strerror(errno));
    Close();
    return status;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void ServeClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  decoder_ = FrameDecoder();
  parked_.clear();
}

Status ServeClient::SendBytes(const void* data, std::size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status ServeClient::SendFrame(std::uint64_t tag, Verb verb,
                              const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  AppendFrame(tag, static_cast<std::uint8_t>(verb), payload, &bytes);
  return SendBytes(bytes.data(), bytes.size());
}

Result<Frame> ServeClient::ReadFrame(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  Stopwatch waited;
  for (;;) {
    Frame frame;
    FrameDecoder::Next next = decoder_.Pop(&frame);
    if (next == FrameDecoder::Next::kFrame) return frame;
    if (next == FrameDecoder::Next::kError) {
      return Status::Internal("response framing error: " + decoder_.error());
    }
    const double remaining_ms =
        static_cast<double>(timeout_ms) - waited.ElapsedMillis();
    if (remaining_ms <= 0) return Status::ResourceExhausted("read timeout");
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(remaining_ms) + 1);
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    std::uint8_t buf[4096];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return Status::NotFound("connection closed by server");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
}

Result<Frame> ServeClient::WaitForTag(std::uint64_t tag, int timeout_ms) {
  for (std::size_t i = 0; i < parked_.size(); ++i) {
    if (parked_[i].tag == tag) {
      Frame frame = std::move(parked_[i]);
      parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
      return frame;
    }
  }
  Stopwatch waited;
  for (;;) {
    const double remaining_ms =
        static_cast<double>(timeout_ms) - waited.ElapsedMillis();
    if (remaining_ms <= 0) return Status::ResourceExhausted("read timeout");
    Result<Frame> frame = ReadFrame(static_cast<int>(remaining_ms) + 1);
    if (!frame.ok()) return frame.status();
    if (frame->tag == tag) return frame;
    parked_.push_back(std::move(*frame));
  }
}

Status ServeClient::FrameError(const Frame& frame) {
  const std::string text(frame.payload.begin(), frame.payload.end());
  switch (static_cast<RespStatus>(frame.code)) {
    case RespStatus::kOk:
      return Status::OK();
    case RespStatus::kBusy:
      return Status::ResourceExhausted("BUSY");
    case RespStatus::kMalformed:
      return Status::InvalidArgument("MALFORMED: " + text);
    case RespStatus::kFailed:
      return Status::FailedPrecondition(text.empty() ? "FAILED" : text);
    case RespStatus::kUnknownVerb:
      return Status::Unimplemented("UNKNOWN_VERB");
  }
  return Status::Internal("invalid response status " +
                          std::to_string(frame.code));
}

Result<Frame> ServeClient::Call(Verb verb,
                                const std::vector<std::uint8_t>& payload,
                                int timeout_ms) {
  const std::uint64_t tag = next_tag_++;
  Status sent = SendFrame(tag, verb, payload);
  if (!sent.ok()) return sent;
  return WaitForTag(tag, timeout_ms);
}

template <typename T>
Result<T> ServeClient::CallDecoded(Verb verb,
                                   const std::vector<std::uint8_t>& payload,
                                   int timeout_ms,
                                   bool (*decode)(const std::uint8_t*,
                                                  std::size_t, T*)) {
  Result<Frame> frame = Call(verb, payload, timeout_ms);
  if (!frame.ok()) return frame.status();
  if (frame->code != static_cast<std::uint8_t>(RespStatus::kOk)) {
    return FrameError(*frame);
  }
  T result;
  if (!decode(frame->payload.data(), frame->payload.size(), &result)) {
    return Status::Internal("bad response payload for verb " +
                            std::to_string(static_cast<int>(verb)));
  }
  return result;
}

Result<SearchResult> ServeClient::Search(const SearchPayload& request,
                                         int timeout_ms) {
  std::vector<std::uint8_t> payload;
  EncodeSearch(request, &payload);
  return CallDecoded(Verb::kSearch, payload, timeout_ms, DecodeSearchResult);
}

Result<BookingResult> ServeClient::Book(std::uint32_t rider_id,
                                        std::uint32_t ride_id,
                                        int timeout_ms) {
  std::vector<std::uint8_t> payload;
  EncodeBook({rider_id, ride_id}, &payload);
  return CallDecoded(Verb::kBook, payload, timeout_ms, DecodeBookingResult);
}

Result<BookingResult> ServeClient::SearchAndBook(const SearchPayload& request,
                                                 int timeout_ms) {
  std::vector<std::uint8_t> payload;
  EncodeSearch(request, &payload);
  return CallDecoded(Verb::kSearchAndBook, payload, timeout_ms,
                     DecodeBookingResult);
}

Result<std::string> ServeClient::Stats(const std::string& section,
                                       int timeout_ms) {
  std::vector<std::uint8_t> payload(section.begin(), section.end());
  Result<Frame> frame = Call(Verb::kStats, payload, timeout_ms);
  if (!frame.ok()) return frame.status();
  if (frame->code != static_cast<std::uint8_t>(RespStatus::kOk)) {
    return FrameError(*frame);
  }
  return std::string(frame->payload.begin(), frame->payload.end());
}

Result<RefreshResult> ServeClient::Refresh(int timeout_ms) {
  return CallDecoded(Verb::kRefresh, {}, timeout_ms, DecodeRefreshResult);
}

}  // namespace serve
}  // namespace xar
