#ifndef XAR_SERVE_CLIENT_H_
#define XAR_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/frame.h"

namespace xar {
namespace serve {

/// Blocking client for the serving layer's frame protocol — the driver the
/// test suites and the soak load generator speak through. One instance is
/// one connection; it is NOT thread-safe (the soak harness gives each
/// client thread its own instance).
///
/// Typed calls (Search/Book/...) are synchronous round trips: send one
/// frame, read responses until the matching tag arrives. Raw frame and
/// byte-level access (SendBytes/SendFrame/ReadFrame) is exposed for the
/// protocol/fuzz suites, which need to write garbage and observe exactly
/// what comes back.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;

  Status Connect(std::uint16_t port, const std::string& host = "127.0.0.1");
  void Close();
  bool connected() const { return fd_ >= 0; }

  // --- Raw access (protocol tests, fuzzing, pipelining) -------------------

  /// Writes raw bytes to the socket (may be a frame fragment or garbage).
  Status SendBytes(const void* data, std::size_t n);

  /// Frames and sends one request. Does not wait for the response.
  Status SendFrame(std::uint64_t tag, Verb verb,
                   const std::vector<std::uint8_t>& payload);

  /// Blocks until one complete response frame arrives (or the timeout/EOF).
  /// Returns ResourceExhausted on timeout and NotFound on a clean EOF.
  Result<Frame> ReadFrame(int timeout_ms = 5000);

  // --- Typed round trips ---------------------------------------------------
  // Application-level failures surface as FailedPrecondition carrying the
  // server's message; a BUSY shed surfaces as ResourceExhausted("BUSY").

  /// One full call: send `verb`, wait for the frame echoing its tag
  /// (out-of-order responses to other tags are parked and delivered to
  /// their own callers later).
  Result<Frame> Call(Verb verb, const std::vector<std::uint8_t>& payload,
                     int timeout_ms = 5000);

  Result<SearchResult> Search(const SearchPayload& request,
                              int timeout_ms = 5000);
  Result<BookingResult> Book(std::uint32_t rider_id, std::uint32_t ride_id,
                             int timeout_ms = 5000);
  Result<BookingResult> SearchAndBook(const SearchPayload& request,
                                      int timeout_ms = 5000);
  Result<std::string> Stats(const std::string& section = "",
                            int timeout_ms = 5000);
  Result<RefreshResult> Refresh(int timeout_ms = 30000);

 private:
  Result<Frame> WaitForTag(std::uint64_t tag, int timeout_ms);
  /// Call, then decode an OK response's payload with `decode`.
  template <typename T>
  Result<T> CallDecoded(Verb verb, const std::vector<std::uint8_t>& payload,
                        int timeout_ms,
                        bool (*decode)(const std::uint8_t*, std::size_t, T*));
  /// Converts a non-OK response frame into the matching Status.
  static Status FrameError(const Frame& frame);

  int fd_ = -1;
  std::uint64_t next_tag_ = 1;
  FrameDecoder decoder_;
  std::vector<Frame> parked_;  ///< responses read while waiting on another tag
};

}  // namespace serve
}  // namespace xar

#endif  // XAR_SERVE_CLIENT_H_
