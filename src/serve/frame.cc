#include "serve/frame.h"

#include <cstring>

namespace xar {
namespace serve {

const char* RespStatusName(RespStatus status) {
  switch (status) {
    case RespStatus::kOk: return "OK";
    case RespStatus::kBusy: return "BUSY";
    case RespStatus::kMalformed: return "MALFORMED";
    case RespStatus::kFailed: return "FAILED";
    case RespStatus::kUnknownVerb: return "UNKNOWN_VERB";
  }
  return "INVALID";
}

// --- ByteWriter / ByteReader ----------------------------------------------

void ByteWriter::PutU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PutU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PutF64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutBytes(const void* data, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  out_->insert(out_->end(), p, p + n);
}

bool ByteReader::GetU8(std::uint8_t* v) {
  if (remaining() < 1) return false;
  *v = data_[pos_++];
  return true;
}

bool ByteReader::GetU32(std::uint32_t* v) {
  if (remaining() < 4) return false;
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return true;
}

bool ByteReader::GetU64(std::uint64_t* v) {
  if (remaining() < 8) return false;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return true;
}

bool ByteReader::GetF64(double* v) {
  std::uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

// --- Framing ---------------------------------------------------------------

void AppendFrame(std::uint64_t tag, std::uint8_t code,
                 const std::uint8_t* payload, std::size_t payload_len,
                 std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.PutU32(static_cast<std::uint32_t>(kMinBodyBytes + payload_len));
  w.PutU64(tag);
  w.PutU8(code);
  if (payload_len > 0) w.PutBytes(payload, payload_len);
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t n) {
  if (!error_.empty()) return;  // desynced: drop everything after the error
  // Drop the consumed prefix: a reader that pops every complete frame
  // before the next Feed holds at most one partial frame plus `n` bytes.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Next FrameDecoder::Pop(Frame* out) {
  if (!error_.empty()) return Next::kError;
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Next::kNeedMore;
  ByteReader header(buf_.data() + pos_, kFrameHeaderBytes);
  std::uint32_t body_len = 0;
  header.GetU32(&body_len);
  if (body_len < kMinBodyBytes) {
    error_ = "undersized frame body (" + std::to_string(body_len) + " bytes)";
    return Next::kError;
  }
  if (body_len > max_body_bytes_) {
    error_ = "oversized frame body (" + std::to_string(body_len) +
             " > max " + std::to_string(max_body_bytes_) + ")";
    return Next::kError;
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes + body_len) return Next::kNeedMore;
  ByteReader body(buf_.data() + pos_ + kFrameHeaderBytes, body_len);
  body.GetU64(&out->tag);
  body.GetU8(&out->code);
  out->payload.assign(body.cursor(), body.cursor() + body.remaining());
  pos_ += kFrameHeaderBytes + body_len;
  return Next::kFrame;
}

// --- Payload codecs --------------------------------------------------------

void EncodeSearch(const SearchPayload& p, std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.PutU32(p.rider_id);
  w.PutF64(p.source_lat);
  w.PutF64(p.source_lng);
  w.PutF64(p.dest_lat);
  w.PutF64(p.dest_lng);
  w.PutF64(p.earliest_departure_s);
  w.PutF64(p.latest_departure_s);
  w.PutF64(p.walk_limit_m);
  w.PutU32(p.top_k);
}

bool DecodeSearch(const std::uint8_t* data, std::size_t n, SearchPayload* p) {
  ByteReader r(data, n);
  return r.GetU32(&p->rider_id) && r.GetF64(&p->source_lat) &&
         r.GetF64(&p->source_lng) && r.GetF64(&p->dest_lat) &&
         r.GetF64(&p->dest_lng) && r.GetF64(&p->earliest_departure_s) &&
         r.GetF64(&p->latest_departure_s) && r.GetF64(&p->walk_limit_m) &&
         r.GetU32(&p->top_k) && r.AtEnd();
}

void EncodeBook(const BookPayload& p, std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.PutU32(p.rider_id);
  w.PutU32(p.ride_id);
}

bool DecodeBook(const std::uint8_t* data, std::size_t n, BookPayload* p) {
  ByteReader r(data, n);
  return r.GetU32(&p->rider_id) && r.GetU32(&p->ride_id) && r.AtEnd();
}

void EncodeSearchResult(const SearchResult& res,
                        std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.PutU32(static_cast<std::uint32_t>(res.matches.size()));
  for (const MatchRow& m : res.matches) {
    w.PutU32(m.ride_id);
    w.PutF64(m.walk_m);
    w.PutF64(m.eta_s);
    w.PutF64(m.detour_m);
  }
}

bool DecodeSearchResult(const std::uint8_t* data, std::size_t n,
                        SearchResult* res) {
  ByteReader r(data, n);
  std::uint32_t count = 0;
  if (!r.GetU32(&count)) return false;
  // 28 bytes per row; reject counts the payload cannot hold before
  // reserving anything.
  if (r.remaining() != static_cast<std::size_t>(count) * 28) return false;
  res->matches.resize(count);
  for (MatchRow& m : res->matches) {
    if (!r.GetU32(&m.ride_id) || !r.GetF64(&m.walk_m) || !r.GetF64(&m.eta_s) ||
        !r.GetF64(&m.detour_m)) {
      return false;
    }
  }
  return r.AtEnd();
}

void EncodeBookingResult(const BookingResult& res,
                         std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.PutU32(res.ride_id);
  w.PutF64(res.pickup_eta_s);
  w.PutF64(res.dropoff_eta_s);
  w.PutF64(res.detour_m);
  w.PutF64(res.walk_m);
}

bool DecodeBookingResult(const std::uint8_t* data, std::size_t n,
                         BookingResult* res) {
  ByteReader r(data, n);
  return r.GetU32(&res->ride_id) && r.GetF64(&res->pickup_eta_s) &&
         r.GetF64(&res->dropoff_eta_s) && r.GetF64(&res->detour_m) &&
         r.GetF64(&res->walk_m) && r.AtEnd();
}

void EncodeRefreshResult(const RefreshResult& res,
                         std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.PutU64(res.epoch);
  w.PutF64(res.rebuild_ms);
}

bool DecodeRefreshResult(const std::uint8_t* data, std::size_t n,
                         RefreshResult* res) {
  ByteReader r(data, n);
  return r.GetU64(&res->epoch) && r.GetF64(&res->rebuild_ms) && r.AtEnd();
}

}  // namespace serve
}  // namespace xar
