#include "net/frame.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/checksum.hpp"

namespace repro::net {
namespace {

using common::put_le;

// Wire layout of the 40-byte frame header (docs/FORMAT.md §PFPN):
//   0  u32 magic        4  u16 version    6  u8 op        7  u8 dtype
//   8  u16 status      10  u8 eb_type    11  u8 reserved
//  12  u32 payload_crc 16  f64 eps       24  u64 request_id
//  32  u64 payload_len
void encode_header(u8* p, const FrameHeader& h) {
  put_le(p + 0, kFrameMagic);
  put_le(p + 4, kProtocolVersion);
  p[6] = h.op;
  p[7] = h.dtype;
  put_le(p + 8, h.status);
  p[10] = h.eb_type;
  p[11] = 0;
  put_le(p + 12, h.payload_crc);
  put_le(p + 16, h.eps);
  put_le(p + 24, h.request_id);
  put_le(p + 32, h.payload_len);
}

FrameHeader error_header(u64 request_id, u8 request_op, Status st) {
  FrameHeader h;
  h.op = static_cast<u8>((request_op & ~kResponseBit) | kResponseBit);
  h.status = static_cast<u16>(st);
  h.request_id = request_id;
  return h;
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::Compress: return "COMPRESS";
    case Op::Decompress: return "DECOMPRESS";
    case Op::Stats: return "STATS";
    case Op::Ping: return "PING";
    case Op::Shutdown: return "SHUTDOWN";
    case Op::Metrics: return "METRICS";
  }
  return "?";
}

const char* to_string(Status st) {
  switch (st) {
    case Status::Ok: return "Ok";
    case Status::BadFrame: return "BadFrame";
    case Status::CrcMismatch: return "CrcMismatch";
    case Status::BadParams: return "BadParams";
    case Status::CompressFailed: return "CompressFailed";
    case Status::TooLarge: return "TooLarge";
    case Status::Draining: return "Draining";
  }
  return nullptr;
}

std::string status_name(u16 st) {
  if (const char* name = to_string(static_cast<Status>(st))) return name;
  return "Status" + std::to_string(st);
}

void encode_frame_header(FrameHeader h, const void* payload, std::size_t n, u8* out) {
  h.payload_len = n;
  h.payload_crc = common::crc32(payload, n);
  encode_header(out, h);
}

WireFrame wire_frame(const FrameHeader& h, Bytes body) {
  WireFrame w{{}, std::move(body)};
  encode_frame_header(h, w.body.data(), w.body.size(), w.head.data());
  return w;
}

Bytes encode_frame(FrameHeader h, const void* payload, std::size_t n) {
  Bytes out(kFrameHeaderSize + n);
  encode_frame_header(h, payload, n, out.data());
  if (n) std::memcpy(out.data() + kFrameHeaderSize, payload, n);
  return out;
}

WireFrame error_frame(u64 request_id, u8 request_op, Status st,
                      const std::string& message) {
  return wire_frame(error_header(request_id, request_op, st),
                    Bytes(message.begin(), message.end()));
}

Bytes encode_error_frame(u64 request_id, u8 request_op, Status st,
                         const std::string& message) {
  return encode_frame(error_header(request_id, request_op, st), message.data(),
                      message.size());
}

FrameHeader decode_frame_header(const u8* p) {
  common::ByteReader r(p, kFrameHeaderSize, "PFPN");
  if (r.take<u32>() != kFrameMagic) throw NetError("PFPN: bad frame magic");
  const u16 version = r.take<u16>();
  if (version != kProtocolVersion)
    throw NetError("PFPN: unsupported protocol version " + std::to_string(version));
  FrameHeader h;
  h.op = r.take<u8>();
  h.dtype = r.take<u8>();
  h.status = r.take<u16>();
  h.eb_type = r.take<u8>();
  r.take<u8>();  // reserved
  h.payload_crc = r.take<u32>();
  h.eps = r.take<double>();
  h.request_id = r.take<u64>();
  h.payload_len = r.take<u64>();
  return h;
}

FrameParser::FrameParser(std::size_t max_payload) : max_payload_(max_payload) {}

void FrameParser::feed(const void* data, std::size_t n) {
  // Compact the consumed prefix before growing — keeps the buffer bounded by
  // (one frame + one read) instead of the whole connection history.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const u8* p = static_cast<const u8*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

FrameParser::Result FrameParser::fail(Status st, std::string text, bool fatal) {
  err_status_ = st;
  err_text_ = std::move(text);
  if (fatal) fatal_ = true;
  return Result::Error;
}

FrameParser::Result FrameParser::stage() {
  if (fatal_) return Result::Error;  // poisoned: framing can't be trusted
  if (!have_header_) {
    if (buffered() < kFrameHeaderSize) return Result::NeedMore;
    err_request_id_ = 0;
    err_op_ = 0;
    try {
      h_ = decode_frame_header(buf_.data() + pos_);
    } catch (const NetError& e) {
      return fail(Status::BadFrame, e.what(), /*fatal=*/true);
    }
    err_request_id_ = h_.request_id;
    err_op_ = h_.op;
    if (h_.payload_len > max_payload_)
      return fail(Status::TooLarge,
                  "PFPN: declared payload of " + std::to_string(h_.payload_len) +
                      " bytes exceeds the " + std::to_string(max_payload_) + "-byte limit",
                  /*fatal=*/true);
    pos_ += kFrameHeaderSize;
    have_header_ = true;
  }
  if (const auto k = std::min<std::size_t>(buffered(), h_.payload_len - got_)) {
    // Staged bytes: one copy, no zero fill; an unused window goes back first.
    payload_.resize(got_);
    payload_.insert(payload_.end(), buf_.data() + pos_, buf_.data() + pos_ + k);
    pos_ += k;
    got_ += k;
  }
  return got_ == h_.payload_len ? Result::Ready : Result::NeedMore;
}

std::span<u8> FrameParser::room() {
  if (got_ == payload_.size() && got_ < h_.payload_len) {
    // Sized from the bytes that arrived, never from the declared length:
    // a peer that declares 256 MiB and sends one byte pins one step.
    const auto want = std::min<std::size_t>(h_.payload_len, std::max(kRecvStep, 2 * got_));
    payload_.reserve(want);  // exact, unlike resize()'s own growth
    payload_.resize(want);
  }
  return {payload_.data() + got_, payload_.size() - got_};
}

std::span<u8> FrameParser::recv_window() {
  return stage() == Result::NeedMore && have_header_ ? room() : std::span<u8>{};
}

FrameParser::Result FrameParser::next(Frame& out) {
  if (const Result r = stage(); r != Result::Ready) return r;
  have_header_ = false;
  got_ = 0;
  Bytes payload = std::exchange(payload_, {});
  if (common::crc32(payload.data(), payload.size()) != h_.payload_crc) {
    // The declared length matched what arrived, so the stream is still
    // framed — discard this payload and keep the connection parseable.
    return fail(Status::CrcMismatch, "PFPN: payload CRC mismatch", /*fatal=*/false);
  }
  out.header = h_;
  out.payload = std::move(payload);
  return Result::Ready;
}

}  // namespace repro::net
