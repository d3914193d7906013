// PFPN/1 — the framed wire protocol of the pfpld compression service.
//
// Every message on a connection is one length-prefixed frame:
//
//   +-------------------+ offset 0
//   | frame header 40 B |   magic, version, op, status, params, CRC, length
//   +-------------------+ 40
//   | payload           |   payload_len bytes (raw scalars, PFPL stream,
//   +-------------------+   JSON stats, or UTF-8 error text)
//
// Requests carry op COMPRESS/DECOMPRESS/STATS/PING/SHUTDOWN/METRICS;
// responses echo the request's op with the response bit (0x80) set and the
// same request_id. status == 0 means success; a nonzero status makes the
// frame a *typed error frame* whose payload is a human-readable message. The
// payload is covered by CRC-32 (common/checksum.hpp — the same checksum the
// PFPA archive uses), so a flipped bit in transit is detected before any
// payload byte is interpreted. Full layout spec in docs/FORMAT.md §PFPN.
//
// FrameParser consumes a byte stream *incrementally* (feed() arbitrary
// splits, or recv_window()/commit() to receive a payload straight into its
// frame's buffer; next() yields complete frames) and classifies malformed input:
// recoverable errors (payload CRC mismatch, where the frame boundary is
// still trustworthy) leave the parser usable; framing errors (bad magic,
// wrong version, oversized declared length) poison it, because nothing after
// the corruption can be resynchronized safely.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/types.hpp"

namespace repro::net {

/// Network-layer error (connect/send/recv failures, protocol violations).
class NetError : public CompressionError {
 public:
  using CompressionError::CompressionError;
};

/// Error reported by the *server* in a typed error frame. Carrying the
/// status lets callers distinguish "server said no" (no point retrying)
/// from transport failures (retry-once-on-reconnect territory).
class RemoteError : public NetError {
 public:
  RemoteError(u16 status, const std::string& what) : NetError(what), status_(status) {}
  u16 status() const { return status_; }

 private:
  u16 status_;
};

inline constexpr u32 kFrameMagic = 0x4E504650;  // "PFPN" little-endian
inline constexpr u16 kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 40;

/// Request operations. A response echoes the op with kResponseBit set.
enum class Op : u8 {
  Compress = 1,    ///< payload: raw scalars; response payload: PFPL stream
  Decompress = 2,  ///< payload: PFPL stream; response payload: raw scalars
  Stats = 3,       ///< empty payload; response payload: server-stats JSON
  Ping = 4,        ///< empty payload; response: empty payload
  Shutdown = 5,    ///< begin graceful drain; response: empty payload
  Metrics = 6,     ///< payload: "" or "json" for JSON, "prom" for Prometheus
                   ///< text; response payload: the rendered metrics document
  // 7 and 8 are retired (SHARDMAP, HEALTH), and 9-11 (STREAM_OPEN,
  // STREAM_FRAME, STREAM_CLOSE); never reuse them.
};

inline constexpr u8 kResponseBit = 0x80;

/// Typed error codes carried in FrameHeader::status of error frames.
enum class Status : u16 {
  Ok = 0,
  BadFrame = 1,        ///< malformed header / unsupported op or version
  CrcMismatch = 2,     ///< payload CRC-32 did not match the header
  BadParams = 3,       ///< invalid dtype/eb/eps/payload-size combination
  CompressFailed = 4,  ///< the compressor rejected the request (error text)
  TooLarge = 5,        ///< declared payload_len over the server's limit
  Draining = 6,        ///< server is draining; request rejected
  // 7 (wrong shard), 8 (BadSession) and 9 (SessionLimit) are retired;
  // never reuse them.
};

const char* to_string(Op op);
const char* to_string(Status st);

/// Name for a wire-level status value, including ones this build does not
/// know: known codes render as the enumerator name ("CrcMismatch"), unknown
/// ones as "Status<N>" — so error messages from newer peers stay readable.
std::string status_name(u16 st);

/// Decoded frame header (wire layout in docs/FORMAT.md §PFPN).
struct FrameHeader {
  u8 op = 0;          ///< Op value; responses set kResponseBit
  u8 dtype = 0;       ///< DType value (COMPRESS requests/responses)
  u16 status = 0;     ///< Status value; nonzero marks an error frame
  u8 eb_type = 0;     ///< EbType value (COMPRESS requests/responses)
  u32 payload_crc = 0;
  double eps = 0;
  u64 request_id = 0;
  u64 payload_len = 0;

  bool is_response() const { return (op & kResponseBit) != 0; }
  u8 base_op() const { return op & static_cast<u8>(~kResponseBit); }
};

struct Frame {
  FrameHeader header;
  Bytes payload;
};

/// Write the 40-byte header of `h` to `out`, with payload_len and
/// payload_crc taken from the payload it will precede.
void encode_frame_header(FrameHeader h, const void* payload, std::size_t n, u8* out);

/// A frame kept in two parts for a scatter-gather send: its encoded header
/// and the payload that header covers, owned and never copied.
struct WireFrame {
  std::array<u8, kFrameHeaderSize> head{};
  Bytes body;
  std::size_t size() const { return head.size() + body.size(); }
};

WireFrame wire_frame(const FrameHeader& h, Bytes body);

/// Serialize a frame: fills in payload_len and payload_crc from the payload.
Bytes encode_frame(FrameHeader h, const void* payload, std::size_t n);
inline Bytes encode_frame(FrameHeader h, const Bytes& payload) {
  return encode_frame(h, payload.data(), payload.size());
}

/// Build a typed error *response* frame: op = request op | response bit,
/// status = `st`, payload = UTF-8 `message`.
WireFrame error_frame(u64 request_id, u8 request_op, Status st,
                      const std::string& message);
/// The same frame as one buffer.
Bytes encode_error_frame(u64 request_id, u8 request_op, Status st,
                         const std::string& message);

/// Decode a 40-byte header. Throws NetError on bad magic or version.
FrameHeader decode_frame_header(const u8* p);

/// Incremental frame parser over a per-connection byte stream.
class FrameParser {
 public:
  /// `max_payload` caps the *declared* payload length; a header declaring
  /// more is a framing error (the sender could otherwise make the parser
  /// buffer arbitrary memory before any payload byte arrives).
  explicit FrameParser(std::size_t max_payload = 256u << 20);

  /// A frame's payload buffer grows to this many bytes, or to twice the
  /// bytes that have arrived, whichever is larger.
  static constexpr std::size_t kRecvStep = std::size_t{1} << 20;

  /// Append raw bytes received from the peer.
  void feed(const void* data, std::size_t n);

  /// Free room at the end of the current frame's payload buffer, to receive
  /// into directly; empty until a header is parsed and once the payload is
  /// complete. Report the bytes written there with commit().
  std::span<u8> recv_window();
  void commit(std::size_t n) { got_ += n; }

  enum class Result {
    NeedMore,  ///< no complete frame buffered yet
    Ready,     ///< `out` holds the next frame
    Error,     ///< malformed input; see status()/error()/fatal()
  };

  /// Extract the next complete frame. After a non-fatal Error (CRC mismatch)
  /// the offending frame is discarded and parsing continues with the next
  /// call; after a fatal Error every subsequent call returns Error again.
  Result next(Frame& out);

  bool fatal() const { return fatal_; }
  Status status() const { return err_status_; }
  const std::string& error() const { return err_text_; }
  /// Best-effort request id / op of the frame that caused the last Error
  /// (0 when the header itself was unreadable) — what the server echoes in
  /// the typed error frame.
  u64 error_request_id() const { return err_request_id_; }
  u8 error_op() const { return err_op_; }

  std::size_t buffered() const { return buf_.size() - pos_; }
  std::size_t max_payload() const { return max_payload_; }
  /// Heap bytes held: the staging buffer plus the current frame's buffer.
  std::size_t held_bytes() const { return buf_.capacity() + payload_.capacity(); }

 private:
  Result fail(Status st, std::string text, bool fatal);
  /// Parse a header if none is pending, then move staged bytes into the
  /// frame's payload buffer: Ready once the whole payload is there.
  Result stage();
  /// The free tail of payload_, grown by one step when it is full.
  std::span<u8> room();

  Bytes buf_;            ///< staging: bytes not yet claimed by a frame
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  std::size_t max_payload_;
  bool have_header_ = false;
  FrameHeader h_{};
  Bytes payload_;        ///< the current frame's payload buffer
  std::size_t got_ = 0;  ///< payload bytes received into payload_
  bool fatal_ = false;
  Status err_status_ = Status::Ok;
  std::string err_text_;
  u64 err_request_id_ = 0;
  u8 err_op_ = 0;
};

}  // namespace repro::net
