// Streaming (out-of-core) PFPL interface.
//
// Large simulations cannot always hold a whole snapshot in memory next to
// its compressed form. Because PFPL's chunks are fully independent
// (Section III-E), compression can proceed incrementally: append values,
// and every completed 16 KiB chunk goes through the one-shot chunk encoder
// (core/chunked.hpp) immediately. finish() writes the header and chunk table and
// returns a stream *byte-identical* to the one-shot pfpl::compress() — the
// decoder cannot tell them apart, and StreamDecoder can likewise hand back
// values chunk by chunk without materializing the full output.
//
// NOA needs the global value range before the first chunk can be quantized,
// so the streaming encoder requires it up front via Options::noa_range
// (e.g. known physical bounds); ABS and REL need nothing.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/format.hpp"

namespace repro::pfpl {

class StreamEncoderImpl;
class StreamDecoderImpl;

class StreamEncoder {
 public:
  struct Options {
    double eps = 1e-3;
    EbType eb = EbType::ABS;
    /// Required for NOA: the (max - min) of the full dataset. Like the range
    /// compress() computes, it must be finite and non-negative.
    std::optional<double> noa_range;
  };

  StreamEncoder(DType dtype, const Options& opts);
  ~StreamEncoder();
  StreamEncoder(StreamEncoder&&) noexcept;
  StreamEncoder& operator=(StreamEncoder&&) noexcept;

  /// Append values (any granularity); full chunks are compressed eagerly.
  void append(std::span<const float> values);
  void append(std::span<const double> values);

  /// Values appended so far.
  u64 count() const;

  /// Compressed bytes buffered so far (grows as chunks complete).
  std::size_t compressed_size_so_far() const;

  /// Flush the trailing partial chunk and return the final stream.
  /// The encoder must not be used afterwards.
  Bytes finish();

 private:
  std::unique_ptr<StreamEncoderImpl> impl_;
};

class StreamDecoder {
 public:
  /// The stream is borrowed, not copied; it must outlive the decoder.
  explicit StreamDecoder(const Bytes& stream);
  ~StreamDecoder();
  StreamDecoder(StreamDecoder&&) noexcept;
  StreamDecoder& operator=(StreamDecoder&&) noexcept;

  const Header& header() const;

  /// Remaining values not yet read.
  u64 remaining() const;

  /// Decode up to out.size() values into `out`; returns the number written
  /// (0 at end of stream). Chunks are decoded lazily as needed.
  std::size_t read(std::span<float> out);
  std::size_t read(std::span<double> out);

 private:
  std::unique_ptr<StreamDecoderImpl> impl_;
};

}  // namespace repro::pfpl
