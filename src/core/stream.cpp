#include "core/stream.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "core/chunked.hpp"
#include "core/pipeline.hpp"

// Both classes are buffering over the chunk driver (core/chunked.hpp): the
// encoder hands each full chunk to encode_chunk() and finish() to
// assemble_stream(); the decoder reads the table with read_chunk_table() and
// decodes one chunk at a time with decode_chunk().

namespace repro::pfpl {
namespace {

template <typename T>
void check_dtype(DType dtype, const char* what) {
  if ((dtype == DType::F32) != std::is_same_v<T, float>) throw CompressionError(what);
}

}  // namespace

class StreamEncoderImpl {
 public:
  StreamEncoderImpl(DType dtype, const StreamEncoder::Options& opts) {
    if (opts.eb == EbType::NOA && !opts.noa_range)
      throw CompressionError("streaming NOA needs Options::noa_range (global max - min)");
    header_ = plan_bound(dtype, opts.eb, opts.eps, {0.0, opts.noa_range.value_or(0.0)});
  }

  template <typename T>
  void append(std::span<const T> values) {
    check_dtype<T>(header_.dtype, "StreamEncoder: value type does not match configured dtype");
    const u8* src = reinterpret_cast<const u8*>(values.data());
    for (std::size_t left = values.size_bytes(); left > 0;) {
      const std::size_t take = std::min(kChunkBytes - pending_, left);
      std::memcpy(chunk_.data() + pending_, src, take);
      pending_ += take;
      src += take;
      left -= take;
      if (pending_ == kChunkBytes) flush_chunk();
    }
    count_ += values.size();
  }

  u64 count() const { return count_; }
  std::size_t compressed_size_so_far() const { return payload_.size(); }

  Bytes finish() {
    flush_chunk();
    header_.value_count = count_;
    header_.chunk_count = static_cast<u32>(sizes_.size());
    return assemble_stream(header_, sizes_, payload_);
  }

 private:
  /// Encodes the pending values as chunk 0 of a one-chunk field, appending
  /// its payload to the one growing payload buffer.
  void flush_chunk() {
    if (pending_ == 0) return;
    Field f;
    f.data = chunk_.data();
    f.dtype = header_.dtype;
    f.dims = {1, 1, pending_ / dtype_size(header_.dtype)};
    sizes_.push_back(encode_chunk(f, header_, 0, Executor::Serial, payload_));
    pending_ = 0;
  }

  Header header_;
  std::vector<u8> chunk_ = std::vector<u8>(kChunkBytes);  ///< values not yet encoded
  std::size_t pending_ = 0;                               ///< bytes of chunk_ in use
  std::vector<u32> sizes_;
  Bytes payload_;  ///< every encoded chunk, concatenated
  u64 count_ = 0;
};

class StreamDecoderImpl {
 public:
  explicit StreamDecoderImpl(const Bytes& stream)
      : stream_(stream), table_(read_chunk_table(stream)) {}

  const Header& header() const { return table_.header; }
  u64 remaining() const { return table_.header.value_count - read_; }

  template <typename T>
  std::size_t read(std::span<T> out) {
    check_dtype<T>(header().dtype, "StreamDecoder: output type does not match stream dtype");
    std::size_t written = 0;
    while (written < out.size() && remaining() > 0) {
      if (consumed_ == buffered_) {
        decode_chunk(stream_, table_, chunk_, Executor::Serial, staging_.data());
        ++chunk_;
        buffered_ = static_cast<std::size_t>(std::min<u64>(kChunkBytes / sizeof(T), remaining()));
        consumed_ = 0;
      }
      const std::size_t take = std::min(buffered_ - consumed_, out.size() - written);
      std::memcpy(out.data() + written, staging_.data() + consumed_ * sizeof(T), take * sizeof(T));
      consumed_ += take;
      written += take;
      read_ += take;
    }
    return written;
  }

 private:
  const Bytes& stream_;
  ChunkTable table_;
  std::vector<u8> staging_ = std::vector<u8>(kChunkBytes);  ///< the current decoded chunk
  std::size_t chunk_ = 0, buffered_ = 0, consumed_ = 0;     ///< consumed_/buffered_ in values
  u64 read_ = 0;
};

// ---------------------------------------------------------------------------
// Facade plumbing
// ---------------------------------------------------------------------------

StreamEncoder::StreamEncoder(DType dtype, const Options& opts)
    : impl_(std::make_unique<StreamEncoderImpl>(dtype, opts)) {}
StreamEncoder::~StreamEncoder() = default;
StreamEncoder::StreamEncoder(StreamEncoder&&) noexcept = default;
StreamEncoder& StreamEncoder::operator=(StreamEncoder&&) noexcept = default;

void StreamEncoder::append(std::span<const float> v) { impl_->append(v); }
void StreamEncoder::append(std::span<const double> v) { impl_->append(v); }
u64 StreamEncoder::count() const { return impl_->count(); }
std::size_t StreamEncoder::compressed_size_so_far() const {
  return impl_->compressed_size_so_far();
}
Bytes StreamEncoder::finish() { return impl_->finish(); }

StreamDecoder::StreamDecoder(const Bytes& stream)
    : impl_(std::make_unique<StreamDecoderImpl>(stream)) {}
StreamDecoder::~StreamDecoder() = default;
StreamDecoder::StreamDecoder(StreamDecoder&&) noexcept = default;
StreamDecoder& StreamDecoder::operator=(StreamDecoder&&) noexcept = default;

const Header& StreamDecoder::header() const { return impl_->header(); }
u64 StreamDecoder::remaining() const { return impl_->remaining(); }
std::size_t StreamDecoder::read(std::span<float> out) { return impl_->read(out); }
std::size_t StreamDecoder::read(std::span<double> out) { return impl_->read(out); }

}  // namespace repro::pfpl
