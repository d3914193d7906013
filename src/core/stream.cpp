#include "core/stream.hpp"

#include <cstring>
#include <variant>

#include "core/pipeline.hpp"
#include "core/quantizers.hpp"
#include "fpmath/det_math.hpp"

namespace repro::pfpl {
namespace {

template <typename T>
struct TypedState {
  std::variant<AbsQuantizer<T>, RelQuantizer<T>> quant;
  std::vector<T> pending;  // < one chunk of raw values

  explicit TypedState(const Header& h)
      : quant(h.eb_type == EbType::REL
                  ? std::variant<AbsQuantizer<T>, RelQuantizer<T>>(
                        RelQuantizer<T>(h.eps, h.recon_param))
                  : std::variant<AbsQuantizer<T>, RelQuantizer<T>>(
                        AbsQuantizer<T>(h.recon_param))) {}
};

}  // namespace

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

class StreamEncoderImpl {
 public:
  StreamEncoderImpl(DType dtype, const StreamEncoder::Options& opts) {
    header_.dtype = dtype;
    header_.eb_type = opts.eb;
    header_.eps = opts.eps;
    switch (opts.eb) {
      case EbType::ABS:
        header_.recon_param = opts.eps;
        break;
      case EbType::REL:
        header_.recon_param = fpmath::det_log1p(opts.eps);
        break;
      case EbType::NOA:
        if (!opts.noa_range)
          throw CompressionError(
              "streaming NOA needs Options::noa_range (global max - min)");
        header_.recon_param = opts.eps * *opts.noa_range;
        break;
    }
    if (dtype == DType::F32)
      state_.emplace<TypedState<float>>(header_);
    else
      state_.emplace<TypedState<double>>(header_);
  }

  template <typename T>
  void append(std::span<const T> values) {
    if (!std::holds_alternative<TypedState<T>>(state_))
      throw CompressionError("StreamEncoder: value type does not match configured dtype");
    auto& st = std::get<TypedState<T>>(state_);
    constexpr std::size_t cw = chunk_words<typename fpmath::FloatTraits<T>::Bits>();
    std::size_t i = 0;
    while (i < values.size()) {
      std::size_t take = std::min(cw - st.pending.size(), values.size() - i);
      st.pending.insert(st.pending.end(), values.begin() + i, values.begin() + i + take);
      i += take;
      if (st.pending.size() == cw) flush_chunk<T>();
    }
    count_ += values.size();
  }

  u64 count() const { return count_; }
  std::size_t compressed_size_so_far() const { return payload_.size(); }

  Bytes finish() {
    if (header_.dtype == DType::F32) {
      if (!std::get<TypedState<float>>(state_).pending.empty()) flush_chunk<float>();
    } else {
      if (!std::get<TypedState<double>>(state_).pending.empty()) flush_chunk<double>();
    }
    header_.value_count = count_;
    header_.chunk_count = static_cast<u32>(sizes_.size());
    Bytes out;
    out.reserve(sizeof(Header) + sizes_.size() * 4 + payload_.size());
    write_header(header_, out);
    const u8* sp = reinterpret_cast<const u8*>(sizes_.data());
    out.insert(out.end(), sp, sp + sizes_.size() * 4);
    out.insert(out.end(), payload_.begin(), payload_.end());
    return out;
  }

 private:
  template <typename T>
  void flush_chunk() {
    using Bits = typename fpmath::FloatTraits<T>::Bits;
    auto& st = std::get<TypedState<T>>(state_);
    std::vector<Bits> words(st.pending.size());
    std::visit(
        [&](const auto& q) { q.encode_block(st.pending.data(), words.data(), words.size()); },
        st.quant);
    std::size_t start = payload_.size();
    bool compressed = chunk_encode(words.data(), words.size(), payload_);
    u32 sz = static_cast<u32>(payload_.size() - start);
    sizes_.push_back(compressed ? sz : (sz | kRawChunkFlag));
    st.pending.clear();
  }

  Header header_;
  std::variant<std::monostate, TypedState<float>, TypedState<double>> state_;
  std::vector<u32> sizes_;
  std::vector<u8> payload_;
  u64 count_ = 0;
};

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

class StreamDecoderImpl {
 public:
  explicit StreamDecoderImpl(const Bytes& stream) : stream_(stream) {
    header_ = read_header(stream);
    // Same header-consistency validation as the one-shot decoder.
    const u64 cw = header_.dtype == DType::F32 ? chunk_words<u32>() : chunk_words<u64>();
    const u64 n = header_.value_count;
    if (n / cw + (n % cw != 0 ? 1 : 0) != header_.chunk_count)
      throw CompressionError("PFPL stream: header value/chunk count mismatch");
    table_off_ = sizeof(Header);
    if (stream.size() < table_off_ + header_.chunk_count * 4)
      throw CompressionError("PFPL stream: truncated chunk table");
    sizes_.resize(header_.chunk_count);
    if (header_.chunk_count > 0)  // an empty field has no table
      std::memcpy(sizes_.data(), stream.data() + table_off_, header_.chunk_count * 4);
    payload_off_ = table_off_ + header_.chunk_count * 4;
    if (header_.dtype == DType::F32)
      state_.emplace<TypedState<float>>(header_);
    else
      state_.emplace<TypedState<double>>(header_);
  }

  const Header& header() const { return header_; }
  u64 remaining() const { return header_.value_count - read_; }

  template <typename T>
  std::size_t read(std::span<T> out) {
    using Bits = typename fpmath::FloatTraits<T>::Bits;
    constexpr std::size_t cw = chunk_words<Bits>();
    if (!std::holds_alternative<TypedState<T>>(state_))
      throw CompressionError("StreamDecoder: output type does not match stream dtype");
    auto& st = std::get<TypedState<T>>(state_);
    std::size_t written = 0;
    while (written < out.size() && remaining() > 0) {
      if (buffered_values_ == consumed_values_) {
        // Decode the next chunk into the staging buffer.
        std::size_t k =
            static_cast<std::size_t>(std::min<u64>(cw, header_.value_count - decoded_values_));
        std::size_t csize = sizes_[chunk_] & ~kRawChunkFlag;
        std::size_t off = payload_off_ + offset_;
        if (off + csize > stream_.size())
          throw CompressionError("PFPL stream: truncated chunk");
        std::vector<Bits> words(k);
        check_chunk_consumed(chunk_decode(stream_.data() + off, csize,
                                          (sizes_[chunk_] & kRawChunkFlag) == 0, words.data(), k),
                             csize);
        staging_.resize(k * sizeof(T));
        T* vals = reinterpret_cast<T*>(staging_.data());
        std::visit([&](const auto& q) { q.decode_block(words.data(), vals, k); }, st.quant);
        offset_ += csize;
        ++chunk_;
        decoded_values_ += k;
        buffered_values_ = k;
        consumed_values_ = 0;
      }
      std::size_t avail = buffered_values_ - consumed_values_;
      std::size_t take = std::min(avail, out.size() - written);
      const T* src = reinterpret_cast<const T*>(staging_.data()) + consumed_values_;
      std::copy(src, src + take, out.begin() + written);
      consumed_values_ += take;
      written += take;
      read_ += take;
    }
    return written;
  }

 private:
  const Bytes& stream_;
  Header header_;
  std::size_t table_off_ = 0, payload_off_ = 0;
  std::vector<u32> sizes_;
  std::variant<std::monostate, TypedState<float>, TypedState<double>> state_;
  std::vector<u8> staging_;  ///< one decoded chunk of scalar bytes
  std::size_t chunk_ = 0;
  u64 offset_ = 0;
  u64 decoded_values_ = 0;
  std::size_t buffered_values_ = 0, consumed_values_ = 0;
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
