#include "temporal/temporal.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "core/chunked.hpp"
#include "fpmath/bound.hpp"
#include "metrics/error_stats.hpp"
#include "obs/metrics.hpp"

namespace repro::temporal {
namespace {

struct TemporalMetrics {
  obs::Counter& frames;
  obs::Counter& iframes;
  obs::Counter& pframes;
  obs::Counter& chunks_predicted;
  obs::Counter& chunks_intra;
  obs::Counter& audit_fallbacks;
  obs::Counter& audit_values;
  obs::Counter& violations;  ///< the zero-baseline invariant: stays 0
};

TemporalMetrics& temporal_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static TemporalMetrics m{r.counter("temporal.frames"),
                           r.counter("temporal.iframes"),
                           r.counter("temporal.pframes"),
                           r.counter("temporal.chunks_predicted"),
                           r.counter("temporal.chunks_intra"),
                           r.counter("temporal.audit_fallbacks"),
                           r.counter("temporal.audit_values"),
                           r.counter("temporal.violations")};
  return m;
}

template <typename T>
double min_normal() {
  return static_cast<double>(std::numeric_limits<T>::min());
}

double min_normal_of(DType t) {
  return t == DType::F32 ? min_normal<float>() : min_normal<double>();
}

void validate_config(const SessionConfig& cfg) {
  if (cfg.frame_values() == 0)
    throw CompressionError("temporal: frame shape has zero values");
  switch (cfg.eb) {
    case EbType::ABS:
      if (!(cfg.eps >= min_normal_of(cfg.dtype)))
        throw CompressionError("temporal: ABS bound below the smallest positive normal");
      break;
    case EbType::REL:
      if (!(cfg.eps > 0)) throw CompressionError("temporal: REL bound must be > 0");
      break;
    case EbType::NOA:
      if (!(cfg.eps >= 0)) throw CompressionError("temporal: NOA bound must be >= 0");
      break;
  }
}

std::array<std::size_t, 3> field_dims(const SessionConfig& cfg) {
  return {cfg.dims[0], cfg.dims[1], cfg.dims[2]};
}

/// Cheap coded-size model for the sampled probe: bits to store one value as
/// a bin under the derived bound (log2 of the bin magnitude). The absolute
/// scale is irrelevant — only the direct-vs-residual comparison matters.
double probe_cost(double v, double inv_two_eps) {
  if (!std::isfinite(v)) return 64.0;  // lossless storage, worst case
  return std::log2(std::fabs(v) * inv_two_eps + 1.0);
}

}  // namespace

bool chunk_predicted(const Bytes& modes, std::size_t i) {
  const std::size_t byte = i >> 3;
  if (byte >= modes.size()) return false;
  return (modes[byte] >> (i & 7)) & 1;
}

FrameEncoder::FrameEncoder(const SessionConfig& cfg) : cfg_(cfg) {
  validate_config(cfg_);
}

EncodedFrame FrameEncoder::encode(const Field& frame, u64 frame_index) {
  if (frame.dtype != cfg_.dtype)
    throw CompressionError("temporal: frame dtype does not match the session");
  if (frame.count() != cfg_.frame_values())
    throw CompressionError("temporal: frame has " + std::to_string(frame.count()) +
                           " values, session expects " +
                           std::to_string(cfg_.frame_values()));
  return cfg_.dtype == DType::F32 ? encode_typed<float>(frame, frame_index)
                                  : encode_typed<double>(frame, frame_index);
}

template <typename T>
EncodedFrame FrameEncoder::encode_typed(const Field& frame, u64 frame_index) {
  auto& m = temporal_metrics();
  const std::size_t count = cfg_.frame_values();
  const std::size_t cv = pfpl::chunk_values(cfg_.dtype);
  const std::size_t chunks = (count + cv - 1) / cv;
  const T* vals = static_cast<const T*>(frame.data);
  const Field sized(vals, field_dims(cfg_));

  bool want_intra = reference_.empty() || cfg_.eb == EbType::REL ||
                    (cfg_.keyframe_interval > 0 &&
                     frames_encoded_ % cfg_.keyframe_interval == 0);

  // Derive the absolute bound a P frame's mixed stream would be coded under.
  double abs_bound = cfg_.eps;
  if (!want_intra && cfg_.eb == EbType::NOA) {
    abs_bound = fpmath::noa_bound(cfg_.eps, std::span<const T>(vals, count));
    if (!(abs_bound >= min_normal<T>())) want_intra = true;  // PFPL ABS floor
  }

  EncodedFrame out;
  out.frame_index = frame_index;

  // Guard band: the residual cast to T and the closed-loop add (ref + hat,
  // rounded back to T) each cost up to an ulp at the operand magnitude, so a
  // residual coded at exactly abs_bound can reconstruct marginally past the
  // session bound and waste the whole P frame on the audit fallback. Code
  // the mixed stream a few ulps tighter instead — the ratio cost is
  // invisible, the fallback rate drops to ~zero.
  double coded_bound = 0.0;
  if (!want_intra) {
    const T* ref = reinterpret_cast<const T*>(reference_.data());
    double max_mag = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const double a = std::fabs(static_cast<double>(vals[i]));
      const double b = std::fabs(static_cast<double>(ref[i]));
      if (std::isfinite(a) && a > max_mag) max_mag = a;
      if (std::isfinite(b) && b > max_mag) max_mag = b;
    }
    coded_bound =
        abs_bound -
        4.0 * max_mag * static_cast<double>(std::numeric_limits<T>::epsilon());
    if (!(coded_bound >= min_normal<T>())) want_intra = true;  // bound floor
  }

  if (!want_intra) {
    const T* ref = reinterpret_cast<const T*>(reference_.data());
    const double inv_two_eps = 0.5 / coded_bound;
    std::vector<T> mixed(count);
    Bytes modes((chunks + 7) / 8, 0);
    std::size_t predicted = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * cv;
      const std::size_t hi = std::min(lo + cv, count);
      // Sampled probe: cost the chunk both ways at a stride of values.
      const std::size_t step =
          std::max<std::size_t>(1, (hi - lo) / std::max<u32>(1, cfg_.probe_samples));
      double direct_bits = 0, resid_bits = 0;
      for (std::size_t i = lo; i < hi; i += step) {
        const double o = static_cast<double>(vals[i]);
        direct_bits += probe_cost(o, inv_two_eps);
        resid_bits += probe_cost(o - static_cast<double>(ref[i]), inv_two_eps);
      }
      bool predict = resid_bits < direct_bits;  // ties go to intra
      if (predict) {
        // Residual coding needs finite arithmetic on every value, not just
        // the probed ones.
        for (std::size_t i = lo; i < hi && predict; ++i)
          predict = std::isfinite(static_cast<double>(vals[i])) &&
                    std::isfinite(static_cast<double>(ref[i]));
      }
      if (predict) {
        modes[c >> 3] |= static_cast<u8>(1u << (c & 7));
        ++predicted;
        for (std::size_t i = lo; i < hi; ++i)
          mixed[i] = static_cast<T>(static_cast<double>(vals[i]) -
                                    static_cast<double>(ref[i]));
      } else {
        std::memcpy(mixed.data() + lo, vals + lo, (hi - lo) * sizeof(T));
      }
    }

    Bytes payload = pfpl::compress(Field(mixed.data(), field_dims(cfg_)),
                                   {coded_bound, EbType::ABS, cfg_.exec});
    std::vector<T> hat = pfpl::decompress_as<T>(payload, cfg_.exec);
    std::vector<T> recon(count);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * cv;
      const std::size_t hi = std::min(lo + cv, count);
      if (chunk_predicted(modes, c)) {
        for (std::size_t i = lo; i < hi; ++i)
          recon[i] = static_cast<T>(static_cast<double>(ref[i]) +
                                    static_cast<double>(hat[i]));
      } else {
        std::memcpy(recon.data() + lo, hat.data() + lo, (hi - lo) * sizeof(T));
      }
    }

    // External audit of the closed-loop reconstruction against the *session*
    // bound. Residual rounding at extreme magnitudes could in principle leak
    // past the derived bound — if it ever does, discard the P frame and
    // re-encode intra, keeping the invariant unconditional.
    const std::size_t bad = metrics::count_violations(
        std::span<const T>(vals, count), std::span<const T>(recon.data(), count),
        cfg_.eps, cfg_.eb);
    m.audit_values.add(count);
    if (bad == 0) {
      out.type = FrameType::Predicted;
      out.abs_bound = coded_bound;
      out.chunk_modes = std::move(modes);
      out.payload = std::move(payload);
      out.predicted_chunks = predicted;
      out.intra_chunks = chunks - predicted;
      reference_.resize(count * sizeof(T));
      std::memcpy(reference_.data(), recon.data(), reference_.size());
      ++frames_encoded_;
      ++predicted_frames_;
      predicted_chunks_ += predicted;
      intra_fallback_chunks_ += chunks - predicted;
      m.frames.add(1);
      m.pframes.add(1);
      m.chunks_predicted.add(predicted);
      m.chunks_intra.add(chunks - predicted);
      return out;
    }
    ++audit_fallbacks_;
    m.audit_fallbacks.add(1);
  }

  // Intra frame (first frame, keyframe cadence, REL, NOA bound floor, or
  // P-frame audit fallback).
  out.type = FrameType::Intra;
  out.abs_bound = 0.0;
  out.payload = pfpl::compress(sized, {cfg_.eps, cfg_.eb, cfg_.exec});
  out.intra_chunks = chunks;
  std::vector<u8> raw = pfpl::decompress(out.payload, cfg_.exec);
  const T* recon = reinterpret_cast<const T*>(raw.data());
  const std::size_t bad = metrics::count_violations(
      std::span<const T>(vals, count), std::span<const T>(recon, count), cfg_.eps,
      cfg_.eb);
  m.audit_values.add(count);
  if (bad != 0) {
    // PFPL's encode-time verification makes this unreachable; treat it as a
    // hard fault rather than emitting an out-of-bound frame.
    m.violations.add(bad);
    throw CompressionError("temporal: intra frame failed the bound audit (" +
                           std::to_string(bad) + " values)");
  }
  reference_ = std::move(raw);
  ++frames_encoded_;
  ++intra_frames_;
  m.frames.add(1);
  m.iframes.add(1);
  m.chunks_intra.add(chunks);
  return out;
}

FrameDecoder::FrameDecoder(const SessionConfig& cfg) : cfg_(cfg) {
  validate_config(cfg_);
}

const std::vector<u8>& FrameDecoder::decode(const EncodedFrame& f) {
  const pfpl::Header h = pfpl::peek_header(f.payload);
  if (h.value_count != cfg_.frame_values())
    throw CompressionError("temporal: frame payload holds " +
                           std::to_string(h.value_count) + " values, session expects " +
                           std::to_string(cfg_.frame_values()));
  if (h.dtype != cfg_.dtype)
    throw CompressionError("temporal: frame payload dtype does not match the session");
  if (cfg_.dtype == DType::F32)
    decode_typed<float>(f);
  else
    decode_typed<double>(f);
  ++frames_decoded_;
  return reference_;
}

template <typename T>
void FrameDecoder::decode_typed(const EncodedFrame& f) {
  const std::size_t count = cfg_.frame_values();
  if (f.type == FrameType::Intra) {
    reference_ = pfpl::decompress(f.payload, cfg_.exec);
    return;
  }
  if (reference_.size() != count * sizeof(T))
    throw CompressionError(
        "temporal: predicted frame without a reference (stream must start at an "
        "I frame)");
  const std::size_t cv = pfpl::chunk_values(cfg_.dtype);
  const std::size_t chunks = (count + cv - 1) / cv;
  if (f.chunk_modes.size() != (chunks + 7) / 8)
    throw CompressionError("temporal: predicted frame has a malformed chunk-mode bitmap");
  std::vector<T> hat = pfpl::decompress_as<T>(f.payload, cfg_.exec);
  std::vector<u8> out(count * sizeof(T));
  T* recon = reinterpret_cast<T*>(out.data());
  const T* ref = reinterpret_cast<const T*>(reference_.data());
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * cv;
    const std::size_t hi = std::min(lo + cv, count);
    if (chunk_predicted(f.chunk_modes, c)) {
      for (std::size_t i = lo; i < hi; ++i)
        recon[i] = static_cast<T>(static_cast<double>(ref[i]) +
                                  static_cast<double>(hat[i]));
    } else {
      std::memcpy(recon + lo, hat.data() + lo, (hi - lo) * sizeof(T));
    }
  }
  reference_ = std::move(out);
}

}  // namespace repro::temporal
