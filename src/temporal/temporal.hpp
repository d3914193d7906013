// src/temporal — streaming frame-sequence compression.
//
// A FrameEncoder holds the previously *decoded* frame as its reference and
// encodes each new frame as either
//
//   * an intra (I) frame — the unchanged PFPL chunk pipeline applied to the
//     frame's values, or
//   * a predicted (P) frame — per chunk, either the residual against the
//     reference's decoded values or the original values (intra fallback when
//     temporal correlation dies), packed into one *mixed field* that is
//     compressed as a single PFPL stream under a derived absolute bound. A
//     per-chunk mode bitmap records which chunks are residual-coded.
//
// Prediction is closed-loop: the residual is taken against what the decoder
// will actually hold (the previous frame's reconstruction), and the PFPL
// stream bounds |residual - residual_hat| <= abs_bound, so the per-frame
// error bound holds for every frame and never accumulates across frames.
//
//   ABS  sessions predict with abs_bound = eps.
//   NOA  sessions predict with abs_bound = eps * (max - min) of the *current*
//        original frame (the same range count_violations judges with); when
//        that derived bound is below the dtype's smallest positive normal
//        (PFPL's ABS validity floor) the frame falls back to intra coding.
//   REL  sessions always encode intra frames — a point-wise relative bound
//        does not translate into a uniform absolute bound on residuals.
//
// The per-chunk residual/intra decision is a sampled probe: k values of the
// chunk are costed under a log2-bins model for both codings and the cheaper
// side wins (ties go to intra). Chunks containing non-finite values in
// either the frame or the reference are never residual-coded.
//
// Every encode audits the frame's reconstruction against the session bound
// with metrics::count_violations (the external judge). If a predicted frame
// ever failed the audit — e.g. residual rounding at extreme magnitudes — the
// frame is transparently re-encoded intra, so the zero-violations invariant
// is unconditional. Audited-then-discarded P frames are counted.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/pfpl.hpp"

namespace repro::temporal {

enum class FrameType : u8 {
  Intra = 0,      ///< payload decodes standalone
  Predicted = 1,  ///< payload is a mixed residual/intra field vs the reference
};

inline const char* to_string(FrameType t) {
  return t == FrameType::Intra ? "I" : "P";
}

/// Immutable per-session parameters (shared by encoder, decoder, and the
/// PFPV container header).
struct SessionConfig {
  DType dtype = DType::F32;
  EbType eb = EbType::ABS;
  double eps = 1e-3;
  std::array<u32, 3> dims{1, 1, 0};     ///< frame shape, slowest-first (z,y,x)
  u32 keyframe_interval = 16;           ///< force an I frame every N frames
                                        ///< (0 = only when prediction is
                                        ///< impossible)
  pfpl::Executor exec = pfpl::Executor::Serial;
  u32 probe_samples = 64;               ///< values sampled per chunk probe

  std::size_t frame_values() const {
    return static_cast<std::size_t>(dims[0]) * dims[1] * dims[2];
  }
  std::size_t frame_bytes() const { return frame_values() * dtype_size(dtype); }
};

/// One encoded frame: a complete PFPL stream plus the temporal envelope.
struct EncodedFrame {
  u64 frame_index = 0;          ///< caller-supplied stream position
  FrameType type = FrameType::Intra;
  double abs_bound = 0.0;       ///< derived ABS bound of a P frame's mixed
                                ///< stream (0 for intra frames)
  Bytes chunk_modes;            ///< P frames: bit i set = chunk i is
                                ///< residual-coded (LSB-first; empty for I)
  Bytes payload;                ///< a complete PFPL stream
  std::size_t predicted_chunks = 0;
  std::size_t intra_chunks = 0;

  std::size_t byte_size() const { return chunk_modes.size() + payload.size(); }
};

/// Returns whether chunk `i` of a P frame is residual-coded.
bool chunk_predicted(const Bytes& modes, std::size_t i);

/// Stateful encoder for one frame stream. Not thread-safe; one session = one
/// stream = one encoder.
class FrameEncoder {
 public:
  /// Throws CompressionError on an invalid config (zero-value frames, bad
  /// eps for the bound type).
  explicit FrameEncoder(const SessionConfig& cfg);

  /// Encode the next frame. `frame` must match the session dtype and shape.
  /// `frame_index` is recorded in the result (the stream position, which
  /// need not equal this encoder's own count); the I/P cadence follows the
  /// *encoder's* own frame count, so a fresh encoder always starts with an I
  /// frame.
  EncodedFrame encode(const Field& frame, u64 frame_index);
  EncodedFrame encode(const Field& frame) { return encode(frame, frames_encoded_); }

  /// Raw bytes of the most recent frame's reconstruction (what the decoder
  /// will output for it) — byte-identical to FrameDecoder's output.
  const std::vector<u8>& reference() const { return reference_; }

  const SessionConfig& config() const { return cfg_; }
  u64 frames_encoded() const { return frames_encoded_; }
  u64 intra_frames() const { return intra_frames_; }
  u64 predicted_frames() const { return predicted_frames_; }
  u64 predicted_chunks() const { return predicted_chunks_; }
  u64 intra_fallback_chunks() const { return intra_fallback_chunks_; }
  /// P frames discarded because their reconstruction failed the bound audit
  /// (re-encoded intra). The zero-violations invariant holds regardless.
  u64 audit_fallbacks() const { return audit_fallbacks_; }

 private:
  template <typename T>
  EncodedFrame encode_typed(const Field& frame, u64 frame_index);

  SessionConfig cfg_;
  std::vector<u8> reference_;  ///< empty until the first frame
  u64 frames_encoded_ = 0;
  u64 intra_frames_ = 0;
  u64 predicted_frames_ = 0;
  u64 predicted_chunks_ = 0;
  u64 intra_fallback_chunks_ = 0;
  u64 audit_fallbacks_ = 0;
};

/// Stateful decoder: feed it every frame of a stream in order (or start at
/// any I frame). Output is byte-identical to the encoder's closed-loop
/// reference, so encoder and decoder never drift.
class FrameDecoder {
 public:
  explicit FrameDecoder(const SessionConfig& cfg);

  /// Decode the next frame; returns the frame's raw scalar bytes. Throws
  /// CompressionError on a P frame with no reference (stream must start at
  /// an I frame) or on any payload/config mismatch.
  const std::vector<u8>& decode(const EncodedFrame& f);

  const SessionConfig& config() const { return cfg_; }
  u64 frames_decoded() const { return frames_decoded_; }

 private:
  template <typename T>
  void decode_typed(const EncodedFrame& f);

  SessionConfig cfg_;
  std::vector<u8> reference_;
  u64 frames_decoded_ = 0;
};

}  // namespace repro::temporal
