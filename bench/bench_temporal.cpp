// bench_temporal — inter-frame delta coding vs. per-frame intra on the
// evolving suites.
//
// For each evolving suite the bench encodes the same generated frame
// sequence twice with temporal::FrameEncoder:
//
//   temporal   the real session shape — keyframe every --keyframe-interval
//              frames, P frames (closed-loop residual vs. the previous
//              reconstruction) in between
//   intra      keyframe_interval = 1, so every frame is an independent PFPL
//              stream — the "compress each frame separately" strawman
//
// and reports the compression-ratio win and both encode throughputs. The
// correlated suites (advect, diffuse) gate the win: temporal must beat intra
// by --min-ratio-win (default 1.3x) and must not cost more than
// --max-tput-loss of intra's encode throughput. The regime
// suite — which deliberately kills temporal correlation mid-stream — is
// reported but never gated on the win: its job is proving the per-chunk
// intra fallback keeps the encoder from losing to intra outright.
//
// Every temporal stream is decoded with temporal::FrameDecoder and every
// frame re-checked against the session bound (metrics::count_violations).
// Any violation is a hard failure: the guaranteed-error-bound contract of
// the paper extends to P frames or the subsystem is wrong.
//
//   bench_temporal                       # 32 frames x ~16k values, 3 reps
//   bench_temporal --frames 64 --values 65536 --runs 5
//
// The default protocol's ratios, win and violation count are pinned in
// ctest (Temporal.SuiteRatiosArePinned); this binary adds the throughput.
//
// Exit codes: 0 ok, 1 bound violation / ratio or throughput gate miss.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "data/evolving.hpp"
#include "harness.hpp"
#include "metrics/error_stats.hpp"
#include "temporal/temporal.hpp"

using namespace repro;

namespace {

struct TemporalCfg {
  std::size_t frames = 32;
  std::size_t values = 16384;
  u32 keyframe_interval = 16;
  double min_ratio_win = 1.3;   ///< correlated suites: temporal/intra ratio
  double max_tput_loss = 0.25;  ///< temporal encode >= (1 - this) * intra
};

TemporalCfg parse_temporal_flags(int argc, char** argv) {
  TemporalCfg cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : "0"; };
    if (a == "--frames") cfg.frames = std::strtoull(next(), nullptr, 10);
    else if (a == "--values") cfg.values = std::strtoull(next(), nullptr, 10);
    else if (a == "--keyframe-interval")
      cfg.keyframe_interval = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    else if (a == "--min-ratio-win") cfg.min_ratio_win = std::atof(next());
    else if (a == "--max-tput-loss") cfg.max_tput_loss = std::atof(next());
  }
  if (cfg.frames < 2) cfg.frames = 2;
  if (cfg.values == 0) cfg.values = 1;
  return cfg;
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The (eb, eps) each suite is benched under — chosen to be representative
/// of the suite's scale, not tuned to flatter the encoder.
struct SuiteCase {
  const char* name;
  EbType eb;
  double eps;
  bool gate_win;  ///< correlated suite: the ratio win is an acceptance bar
};

constexpr SuiteCase kCases[] = {
    {"advect", EbType::ABS, 1e-3, true},
    {"diffuse", EbType::NOA, 1e-4, true},
    {"regime", EbType::ABS, 1e-3, false},
};

struct PassResult {
  u64 stream_bytes = 0;
  u64 iframes = 0, pframes = 0;
  std::vector<double> times;  ///< per-rep encode wall seconds
  std::size_t violations = 0;
};

const u8* frame_bytes(const data::FrameSequence& seq, std::size_t i) {
  return seq.dtype == DType::F32
             ? reinterpret_cast<const u8*>(seq.f32[i].data())
             : reinterpret_cast<const u8*>(seq.f64[i].data());
}

std::size_t audit_frame(const temporal::SessionConfig& cfg, const u8* orig,
                        const u8* recon) {
  const std::size_t n = cfg.frame_values();
  if (cfg.dtype == DType::F32)
    return metrics::count_violations(
        std::span<const float>(reinterpret_cast<const float*>(orig), n),
        std::span<const float>(reinterpret_cast<const float*>(recon), n), cfg.eps,
        cfg.eb);
  return metrics::count_violations(
      std::span<const double>(reinterpret_cast<const double*>(orig), n),
      std::span<const double>(reinterpret_cast<const double*>(recon), n), cfg.eps,
      cfg.eb);
}

/// Encode the whole sequence `reps` times (fresh encoder each rep — every
/// rep is a cold session); decode + audit once.
PassResult run_pass(const data::FrameSequence& seq, const temporal::SessionConfig& cfg,
                    int reps) {
  PassResult out;
  std::vector<temporal::EncodedFrame> encoded;
  for (int rep = 0; rep < reps; ++rep) {
    temporal::FrameEncoder enc(cfg);
    std::vector<temporal::EncodedFrame> frames;
    frames.reserve(seq.frames());
    const double t0 = now_s();
    for (std::size_t i = 0; i < seq.frames(); ++i)
      frames.push_back(enc.encode(seq.frame(i), i));
    out.times.push_back(now_s() - t0);
    if (rep == 0) {
      encoded = std::move(frames);
      out.iframes = enc.intra_frames();
      out.pframes = enc.predicted_frames();
    }
  }
  for (const temporal::EncodedFrame& f : encoded) out.stream_bytes += f.byte_size();
  temporal::FrameDecoder dec(cfg);
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const std::vector<u8>& recon = dec.decode(encoded[i]);
    out.violations += audit_frame(cfg, frame_bytes(seq, i), recon.data());
  }
  return out;
}

bench::Row make_row(const std::string& name, double eps, const PassResult& r,
                    u64 raw_bytes) {
  bench::Row row;
  row.compressor = name;
  row.eb = eps;
  row.ratio = r.stream_bytes ? static_cast<double>(raw_bytes) / r.stream_bytes : 0.0;
  const double mb = static_cast<double>(raw_bytes) / (1024.0 * 1024.0);
  const double med = median(r.times);
  row.comp_mbps = med > 0 ? mb / med : 0.0;
  row.violations = r.violations;
  row.has_decomp = row.has_psnr = false;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepConfig sweep = bench::parse_args(argc, argv, bench::SweepConfig{});
  const TemporalCfg cfg = parse_temporal_flags(argc, argv);
  const int reps = std::max(3, sweep.runs);
  int failures = 0;

  std::vector<bench::Row> rows;
  for (const SuiteCase& c : kCases) {
    const data::EvolvingSpec spec = data::find_evolving(c.name);
    const data::FrameSequence seq = data::generate_evolving(
        spec, cfg.values, cfg.frames);
    const u64 raw_bytes =
        static_cast<u64>(seq.frames()) * seq.frame_values() * dtype_size(seq.dtype);

    temporal::SessionConfig scfg;
    scfg.dtype = seq.dtype;
    scfg.eb = c.eb;
    scfg.eps = c.eps;
    scfg.dims = {static_cast<u32>(seq.dims[0]), static_cast<u32>(seq.dims[1]),
                 static_cast<u32>(seq.dims[2])};
    scfg.keyframe_interval = cfg.keyframe_interval;
    const PassResult temporal = run_pass(seq, scfg, reps);

    temporal::SessionConfig icfg = scfg;
    icfg.keyframe_interval = 1;  // every frame intra: the per-frame strawman
    const PassResult intra = run_pass(seq, icfg, reps);

    const double t_ratio =
        temporal.stream_bytes ? static_cast<double>(raw_bytes) / temporal.stream_bytes : 0.0;
    const double i_ratio =
        intra.stream_bytes ? static_cast<double>(raw_bytes) / intra.stream_bytes : 0.0;
    const double win = i_ratio > 0 ? t_ratio / i_ratio : 0.0;
    const double mb = static_cast<double>(raw_bytes) / (1024.0 * 1024.0);
    const double t_mbps = median(temporal.times) > 0 ? mb / median(temporal.times) : 0.0;
    const double i_mbps = median(intra.times) > 0 ? mb / median(intra.times) : 0.0;

    std::fprintf(stderr,
                 "bench_temporal: %-8s %zu frames (%llu I + %llu P)  temporal %.3fx "
                 "@ %.1f MB/s  intra %.3fx @ %.1f MB/s  win %.3fx  violations %zu\n",
                 c.name, seq.frames(),
                 static_cast<unsigned long long>(temporal.iframes),
                 static_cast<unsigned long long>(temporal.pframes), t_ratio, t_mbps,
                 i_ratio, i_mbps, win, temporal.violations + intra.violations);

    if (temporal.violations || intra.violations) {
      std::fprintf(stderr, "bench_temporal: %s: BOUND VIOLATED (%zu values)\n", c.name,
                   temporal.violations + intra.violations);
      ++failures;
    }
    if (c.gate_win && win < cfg.min_ratio_win) {
      std::fprintf(stderr,
                   "bench_temporal: %s: ratio win %.3fx below required %.2fx\n",
                   c.name, win, cfg.min_ratio_win);
      ++failures;
    }
    if (!c.gate_win && t_ratio + 1e-9 < i_ratio * 0.95) {
      // Fallback safety net: even with correlation killed, per-chunk intra
      // fallback must keep temporal within 5% of plain intra coding.
      std::fprintf(stderr,
                   "bench_temporal: %s: temporal %.3fx lost >5%% to intra %.3fx "
                   "despite chunk fallback\n",
                   c.name, t_ratio, i_ratio);
      ++failures;
    }
    if (t_mbps < (1.0 - cfg.max_tput_loss) * i_mbps) {
      std::fprintf(stderr,
                   "bench_temporal: %s: temporal encode %.1f MB/s is more than "
                   "%.0f%% below intra %.1f MB/s\n",
                   c.name, t_mbps, 100.0 * cfg.max_tput_loss, i_mbps);
      ++failures;
    }

    rows.push_back(make_row(std::string("Temporal_") + c.name, c.eps, temporal,
                            raw_bytes));
    rows.push_back(make_row(std::string("Intra_") + c.name, c.eps, intra, raw_bytes));
    // The headline number as its own row: the win is what the bench gates,
    // so a change in it is visible even when both ratios drift together.
    bench::Row win_row;
    win_row.compressor = std::string("TemporalWin_") + c.name;
    win_row.eb = c.eps;
    win_row.ratio = win;
    win_row.has_comp = win_row.has_decomp = win_row.has_psnr = false;
    win_row.has_violations = false;
    rows.push_back(win_row);
  }

  bench::print_rows("Temporal", rows);
  return failures ? 1 : 0;
}
