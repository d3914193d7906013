#include "obs/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "core/chunked.hpp"
#include "data/synthetic.hpp"
#include "fpmath/bound.hpp"
#include "metrics/error_stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace repro::obs {
namespace {

Counter& audit_counter(const char* name) { return MetricsRegistry::global().counter(name); }

/// Per-chunk bound utilization in permille of the allowed error: 1000 = the
/// chunk's worst value sits exactly on the bound, >1000 = violation. The
/// histogram is how CI sees quantizer headroom erode before it breaks.
Histogram& chunk_utilization_hist() {
  return MetricsRegistry::global().histogram(
      "audit.chunk_bound_permille",
      {50, 100, 200, 400, 600, 800, 900, 950, 1000});
}

Histogram& ratio_hist() {
  return MetricsRegistry::global().histogram(
      "audit.ratio_x100", {100, 200, 400, 800, 1600, 3200, 6400, 12800});
}

Histogram& psnr_hist() {
  return MetricsRegistry::global().histogram(
      "audit.psnr_db", {20, 40, 60, 80, 100, 120, 150, 200, 400, 999});
}

/// Check one value pair with fpmath::bound_holds; `bound` is the absolute
/// bound for ABS/NOA and eps for REL. Returns the measured error in the
/// bound's unit (absolute for ABS/NOA, relative deviation for REL; +inf for
/// structural mismatches such as NaN<->number) and sets `violated`.
template <typename T>
double check_value(T o, T r, EbType eb, double bound, bool& violated) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (std::isnan(o) || std::isinf(o)) {
    violated = std::isnan(o) ? !std::isnan(r) : r != o;
    return violated ? kInf : 0.0;
  }
  violated = !fpmath::bound_holds(o, r, bound, eb);
  if (!std::isfinite(r)) return kInf;
  const double od = o, rd = r;
  if (eb != EbType::REL) return std::fabs(od - rd);
  if (o == T(0)) return violated ? kInf : 0.0;
  if (r == T(0) || (o < T(0)) != (r < T(0))) return kInf;
  const double ao = std::fabs(od), ar = std::fabs(rd);
  return (ao > ar ? ao / ar : ar / ao) - 1.0;
}

template <typename T>
void verify_span(std::span<const T> orig, std::span<const T> recon, EbType eb, double eps,
                 AuditCase& c) {
  const std::size_t per_chunk = pfpl::chunk_values(c.dtype);
  c.values = orig.size();
  c.chunks = (orig.size() + per_chunk - 1) / per_chunk;

  c.allowed = eb == EbType::NOA ? eps * fpmath::finite_range(orig) : eps;

  Histogram& chunk_hist = chunk_utilization_hist();
  for (std::size_t chunk = 0; chunk < c.chunks; ++chunk) {
    const std::size_t begin = chunk * per_chunk;
    const std::size_t end = std::min(begin + per_chunk, orig.size());
    double chunk_max = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const T o = orig[i];
      const T r = i < recon.size() ? recon[i] : T(0);
      bool violated = false;
      const double err = check_value(o, r, eb, c.allowed, violated);
      chunk_max = std::max(chunk_max, err);
      if (violated) {
        ++c.violations;
        if (!c.has_first) {
          c.has_first = true;
          c.first.suite = c.suite;
          c.first.file = c.file;
          c.first.seed = c.seed;
          c.first.chunk = chunk;
          c.first.index = i;
          c.first.original = static_cast<double>(o);
          c.first.reconstructed = static_cast<double>(r);
          c.first.error = err;
          c.first.allowed = c.allowed;
        }
      }
    }
    c.max_err = std::max(c.max_err, chunk_max);
    // Bound utilization in permille (clamped: structural mismatches report
    // +inf error).
    const double denom = c.allowed > 0 ? c.allowed : 1.0;
    const double permille = std::isfinite(chunk_max) ? chunk_max / denom * 1000.0 : 2000.0;
    chunk_hist.record(static_cast<u64>(std::min(permille, 2000.0)));
  }

  const auto st = metrics::compute_stats(orig, recon);
  c.psnr_db = st.psnr;
  psnr_hist().record(static_cast<u64>(std::max(0.0, std::min(c.psnr_db, 999.0))));

  audit_counter("audit.cases").add(1);
  audit_counter("audit.chunks").add(c.chunks);
  audit_counter("audit.values").add(c.values);
  audit_counter("audit.violations").add(c.violations);
}

}  // namespace

AuditCase ErrorBoundAuditor::verify_field(const Field& orig, const std::vector<u8>& recon_raw,
                                          EbType eb, double eps, const std::string& suite,
                                          const std::string& file, u64 seed,
                                          std::size_t compressed_bytes) {
  AuditCase c;
  c.suite = suite;
  c.file = file;
  c.dtype = orig.dtype;
  c.eb = eb;
  c.eps = eps;
  c.seed = seed;
  c.ratio = metrics::compression_ratio(orig.byte_size(), compressed_bytes);
  if (compressed_bytes) ratio_hist().record(static_cast<u64>(c.ratio * 100.0));

  if (orig.dtype == DType::F32) {
    std::span<const float> recon(reinterpret_cast<const float*>(recon_raw.data()),
                                 recon_raw.size() / sizeof(float));
    verify_span(orig.as<float>(), recon, eb, eps, c);
  } else {
    std::span<const double> recon(reinterpret_cast<const double*>(recon_raw.data()),
                                  recon_raw.size() / sizeof(double));
    verify_span(orig.as<double>(), recon, eb, eps, c);
  }
  return c;
}

AuditResult ErrorBoundAuditor::run() const {
  AuditResult res;
  for (const auto& spec : data::paper_suites()) {
    if (!cfg_.suites.empty() &&
        std::find(cfg_.suites.begin(), cfg_.suites.end(), spec.name) == cfg_.suites.end())
      continue;
    if (std::find(cfg_.dtypes.begin(), cfg_.dtypes.end(), spec.dtype) == cfg_.dtypes.end())
      continue;
    const data::Suite suite =
        data::generate(spec, cfg_.target_values, cfg_.max_files, cfg_.seed);
    for (const auto& file : suite.files) {
      const Field field = file.field();
      for (EbType eb : cfg_.ebs) {
        for (double eps : cfg_.bounds) {
          Bytes stream = pfpl::compress(field, pfpl::Params{eps, eb, cfg_.exec});
          std::vector<u8> raw = pfpl::decompress(stream, cfg_.exec);
          AuditCase about;
          about.suite = spec.name;
          about.file = file.name;
          about.dtype = spec.dtype;
          about.eb = eb;
          about.eps = eps;
          about.seed = cfg_.seed;
          if (corrupt_) corrupt_(raw, about);
          AuditCase c = verify_field(field, raw, eb, eps, spec.name, file.name, cfg_.seed,
                                     stream.size());
          res.total_values += c.values;
          res.total_violations += c.violations;
          res.cases.push_back(std::move(c));
        }
      }
    }
  }
  return res;
}

std::string AuditResult::text() const {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-18s %-14s %-5s %-4s %-8s %10s %10s %12s %8s %8s\n",
                "suite", "file", "dtype", "eb", "eps", "values", "viol", "max_err", "ratio",
                "psnr");
  out += line;
  for (const AuditCase& c : cases) {
    std::snprintf(line, sizeof(line),
                  "%-18s %-14s %-5s %-4s %-8g %10zu %10llu %12.4g %8.2f %8.2f\n",
                  c.suite.c_str(), c.file.c_str(), to_string(c.dtype), to_string(c.eb),
                  c.eps, c.values, static_cast<unsigned long long>(c.violations), c.max_err,
                  c.ratio, c.psnr_db);
    out += line;
    if (c.has_first) {
      std::snprintf(line, sizeof(line),
                    "  FIRST VIOLATION: suite=%s file=%s seed=0x%llx chunk=%zu index=%zu "
                    "orig=%.17g recon=%.17g err=%.6g allowed=%.6g\n",
                    c.first.suite.c_str(), c.first.file.c_str(),
                    static_cast<unsigned long long>(c.first.seed), c.first.chunk,
                    c.first.index, c.first.original, c.first.reconstructed, c.first.error,
                    c.first.allowed);
      out += line;
    }
  }
  std::snprintf(line, sizeof(line), "audit: %zu cases, %zu values, %llu violations -> %s\n",
                cases.size(), total_values,
                static_cast<unsigned long long>(total_violations),
                ok() ? "OK (bound holds everywhere)" : "BOUND VIOLATED");
  out += line;
  return out;
}

std::string AuditResult::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("cases").begin_array();
  for (const AuditCase& c : cases) {
    w.begin_object();
    w.kv("suite", c.suite);
    w.kv("file", c.file);
    w.kv("dtype", to_string(c.dtype));
    w.kv("eb", to_string(c.eb));
    w.kv("eps", c.eps);
    w.kv("seed", static_cast<unsigned long long>(c.seed));
    w.kv("values", static_cast<unsigned long long>(c.values));
    w.kv("chunks", static_cast<unsigned long long>(c.chunks));
    w.kv("violations", static_cast<unsigned long long>(c.violations));
    // max_err can be +inf on structural mismatches; JSON has no inf, so cap
    // to a sentinel that still reads as "way past the bound".
    w.kv("max_err", std::isfinite(c.max_err) ? c.max_err : 1e308);
    w.kv("allowed", c.allowed);
    w.kv("ratio", c.ratio);
    w.kv("psnr_db", c.psnr_db);
    if (c.has_first) {
      w.key("first_violation").begin_object();
      w.kv("suite", c.first.suite);
      w.kv("file", c.first.file);
      w.kv("seed", static_cast<unsigned long long>(c.first.seed));
      w.kv("chunk", static_cast<unsigned long long>(c.first.chunk));
      w.kv("index", static_cast<unsigned long long>(c.first.index));
      w.kv("original", c.first.original);
      w.kv("reconstructed", c.first.reconstructed);
      w.kv("error", std::isfinite(c.first.error) ? c.first.error : 1e308);
      w.kv("allowed", c.first.allowed);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.kv("total_values", static_cast<unsigned long long>(total_values));
  w.kv("total_violations", static_cast<unsigned long long>(total_violations));
  w.kv("ok", ok());
  w.end_object();
  return w.take();
}

}  // namespace repro::obs
