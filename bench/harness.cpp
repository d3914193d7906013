#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "baselines/registry.hpp"
#include "common/timer.hpp"
#include "metrics/error_stats.hpp"
#include "obs/control.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace repro::bench {
namespace {

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

struct FileResult {
  double ratio = 0, comp_mbps = 0, decomp_mbps = 0, psnr = 0;
  std::size_t violations = 0;
  bool ok = false;
};

FileResult measure_file(const Compressor& c, const data::SyntheticFile& f, double eps,
                        EbType eb, int runs) {
  FileResult r;
  Field field = f.field();
  try {
    obs::ScopedSpan span(obs::enabled() ? "bench.measure:" + c.name() : std::string());
    Bytes stream;
    double tc = median_runtime([&] { stream = c.compress(field, eps, eb); }, runs);
    std::vector<u8> raw;
    double td = median_runtime([&] { raw = c.decompress(stream); }, runs);
    r.ratio = metrics::compression_ratio(field.byte_size(), stream.size());
    r.comp_mbps = throughput_mbps(field.byte_size(), tc);
    r.decomp_mbps = throughput_mbps(field.byte_size(), td);
    if (f.dtype == DType::F32) {
      std::vector<float> back(raw.size() / 4);
      std::memcpy(back.data(), raw.data(), raw.size());
      auto st = metrics::compute_stats(std::span<const float>(f.f32),
                                       std::span<const float>(back));
      r.psnr = st.psnr;
      r.violations = metrics::count_violations(std::span<const float>(f.f32),
                                               std::span<const float>(back), eps, eb);
    } else {
      std::vector<double> back(raw.size() / 8);
      std::memcpy(back.data(), raw.data(), raw.size());
      auto st = metrics::compute_stats(std::span<const double>(f.f64),
                                       std::span<const double>(back));
      r.psnr = st.psnr;
      r.violations = metrics::count_violations(std::span<const double>(f.f64),
                                               std::span<const double>(back), eps, eb);
    }
    r.ok = true;
  } catch (const CompressionError&) {
    r.ok = false;  // unsupported input shape etc.: skip, as the paper skips
  }
  return r;
}

/// Rows queued for the --json document, written once at process exit.
struct JsonSink {
  std::string path;
  std::string trace_path;
  std::vector<FigureRow> rows;
};

JsonSink& json_sink() {
  static JsonSink s;
  return s;
}

void flush_json_sink() {
  JsonSink& s = json_sink();
  if (!s.trace_path.empty()) {
    try {
      obs::TraceRecorder::global().write_chrome_json(s.trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: %s\n", e.what());
    }
  }
  if (s.path.empty()) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("rows").raw(rows_json(s.rows));
  w.key("report").raw(obs::metrics_json_doc());
  w.end_object();
  std::string doc = w.take();
  std::FILE* f = std::fopen(s.path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "bench: cannot open json output '%s'\n", s.path.c_str());
    return;
  }
  if (std::fwrite(doc.data(), 1, doc.size(), f) != doc.size())
    std::fprintf(stderr, "bench: short write to '%s'\n", s.path.c_str());
  std::fclose(f);
}

void register_sink_flush() {
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(flush_json_sink);
  }
}

}  // namespace

SweepConfig parse_args(int argc, char** argv, SweepConfig cfg) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : "0"; };
    if (a == "--target") cfg.target_values = std::strtoull(next(), nullptr, 10);
    else if (a == "--files") cfg.max_files = std::atoi(next());
    else if (a == "--runs") cfg.runs = std::atoi(next());
    else if (a == "--json") {
      cfg.json_path = next();
      set_json_output(cfg.json_path);
    } else if (a == "--trace") {
      json_sink().trace_path = next();
      obs::set_enabled(true);
      register_sink_flush();
    } else if (a == "--csv-header") {
      std::printf("%s\n", csv_header());
      std::exit(0);
    } else if (a == "--full") {
      cfg.runs = 9;
      cfg.target_values = 1 << 20;
      cfg.max_files = 4;
    }
  }
  return cfg;
}

std::vector<Row> run_sweep(const SweepConfig& cfg) {
  // Generate matching suites once.
  std::vector<data::Suite> suites;
  for (const auto& spec : data::paper_suites()) {
    if (spec.dtype != cfg.dtype) continue;
    if (cfg.exclude_non_3d && (spec.kind == "exaalt" || spec.kind == "hacc")) continue;
    suites.push_back(data::generate(spec, cfg.target_values, cfg.max_files));
  }

  std::vector<Row> rows;
  for (const auto& comp : baselines::all_compressors()) {
    Features feat = comp->features();
    if (!feat.supports(cfg.eb)) continue;
    if (cfg.dtype == DType::F32 && !feat.f32) continue;
    if (cfg.dtype == DType::F64 && !feat.f64) continue;
    if (contains(cfg.exclude_compressors, comp->name())) continue;
    if (!cfg.only_compressors.empty() && !contains(cfg.only_compressors, comp->name()))
      continue;
    for (double eps : cfg.bounds) {
      std::vector<double> suite_ratio, suite_comp, suite_decomp, suite_psnr;
      std::size_t violations = 0;
      for (const auto& suite : suites) {
        std::vector<double> fr, fc, fd, fp;
        for (const auto& file : suite.files) {
          FileResult r = measure_file(*comp, file, eps, cfg.eb, cfg.runs);
          if (!r.ok) continue;
          fr.push_back(r.ratio);
          fc.push_back(r.comp_mbps);
          fd.push_back(r.decomp_mbps);
          if (std::isfinite(r.psnr)) fp.push_back(r.psnr);
          violations += r.violations;
        }
        if (fr.empty()) continue;
        suite_ratio.push_back(metrics::geomean(fr));
        suite_comp.push_back(metrics::geomean(fc));
        suite_decomp.push_back(metrics::geomean(fd));
        if (!fp.empty()) suite_psnr.push_back(metrics::geomean(fp));
      }
      if (suite_ratio.empty()) continue;
      Row row;
      row.compressor = comp->name();
      row.eb = eps;
      row.ratio = metrics::geomean(suite_ratio);
      row.comp_mbps = metrics::geomean(suite_comp);
      row.decomp_mbps = metrics::geomean(suite_decomp);
      row.psnr_db = metrics::geomean(suite_psnr);
      row.violations = violations;
      rows.push_back(row);
    }
  }
  mark_pareto(rows);
  return rows;
}

void mark_pareto(std::vector<Row>& rows) {
  for (Row& r : rows) {
    bool dom_c = false, dom_d = false;
    for (const Row& o : rows) {
      if (&o == &r || o.eb != r.eb) continue;
      if (o.ratio >= r.ratio && o.comp_mbps >= r.comp_mbps &&
          (o.ratio > r.ratio || o.comp_mbps > r.comp_mbps))
        dom_c = true;
      if (o.ratio >= r.ratio && o.decomp_mbps >= r.decomp_mbps &&
          (o.ratio > r.ratio || o.decomp_mbps > r.decomp_mbps))
        dom_d = true;
    }
    r.pareto_compress = !dom_c;
    r.pareto_decompress = !dom_d;
  }
}

const char* csv_header() {
  return "figure,compressor,eb,ratio,comp_MBps,decomp_MBps,psnr_dB,violations,"
         "pareto_comp,pareto_decomp";
}

void print_rows(const std::string& figure, const std::vector<Row>& rows) {
  // Figure banners go to stderr: stdout stays pure CSV — one header, then
  // rows — so `bench > out.csv` ingests directly into cut/pandas even when
  // one binary prints several figures.
  std::fprintf(stderr, "# %s\n", figure.c_str());
  static bool header_printed = false;
  if (!header_printed) {
    header_printed = true;
    std::printf("%s\n", csv_header());
  }
  // Unmeasured cells print empty (not 0.00) so downstream pandas reads NaN
  // instead of a fake measurement.
  auto cell = [](bool has, const char* fmt, double v) {
    char buf[48];
    if (!has) return std::string();
    std::snprintf(buf, sizeof(buf), fmt, v);
    return std::string(buf);
  };
  for (const Row& r : rows)
    std::printf("%s,%s,%g,%s,%s,%s,%s,%s,%d,%d\n", figure.c_str(), r.compressor.c_str(),
                r.eb, cell(r.has_ratio, "%.3f", r.ratio).c_str(),
                cell(r.has_comp, "%.2f", r.comp_mbps).c_str(),
                cell(r.has_decomp, "%.2f", r.decomp_mbps).c_str(),
                cell(r.has_psnr, "%.2f", r.psnr_db).c_str(),
                cell(r.has_violations, "%.0f", static_cast<double>(r.violations)).c_str(),
                r.pareto_compress ? 1 : 0, r.pareto_decompress ? 1 : 0);
  std::fflush(stdout);
  JsonSink& sink = json_sink();
  if (!sink.path.empty())
    for (const Row& r : rows) sink.rows.emplace_back(figure, r);
}

std::string rows_json(const std::vector<FigureRow>& rows) {
  obs::JsonWriter w;
  w.begin_array();
  for (const auto& [figure, r] : rows) {
    w.begin_object();
    w.kv("figure", figure);
    w.kv("compressor", r.compressor);
    w.kv("eb", r.eb);
    w.kv("ratio", r.ratio);
    w.kv("comp_MBps", r.comp_mbps);
    w.kv("decomp_MBps", r.decomp_mbps);
    w.kv("psnr_dB", r.psnr_db);
    w.kv("violations", static_cast<unsigned long long>(r.violations));
    w.kv("pareto_comp", r.pareto_compress);
    w.kv("pareto_decomp", r.pareto_decompress);
    w.end_object();
  }
  w.end_array();
  return w.take();
}

void set_json_output(const std::string& path) {
  json_sink().path = path;
  obs::set_enabled(true);
  register_sink_flush();
}

}  // namespace repro::bench
