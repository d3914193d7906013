// pack — the store path: the 20 f32 suite files are written to a work
// directory once; each compress round packs them with
// IngestPipeline{threads=2} into a fresh persistent ChunkStore (cache 0,
// default flush policy: a group flush per append batch, fsync at segment
// seal, manifest and close), and each decompress round reopens the store —
// the recovery scan that CRC-checks every frame — then runs ChunkStore::get
// and pfpl::decompress per file. Store writes sit beside store reads, so a
// change that speeds writes but slows recovery or reads shows here. Files
// come from the page cache: the numbers describe the machine's file system
// and page cache, not a storage device.
// setup_s is the store reopen.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/pfpl.hpp"
#include "ingest/pipeline.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace pb {
namespace {

using namespace repro;
namespace fs = std::filesystem;

constexpr double kEps = 1e-3;
constexpr unsigned kIngestThreads = 2;

u64 dir_bytes(const fs::path& dir) {
  u64 n = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) n += e.file_size();
  return n;
}

class Pack final : public Workload {
 public:
  ~Pack() override {
    std::error_code ec;
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }

  void prepare(const Config& cfg) override {
    for (Item& f : generate_suite(cfg.seed))
      if (f.dtype == DType::F32) items.push_back(std::move(f));
    dir_ = fs::path(cfg.out_dir) / ("pack-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "in");
    for (Item& it : items) {
      it.eps = kEps;
      it.eb = EbType::ABS;
      const fs::path p = dir_ / "in" / (it.name + ".f32");
      std::ofstream out(p, std::ios::binary);
      out.write(reinterpret_cast<const char*>(it.raw.data()),
                static_cast<std::streamsize>(it.raw.size()));
      if (!out.flush()) throw std::runtime_error("cannot write " + p.string());
      paths_.push_back(p.string());
      build_reference(it);
      keys_.push_back(store::compress_key(it.raw.data(), it.raw.size(), DType::F32,
                                          EbType::ABS, kEps));
    }
  }

  Round compress_round() override {
    fs::remove_all(dir_ / "store");
    std::vector<ingest::Item> in;
    for (std::size_t i = 0; i < items.size(); ++i) in.push_back({items[i].name, paths_[i], {}});
    std::vector<ingest::Result> res;
    ingest::IngestStats st;
    Timed t("ingest.pack");
    {
      store::ChunkStore cs(store_options());
      ingest::IngestPipeline::Options po;
      po.dtype = DType::F32;
      po.params = pfpl::Params{kEps, EbType::ABS, pfpl::Executor::Serial};
      po.threads = kIngestThreads;
      po.store = &cs;
      ingest::IngestPipeline pipe(po);
      res = pipe.run(std::move(in));
      st = pipe.stats();
    }  // pipeline, then store close: fsync + manifest
    const double s = t.stop();

    double raw = 0, comp = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      raw += static_cast<double>(it.raw.size());
      if (i >= res.size() || res[i].failed || res[i].cancelled) {
        chk.expect(false, "pack", it.name, i < res.size() ? res[i].error : "no result");
        continue;
      }
      comp += static_cast<double>(res[i].stream.size());
      chk.check(res[i].stream, it.stream, "pack", it.name);
    }
    ratio_ = raw / comp;
    disk_bytes_ = dir_bytes(dir_ / "store");
    stored_bytes_ = comp;
    if (!traced) {
      pack_ms_.push_back(s * 1e3);
      ingest_.push_back(st);
    }
    return {raw, s};
  }

  Round decompress_round() override {
    Timed topen("store.ChunkStore::open");
    auto cs = std::make_unique<store::ChunkStore>(store_options());
    const double open_s = topen.stop();
    if (!traced) setup_s.push_back(open_s);
    double busy = open_s, raw = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      raw += static_cast<double>(it.raw.size());
      try {
        Timed tg("store.ChunkStore::get");
        Bytes stream;
        const bool hit = cs->get(keys_[i], stream);
        const double g = tg.stop();
        Timed td("core.pfpl::decompress");
        const std::vector<u8> out = pfpl::decompress(stream);
        const double d = td.stop();
        busy += g + d;
        if (!traced) {
          get_us_.push_back(g * 1e6);
          file_ms_.push_back((g + d) * 1e3);
        }
        chk.expect(hit, "get", it.name, "key missing from the reopened store");
        chk.check(stream, it.stream, "get", it.name);
        chk.check(out, it.recon, "decompress", it.name);
      } catch (const std::exception& e) {
        chk.expect(false, "decompress", it.name, e.what());
      }
    }
    cs.reset();  // close (manifest rewrite) is not part of reading
    return {raw, busy};
  }

  void report(Report& rep) override {
    rep.add("ratio", ratio_, "x");
    rep.add_percentile("compress_p50_ms", pack_ms_, 0.5);
    rep.add_percentile("decompress_p50_ms", file_ms_, 0.5);
    rep.line("  (compress op: one pack of %zu files; decompress op: get + decompress of one "
             "file; store %.1f MB on disk)",
             items.size(), static_cast<double>(disk_bytes_) / 1e6);
  }

  void report_layers(Report& rep, const ReplayCosts&) override {
    rep.add("store.reopen_MBps", static_cast<double>(disk_bytes_) / 1e6 / median(setup_s),
            "MB/s");
    rep.add("store.get_us_p50", median(get_us_), "us");
    rep.add("store.disk_bytes_per_stored_byte",
            static_cast<double>(disk_bytes_) / stored_bytes_, "x");
    std::vector<double> util[4], read_mbps;
    double peak_queue = 0;
    for (const ingest::IngestStats& st : ingest_) {
      const double stage_ms[4] = {st.read_ms, st.hash_ms, st.encode_ms, st.append_ms};
      for (int s = 0; s < 4; ++s) util[s].push_back(stage_ms[s] / st.wall_ms);
      read_mbps.push_back(static_cast<double>(st.bytes_in) / 1e3 / st.read_ms);
      peak_queue = std::max(peak_queue, static_cast<double>(st.peak_queue_bytes) / 1e6);
    }
    rep.add("ingest.read_util", median(util[0]), "frac");
    rep.add("ingest.hash_util", median(util[1]), "frac");
    rep.add("ingest.encode_util", median(util[2]), "frac");
    rep.add("ingest.append_util", median(util[3]), "frac");
    rep.add("ingest.peak_queue_MB", peak_queue, "MB");
    rep.add("io.read_MBps", median(read_mbps), "MB/s");
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const obs::Histogram& wait = reg.histogram("svc.pool.task_wait_us");
    const obs::Histogram& run = reg.histogram("svc.pool.task_run_us");
    rep.add("svc.pool.task_wait_us_p50", wait.p50(), "us");
    rep.add("svc.pool.task_wait_us_p99", wait.p99(), "us");
    rep.add("svc.pool.task_run_us_p50", run.p50(), "us");
    rep.line("  (ingest: %u encode threads, medians of %zu untraced packs; pool: %llu traced "
             "tasks)",
             kIngestThreads, ingest_.size(), static_cast<unsigned long long>(run.count()));
  }

 private:
  store::ChunkStore::Options store_options() const {
    store::ChunkStore::Options so;
    so.cache.byte_budget = 0;
    so.dir = (dir_ / "store").string();
    return so;
  }

  fs::path dir_;
  std::vector<std::string> paths_;
  std::vector<common::Hash128> keys_;
  /// Samples of the untraced rounds (setup_s holds their reopen times).
  std::vector<double> pack_ms_, file_ms_, get_us_;
  std::vector<ingest::IngestStats> ingest_;
  double ratio_ = 0;
  u64 disk_bytes_ = 0;
  double stored_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_pack() { return std::make_unique<Pack>(); }

}  // namespace pb
