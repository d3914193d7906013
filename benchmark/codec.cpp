// codec — the serial codec alone: one thread, Executor::Serial, each round
// runs pfpl::compress (or pfpl::decompress) over all 27 suite files. Only
// core and bits do work here, so kernel, quantizer and allocation changes
// show at full strength while CRC, net, store and ingest changes should move
// nothing. File i is compressed under bound type ABS/REL/NOA = i mod 3 at
// 1e-3. setup_s is the first pfpl::compress call of a process (file 0).
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>

#include "bench.hpp"
#include "core/pfpl.hpp"

namespace pb {
namespace {

using namespace repro;

/// Times the first pfpl::compress call of a process, as often as asked and at
/// any point of the run. The constructor forks a keeper before this process
/// compresses anything, so the keeper holds state in which none of the codec
/// is warmed. Each probe is a child the keeper forks: it makes its first
/// pfpl::compress call, reports the time and exits, returning every page it
/// touched. Destruction closes the request pipe, so the keeper exits, and
/// waits for it.
class FirstCompressProbe {
 public:
  explicit FirstCompressProbe(const Item& it) {
    int req[2], resp[2];
    if (::pipe(req) != 0) throw std::runtime_error("first-compress probe: pipe failed");
    if (::pipe(resp) != 0) throw std::runtime_error("first-compress probe: pipe failed");
    std::fflush(nullptr);  // the keeper must not flush the parent's buffered output
    keeper_ = ::fork();
    if (keeper_ < 0) throw std::runtime_error("first-compress probe: fork failed");
    if (keeper_ == 0) {
      ::close(req[1]);
      ::close(resp[0]);
      char c;
      while (::read(req[0], &c, 1) == 1) {
        const pid_t pid = ::fork();
        if (pid == 0) ::_exit(time_first_compress(it, resp[1]));
        int status = 1;
        if (pid > 0) ::waitpid(pid, &status, 0);
        if (status != 0) {  // the probe reported nothing: say so
          const double failed = -1;
          if (::write(resp[1], &failed, sizeof failed) != kDouble) ::_exit(1);
        }
      }
      ::_exit(0);
    }
    ::close(req[0]);
    ::close(resp[1]);
    req_ = req[1];
    resp_ = resp[0];
  }

  ~FirstCompressProbe() {
    ::close(req_);
    ::close(resp_);
    ::waitpid(keeper_, nullptr, 0);
  }

  FirstCompressProbe(const FirstCompressProbe&) = delete;
  FirstCompressProbe& operator=(const FirstCompressProbe&) = delete;

  /// Seconds of one first call, in a fresh child of the keeper.
  double operator()() {
    const char go = 1;
    double s = -1;
    if (::write(req_, &go, 1) != 1 || ::read(resp_, &s, sizeof s) != kDouble || s < 0)
      throw std::runtime_error("first-compress probe failed");
    return s;
  }

 private:
  /// The probe child's work; its exit status is 0 once it has reported.
  static int time_first_compress(const Item& it, int out_fd) {
    double s = -1;
    try {
      const double t0 = now_s();
      const Bytes out =
          pfpl::compress(it.field(), pfpl::Params{it.eps, it.eb, pfpl::Executor::Serial});
      if (!out.empty()) s = now_s() - t0;
    } catch (...) {
    }
    return s >= 0 && ::write(out_fd, &s, sizeof s) == kDouble ? 0 : 1;
  }

  static constexpr ssize_t kDouble = sizeof(double);

  pid_t keeper_ = -1;
  int req_ = -1;
  int resp_ = -1;
};

class Codec final : public Workload {
 public:
  void prepare(const Config& cfg) override {
    items = generate_suite(cfg.seed);
    for (std::size_t i = 0; i < items.size(); ++i) items[i].eb = static_cast<EbType>(i % 3);
    probe_ = std::make_unique<FirstCompressProbe>(items.front());
    for (Item& it : items) build_reference(it);
  }

  Round compress_round() override {
    sample_setup();
    double busy = 0, raw = 0, out_bytes = 0;
    for (const Item& it : items) {
      try {
        Timed t("core.pfpl::compress");
        const Bytes out =
            pfpl::compress(it.field(), pfpl::Params{it.eps, it.eb, pfpl::Executor::Serial});
        const double s = t.stop();
        busy += s;
        raw += static_cast<double>(it.raw.size());
        out_bytes += static_cast<double>(out.size());
        compress_ms_.push_back(s * 1e3);
        chk.check(out, it.stream, "compress", it.name);
      } catch (const std::exception& e) {
        chk.expect(false, "compress", it.name, e.what());
      }
    }
    ratio_ = raw / out_bytes;
    return {raw, busy};
  }

  Round decompress_round() override {
    sample_setup();
    double busy = 0, raw = 0;
    for (const Item& it : items) {
      try {
        Timed t("core.pfpl::decompress");
        const std::vector<u8> out = pfpl::decompress(it.stream);
        const double s = t.stop();
        busy += s;
        raw += static_cast<double>(it.raw.size());
        decompress_ms_.push_back(s * 1e3);
        chk.check(out, it.recon, "decompress", it.name);
      } catch (const std::exception& e) {
        chk.expect(false, "decompress", it.name, e.what());
      }
    }
    return {raw, busy};
  }

  void report(Report& rep) override {
    rep.add("ratio", ratio_, "x");
    rep.add_percentile("compress_p50_ms", compress_ms_, 0.5);
    rep.add_percentile("decompress_p50_ms", decompress_ms_, 0.5);
  }

  void report_layers(Report& rep, const ReplayCosts&) override {
    rep.line("codec: no layer above core and bits runs in this workload");
  }

 private:
  /// Two cold calls before every untraced round, outside its time: the
  /// host's speed drifts over seconds, so set-ups are sampled across the
  /// whole run, as the throughput is.
  void sample_setup() {
    if (!traced)
      for (int k = 0; k < 2; ++k) setup_s.push_back((*probe_)());
  }

  std::unique_ptr<FirstCompressProbe> probe_;
  std::vector<double> compress_ms_, decompress_ms_;  ///< per-call latency
  double ratio_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_codec() { return std::make_unique<Codec>(); }

}  // namespace pb
