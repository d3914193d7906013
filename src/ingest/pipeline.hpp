// IngestPipeline — asynchronous staged ingest (DESIGN.md §ingest), and the
// repo's only multi-field, chunk-parallel compression driver (`pfpl pack`,
// `pfpl store put`, the benches).
//
// Restructures file/stream ingest from a synchronous
// read → hash → encode → append loop (throughput = SUM of the stages) into
// four explicit stages connected by bounded byte-budgeted queues
// (throughput = the SLOWEST stage):
//
//   read    double-buffered chunked file reads (io::DoubleBufferedReader)
//   hash    content key + store dedup probe: a hit skips encoding entirely
//   encode  plan the header, fan the chunks out across the svc ThreadPool
//           (any idle worker takes the next chunk), assemble in slot order —
//           so the output stream is byte-identical to single-threaded
//           pfpl::compress whatever the worker count or finishing order
//   append  batched ChunkStore::put_batch with one group fsync per batch
//
// Each stage runs on its own thread; queues are FIFO, so items complete in
// submission order — the progress callback fires in order, and run()'s
// result vector is index-aligned with its input.
//
// Error semantics: a per-item failure marks that item's Result and flows
// through (matching `pfpl pack`: pack the rest, report the failures).
// Options::fail_fast instead cancels the upstream stages on first error —
// queued items are dropped, blocked stages wake immediately, the failing
// item's Result is still delivered with its real error (directly from the
// failing stage when its output queue is already cancelled, through the
// append stage otherwise), and every undelivered item comes back marked
// `cancelled`.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "core/pfpl.hpp"
#include "ingest/stats.hpp"

namespace repro::store {
class ChunkStore;
}
namespace repro::svc {
class ThreadPool;
}

namespace repro::ingest {

/// One unit of ingest: a named payload, either on disk (path) or in memory
/// (raw). When `path` is non-empty the read stage loads it; otherwise `raw`
/// is used as-is (the in-memory form the tests and the server use).
struct Item {
  std::string name;
  std::string path;
  Bytes raw;
};

struct Result {
  std::string name;
  Bytes stream;         ///< empty when failed/cancelled
  pfpl::Header header;  ///< valid when !failed && !cancelled
  u64 raw_bytes = 0;
  bool failed = false;
  bool cancelled = false;  ///< dropped by first-error cancellation
  std::string error;
  bool reused = false;  ///< stream came from the store's dedup probe
  bool audited = false;
  u64 audit_violations = 0;
};

/// Dedup probe shared by the pipeline's hash stage and the network server's
/// COMPRESS path: compute the request's content key and look it up in the
/// store. On a hit, `stream_out` holds the stored (byte-identical) stream.
/// Records the ingest.probe_hits / ingest.probe_misses counters.
struct ProbeResult {
  common::Hash128 key;
  bool hit = false;
};
ProbeResult probe_compress(store::ChunkStore& cs, const void* raw, std::size_t n,
                           DType dtype, EbType eb, double eps, Bytes& stream_out);

class IngestPipeline {
 public:
  struct Options {
    DType dtype = DType::F32;
    pfpl::Params params;
    unsigned threads = 0;  ///< encode pool; 0 = hardware concurrency
    /// Per-queue bounds (three queues: read→hash, hash→encode,
    /// encode→append). Backpressure: a push blocks while the queue holds
    /// `queue_items` items or `queue_bytes` bytes.
    std::size_t queue_items = 4;
    std::size_t queue_bytes = 256u << 20;
    std::size_t read_buffer_bytes = 4u << 20;  ///< double-buffer size
    /// Append batching: group commits are cut at whichever bound trips
    /// first (or when the append queue momentarily runs dry).
    std::size_t batch_items = 16;
    std::size_t batch_bytes = 32u << 20;
    std::size_t max_inflight_bytes = 256u << 20;  ///< encode chunk admission
    bool audit = false;      ///< re-verify every stream against its bound
    bool fail_fast = false;  ///< first error cancels upstream stages
    /// Optional PFPS chunk store (borrowed; must outlive the pipeline).
    store::ChunkStore* store = nullptr;
    /// Injected per-stage cost in microseconds {read, hash, encode, append},
    /// applied once per item per stage. Tests use it to slow one stage down
    /// so queues fill and batching shows, whatever the machine's speed.
    u64 stage_cost_us[4] = {0, 0, 0, 0};
    /// In-order completion callback (fires on the append-stage thread).
    std::function<void(const Result&, std::size_t index, std::size_t total)> progress;
  };

  explicit IngestPipeline(const Options& opts);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Run every item through the pipeline; results come back in item order.
  /// Per-item errors land in Result::failed/error, never thrown.
  std::vector<Result> run(std::vector<Item> items);

  /// Metrics of the most recent run().
  const IngestStats& stats() const { return stats_; }

  unsigned threads() const;

 private:
  struct Work;
  struct RunState;

  Options opts_;
  std::unique_ptr<svc::ThreadPool> pool_;
  IngestStats stats_;
};

}  // namespace repro::ingest
