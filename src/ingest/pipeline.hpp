// IngestPipeline — the repo's one multi-field, chunk-parallel compression
// path (`pfpl pack`, `pfpl store put`, the `pack` benchmark workload).
//
// PFPL's chunks are independent (paper §III-E), so the only serial step is
// committing results in order. Everything else is work on one svc pool:
//
//   prepare task  one per item: reads the file, runs the store dedup probe,
//                 plans the header and submits min(threads - 1, chunks - 1)
//                 helper tasks; then it encodes chunks itself
//   chunk claims  the prepare task and its helpers claim chunk indices from
//                 the item's atomic counter and encode each into its slot;
//                 the task that exits last assembles (and optionally audits)
//                 the item and marks it done
//   caller        keeps at most threads + 1 items in flight; before it would
//                 block on the oldest one, it commits the items already done
//                 (one ChunkStore::put_batch) and delivers them in order
//
// Assembly is in chunk-slot order, so every stream is byte-identical to
// single-threaded pfpl::compress whatever the worker count or finishing
// order. The caller delivers strictly oldest first, so the progress callback
// fires in submission order and run()'s result vector is index-aligned with
// its input.
//
// Errors: a per-item failure (unreadable file, a size that is not a whole
// number of scalars, invalid bound, store I/O) marks that item's Result and
// the rest of the run continues, matching `pfpl pack`: pack the rest, report
// the failures.
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
/// (raw). When `path` is non-empty its prepare task loads it; otherwise `raw`
/// is used as-is (the in-memory form the tests and the server use).
struct Item {
  std::string name;
  std::string path;
  Bytes raw;
};

struct Result {
  std::string name;
  common::Hash128 key;  ///< content key; zero without a store
  Bytes stream;         ///< empty when failed
  pfpl::Header header;  ///< valid when !failed
  u64 raw_bytes = 0;
  bool failed = false;
  bool cancelled = false;  ///< always false (nothing cancels items); benchmark/pack.cpp reads it
  std::string error;
  bool reused = false;  ///< stream came from the store's dedup probe
  bool audited = false;
  u64 audit_violations = 0;
};

/// Dedup probe shared by the pipeline's prepare task and the network server's
/// COMPRESS path: compute the request's content key and look it up in the
/// store. On a hit, `stream_out` holds the stored (byte-identical) stream.
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
    bool audit = false;    ///< re-verify every stream against its bound
    /// Optional PFPS chunk store (borrowed; must outlive the pipeline).
    store::ChunkStore* store = nullptr;
    /// In-order completion callback (fires on the thread that called run()).
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

  Options opts_;
  std::unique_ptr<svc::ThreadPool> pool_;
  IngestStats stats_;
};

}  // namespace repro::ingest
