// SegmentStore — the persistent tier of the PFPS chunk store ("PFPS/1").
//
// A store directory holds:
//
//   manifest.pfps       fsync'd manifest: generation number + the segment
//                       list with each sealed segment's valid byte count
//   seg-NNNNNNNN.pfps   append-only segment files of CRC-32-framed chunks
//
// Writes only ever append to the highest-numbered ("active") segment; once a
// segment reaches max_segment_bytes it is fsync'd, sealed into the manifest
// (generation + 1), and a new active segment starts. Every frame carries two
// CRC-32s (fixed header fields, payload), so a torn write is detectable at
// the exact frame boundary. Every change to the directory goes through the
// io::FileOps it was given (io/file_ops.hpp, the library's one write seam).
//
// Crash model: a returned append survives a process kill (no user-space
// buffer). A power loss keeps what an fsync covered: sealed segments, the
// active one up to the last sync(), and with fsync_each_append every returned
// put. Appends start writeback early (io::posix_file_ops(): every 1 MiB on
// Linux), which shortens the fsyncs but makes nothing durable sooner. Store
// files are created with mode 0666 less the umask, like every io::FileOps file.
// Reopen scans every segment; the first invalid frame of the ACTIVE
// segment starts the torn tail of an interrupted append, which is truncated.
// One anywhere else is corruption: the rest of that segment is dead and
// verify() reports it. A failed append truncates its partial frame at once.
// The manifest is written tmp + fsync + rename + fsync(dir), so a crash
// leaves the old or the new generation; open reads only the generation, and
// a missing or corrupt manifest is rebuilt from the scan.
//
// Dedup: put() of an indexed key is a no-op (the index is content-addressed).
// Dead bytes — torn tails, corrupt regions, duplicate frames left by an
// interrupted compact() — are reclaimed by compact(): it writes the live
// entries into fresh segments and commits the new manifest before it switches
// to them and deletes the old files. A failure before the commit removes the
// new files and changes nothing.
//
// Thread safety: all public methods are serialized on one internal mutex
// (appends are I/O-bound; the hot read path is the in-memory cache tier in
// front of this class), except the four counters, which never wait behind
// an append: a STATS render or the stall sampler reads them while a disk
// write is stuck.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "io/file_ops.hpp"

namespace repro::store {

inline constexpr u32 kSegmentMagic = 0x53504650u;   // "PFPS"
inline constexpr u32 kFrameMagic = 0x43534650u;     // "PFSC"
inline constexpr u32 kManifestMagic = 0x4D504650u;  // "PFPM"
inline constexpr u16 kStoreVersion = 1;
inline constexpr std::size_t kSegmentHeaderSize = 16;
inline constexpr std::size_t kChunkFrameHeaderSize = 56;

/// Parameters a stored chunk was compressed under (recorded in its frame).
struct ChunkMeta {
  DType dtype = DType::F32;
  EbType eb = EbType::ABS;
  double eps = 0.0;
  u64 raw_size = 0;  ///< original uncompressed bytes
};

/// One live index entry (returned by entries() for `pfpl store ls`).
struct StoredChunk {
  common::Hash128 key;
  ChunkMeta meta;
  u64 payload_len = 0;
  u64 segment = 0;  ///< segment id
  u64 offset = 0;   ///< frame start within the segment file
};

class SegmentStore {
 public:
  struct Options {
    std::string dir;
    u64 max_segment_bytes = 64u << 20;  ///< rotate the active segment past this
    bool fsync_each_append = false;     ///< durability per put() vs per seal
  };

  /// What open-time recovery found (the `pfpl store verify` preamble).
  struct OpenReport {
    u64 generation = 0;     ///< manifest generation after open
    u64 segments = 0;       ///< segment files indexed
    u64 entries = 0;        ///< live (deduped) entries
    u64 live_bytes = 0;     ///< frame bytes owned by live entries
    u64 dead_bytes = 0;     ///< duplicate/corrupt/torn bytes reclaimable by compact
    u64 torn_bytes = 0;     ///< bytes truncated off the active segment's tail
    u64 duplicate_frames = 0;
    u64 corrupt_segments = 0;  ///< segments with a mid-file invalid frame
    bool manifest_recovered = false;  ///< manifest missing/corrupt, rebuilt by scan
  };

  struct VerifyReport {
    u64 segments = 0;
    u64 frames_ok = 0;
    u64 corrupt_frames = 0;  ///< frames whose header or payload CRC fails now
    u64 bytes_scanned = 0;
    bool ok() const { return corrupt_frames == 0; }
  };

  struct CompactReport {
    u64 segments_before = 0;
    u64 segments_after = 0;
    u64 bytes_before = 0;
    u64 bytes_after = 0;
    u64 reclaimed_bytes = 0;
    u64 live_entries = 0;
  };

  /// Opens (creating the directory if needed) and recovers the store; every
  /// change to the directory goes through `ops`.
  /// Throws CompressionError on unrecoverable I/O failure.
  explicit SegmentStore(const Options& opts, io::FileOps& ops = io::posix_file_ops());
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  bool contains(const common::Hash128& key) const;

  /// Read one chunk's payload (verifying its CRC) into `out`; optionally its
  /// metadata. Returns false when the key is absent; throws CompressionError
  /// when the stored frame fails its CRC (surface corruption, never garbage).
  bool get(const common::Hash128& key, Bytes& out, ChunkMeta* meta = nullptr) const;

  /// Append a chunk. Returns true when newly stored, false when the key was
  /// already present (dedup hit — nothing is written).
  bool put(const common::Hash128& key, const Bytes& payload, const ChunkMeta& meta);

  /// One entry of append_batch(). The payload is borrowed; it must stay
  /// alive until the call returns.
  struct BatchEntry {
    common::Hash128 key;
    const Bytes* payload = nullptr;
    ChunkMeta meta;
  };

  /// Append a group of chunks under ONE lock acquisition and (when
  /// Options::fsync_each_append is set) ONE fsync for the whole batch — the
  /// ingest pipeline's group commit. Duplicate keys (against
  /// the index or earlier entries of the same batch) are skipped exactly
  /// like put(). Frames are written in entry order, so a crash mid-batch can
  /// only lose a suffix: the reopen scan truncates the torn frame and
  /// everything after it, never surfacing entry i+1 without entry i.
  /// Returns the number of entries newly stored.
  std::size_t append_batch(const std::vector<BatchEntry>& entries);

  std::vector<StoredChunk> entries() const;
  std::size_t entry_count() const;
  u64 live_bytes() const;
  u64 dead_bytes() const;
  u64 generation() const;
  const std::string& dir() const { return opts_.dir; }

  const OpenReport& open_report() const { return open_report_; }

  /// Re-read and CRC-check every frame of every segment on disk.
  VerifyReport verify() const;

  /// Rewrite live entries into fresh segments and drop the dead bytes.
  CompactReport compact();

  /// Fsync the active segment and commit a fresh manifest (called by the
  /// destructor; exposed for deterministic tests).
  void sync();

 private:
  struct Segment {
    u64 id = 0;
    u64 valid_bytes = 0;  ///< header + valid frames (append offset)
    u64 file_bytes = 0;   ///< on-disk size (>= valid when corrupt/torn)
    bool sealed = false;
  };
  struct IndexEntry {
    u64 segment = 0;
    u64 offset = 0;
    u64 payload_len = 0;
    ChunkMeta meta;
  };

  std::string segment_path(u64 id) const;
  std::string manifest_path() const;
  void write_manifest_locked(const std::map<u64, Segment>& segments);
  std::unique_ptr<io::FileOps::File> create_segment_locked(u64 id);
  /// Best-effort removal of segment `id`, if present, on a failure path.
  void discard_locked(u64 id);
  void rotate_locked();
  void scan_segment_locked(Segment& seg);
  void publish_locked();  ///< entries_ and the store.log.* gauges
  /// Append one frame to `file`, the open segment `seg`, and return its
  /// offset. A failed append truncates the segment back to seg.valid_bytes
  /// before rethrowing, so the next frame lands where the index says.
  u64 write_frame_locked(io::FileOps::File& file, Segment& seg, const common::Hash128& key,
                         const Bytes& payload, const ChunkMeta& meta);
  /// Append one indexed frame to the active segment, rotating first if full.
  void append_frame_locked(const common::Hash128& key, const Bytes& payload,
                           const ChunkMeta& meta);

  Options opts_;
  io::FileOps& ops_;
  mutable std::mutex m_;
  std::map<u64, Segment> segments_;  ///< ordered by id; last = active
  std::unordered_map<common::Hash128, IndexEntry, common::Hash128Hasher> index_;
  std::unique_ptr<io::FileOps::File> active_;  ///< append handle for the active segment
  std::unique_ptr<u8[]> frame_buf_;  ///< stages each frame; freed by sync()
  std::size_t frame_cap_ = 0;
  // Written under m_, read without it.
  std::atomic<u64> generation_{0};
  std::atomic<u64> live_bytes_{0};
  std::atomic<u64> dead_bytes_{0};
  std::atomic<std::size_t> entries_{0};  ///< index_.size()
  OpenReport open_report_;
};

}  // namespace repro::store
