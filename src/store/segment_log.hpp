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
// CRC-32s — one over the fixed header fields, one over the payload — so a
// torn write is detectable at the exact frame boundary.
//
// Crash safety: reopening scans every segment front to back. The first
// invalid frame in the ACTIVE segment marks the torn tail of an interrupted
// append — the file is truncated back to the last valid frame and appending
// resumes there, losing at most that single frame. An invalid frame anywhere
// else is corruption (frames are variable-length, so nothing after it can be
// resynchronized); the rest of that segment is skipped, counted as dead
// bytes, and reported by verify(). The manifest is written via
// write-tmp + fsync + rename + fsync(dir), so a crash leaves either the old
// or the new generation, never a torn one; a missing or corrupt manifest
// degrades to a full directory scan, losing nothing but the sealed-size
// bookkeeping.
//
// Dedup: put() of a key that is already indexed is a no-op (the index is
// content-addressed). Dead bytes — torn tails, corrupt regions, duplicate
// frames left behind by an interrupted compact() — are reclaimed by
// compact(), which rewrites the live entries into fresh segments, commits
// the new manifest, and only then deletes the old files.
//
// Thread safety: all public methods are serialized on one internal mutex
// (appends are I/O-bound; the hot read path is the in-memory cache tier in
// front of this class).
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

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

  /// Opens (creating the directory if needed) and recovers the store.
  /// Throws CompressionError on unrecoverable I/O failure.
  explicit SegmentStore(const Options& opts);
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

  /// Append a group of chunks under ONE lock acquisition, ONE stdio flush,
  /// and (when Options::fsync_each_append is set) ONE fsync for the whole
  /// batch — the ingest pipeline's group commit. Duplicate keys (against
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

  /// Flush and fsync the active segment and commit a fresh manifest (called
  /// by the destructor; exposed for deterministic tests).
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
  void write_manifest_locked();
  void open_active_locked(u64 id, bool create);
  void rotate_locked();
  void scan_segment_locked(Segment& seg, bool active);
  /// Write one frame at the active segment's tail. `flush` controls the
  /// per-frame fflush/fsync (put() flushes each frame; append_batch() defers
  /// to one group flush). `torn_kill` is the batch kill hook: write half the
  /// payload, fsync, SIGKILL.
  void append_frame_locked(const common::Hash128& key, const Bytes& payload,
                           const ChunkMeta& meta, bool flush, bool torn_kill = false);

  Options opts_;
  mutable std::mutex m_;
  std::map<u64, Segment> segments_;  ///< ordered by id; last = active
  std::unordered_map<common::Hash128, IndexEntry, common::Hash128Hasher> index_;
  std::FILE* active_ = nullptr;  ///< append handle for the active segment
  u64 generation_ = 0;
  u64 live_bytes_ = 0;
  u64 dead_bytes_ = 0;
  OpenReport open_report_;
  u64 appends_this_process_ = 0;  ///< drives the PFPL_STORE_TEST_KILL_AT_APPEND hook
  u64 batch_frames_this_process_ = 0;  ///< PFPL_STORE_TEST_KILL_AT_BATCH_ITEM hook
};

}  // namespace repro::store
