#include "store/segment_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "io/raw_file.hpp"
#include "obs/metrics.hpp"

namespace repro::store {
namespace {

namespace fs = std::filesystem;
using common::get_le;
using common::put_le;

/// store.log.* metric handles, resolved once.
struct LogMetrics {
  obs::Counter& appends;
  obs::Counter& dedup_hits;
  obs::Counter& reads;
  obs::Gauge& live_bytes;
  obs::Gauge& dead_bytes;
  obs::Gauge& entries;
  obs::Gauge& segments;
  static LogMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static LogMetrics m{r.counter("store.log.appends"),
                        r.counter("store.log.dedup_hits"),
                        r.counter("store.log.reads"),
                        r.gauge("store.log.live_bytes"),
                        r.gauge("store.log.dead_bytes"),
                        r.gauge("store.log.entries"),
                        r.gauge("store.log.segments")};
    return m;
  }
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw CompressionError(what + ": " + std::strerror(errno));
}

/// Segment file header: magic, version, reserved, segment id.
void encode_segment_header(u8* p, u64 id) {
  put_le(p + 0, kSegmentMagic);
  put_le(p + 4, kStoreVersion);
  put_le(p + 6, u16{0});
  put_le(p + 8, id);
}

/// Whether `data` starts with segment `id`'s header.
bool segment_header_ok(const Bytes& data, u64 id) {
  if (data.size() < kSegmentHeaderSize) return false;
  common::ByteReader r(data, "PFPS segment");
  const u32 magic = r.take<u32>();
  const u16 version = r.take<u16>();
  r.take<u16>();  // reserved
  return magic == kSegmentMagic && version == kStoreVersion && r.take<u64>() == id;
}

/// Chunk frame header layout (little-endian, kChunkFrameHeaderSize bytes):
///   [0]  u32 frame magic
///   [4]  u32 header CRC-32 over bytes [8, 56)
///   [8]  u64 key.hi
///   [16] u64 key.lo
///   [24] u8 dtype, u8 eb type, u16 reserved
///   [28] u32 payload CRC-32
///   [32] f64 eps (IEEE-754 bits)
///   [40] u64 raw_size
///   [48] u64 payload_len
void encode_frame_header(u8* p, const common::Hash128& key, const ChunkMeta& meta,
                         u32 payload_crc, u64 payload_len) {
  put_le(p + 0, kFrameMagic);
  put_le(p + 8, key.hi);
  put_le(p + 16, key.lo);
  p[24] = static_cast<u8>(meta.dtype);
  p[25] = static_cast<u8>(meta.eb);
  put_le(p + 26, u16{0});
  put_le(p + 28, payload_crc);
  put_le(p + 32, meta.eps);
  put_le(p + 40, meta.raw_size);
  put_le(p + 48, payload_len);
  put_le(p + 4, common::crc32(p + 8, kChunkFrameHeaderSize - 8));
}

struct DecodedFrame {
  common::Hash128 key;
  ChunkMeta meta;
  u64 payload_len = 0;
};

/// Decode the frame at byte `off` of segment bytes `data` into `out` and
/// return its total size, or 0 when the bytes there are not one whole valid
/// frame (short, bad magic, bad header or payload CRC, implausible dtype/eb)
/// — the caller treats that as torn tail or corruption depending on context.
std::size_t read_frame(const Bytes& data, std::size_t off, DecodedFrame& out) {
  common::ByteReader r(data.data() + off, data.size() - off, "PFPS segment", off);
  if (r.remaining() < kChunkFrameHeaderSize) return 0;
  if (r.take<u32>() != kFrameMagic) return 0;
  if (r.take<u32>() != common::crc32(data.data() + off + 8, kChunkFrameHeaderSize - 8))
    return 0;
  out.key.hi = r.take<u64>();
  out.key.lo = r.take<u64>();
  const u8 dtype = r.take<u8>(), eb = r.take<u8>();
  if (dtype > 1 || eb > 2) return 0;
  out.meta.dtype = static_cast<DType>(dtype);
  out.meta.eb = static_cast<EbType>(eb);
  r.take<u16>();  // reserved
  const u32 payload_crc = r.take<u32>();
  out.meta.eps = r.take<double>();
  out.meta.raw_size = r.take<u64>();
  out.payload_len = r.take<u64>();
  if (out.payload_len > r.remaining()) return 0;
  const std::size_t n = static_cast<std::size_t>(out.payload_len);
  if (common::crc32(r.take_bytes(n), n) != payload_crc) return 0;
  return kChunkFrameHeaderSize + n;
}

void fsync_fd_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) throw_errno(what + ": fsync");
}

void fsync_dir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno(dir + ": open for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno(dir + ": fsync");
}

/// Test hook: the PFPL_STORE_TEST_KILL_AT_APPEND-th append in this process
/// writes a deliberately torn frame and SIGKILLs, simulating a crash
/// mid-write for the CI store-smoke job. 0 = disabled.
u64 kill_at_append() {
  static const u64 v = [] {
    const char* e = std::getenv("PFPL_STORE_TEST_KILL_AT_APPEND");
    return e ? std::strtoull(e, nullptr, 10) : 0ull;
  }();
  return v;
}

/// Batch-index variant: the Nth frame *written* through append_batch() in
/// this process tears and SIGKILLs — cumulative across calls, because a
/// caller's batching policy (e.g. the ingest pipeline's greedy batcher) may
/// split one logical batch into several small commits. Read fresh on every
/// call (no cached static) so a fork()ed test child can setenv() after the
/// parent process started.
u64 kill_at_batch_item() {
  const char* e = std::getenv("PFPL_STORE_TEST_KILL_AT_BATCH_ITEM");
  return e ? std::strtoull(e, nullptr, 10) : 0ull;
}

}  // namespace

SegmentStore::SegmentStore(const Options& opts) : opts_(opts) {
  if (opts_.dir.empty()) throw CompressionError("store: empty directory path");
  if (opts_.max_segment_bytes < kSegmentHeaderSize + kChunkFrameHeaderSize)
    throw CompressionError("store: max_segment_bytes too small for one frame");
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) throw CompressionError(opts_.dir + ": create_directories: " + ec.message());

  std::lock_guard<std::mutex> lk(m_);

  // Manifest first: it carries the generation number. A missing or corrupt
  // manifest is survivable — the directory scan below rebuilds everything.
  bool manifest_ok = false;
  {
    Bytes mf;
    bool have = false;
    try {
      mf = io::read_file(manifest_path());
      have = true;
    } catch (const CompressionError&) {
      have = false;
    }
    bool ok = false;
    if (have && mf.size() >= 24 + 4) {
      common::ByteReader r(mf, "PFPS manifest");
      const u32 magic = r.take<u32>();
      const u16 version = r.take<u16>();
      r.take<u16>();  // reserved
      const u64 generation = r.take<u64>();
      ok = magic == kManifestMagic && version == kStoreVersion &&
           get_le<u32>(mf.data() + mf.size() - 4) == common::crc32(mf.data(), mf.size() - 4);
      if (ok) generation_ = generation;
    }
    manifest_ok = ok;
    open_report_.manifest_recovered = have && !ok;
    if (!ok) generation_ = 0;
  }

  // Index every segment file present, in id order, rebuilding the in-memory
  // index from the frames themselves (first occurrence of a key wins).
  std::vector<u64> ids;
  for (const auto& de : fs::directory_iterator(opts_.dir)) {
    const std::string name = de.path().filename().string();
    if (name.size() == 4 + 8 + 5 && name.rfind("seg-", 0) == 0 &&
        name.substr(12) == ".pfps") {
      char* end = nullptr;
      const u64 id = std::strtoull(name.c_str() + 4, &end, 10);
      if (end == name.c_str() + 12) ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    Segment seg;
    seg.id = ids[i];
    seg.sealed = i + 1 < ids.size();  // highest id is the active segment
    scan_segment_locked(seg, !seg.sealed);
    segments_.emplace(seg.id, seg);
  }

  if (segments_.empty()) {
    open_active_locked(1, /*create=*/true);
    write_manifest_locked();
  } else {
    // Segments without a valid manifest (deleted, torn, or corrupt) mean the
    // bookkeeping was lost and rebuilt from the scan — flag it and commit a
    // fresh manifest. A brand-new empty directory is NOT a recovery.
    if (!manifest_ok) open_report_.manifest_recovered = true;
    open_active_locked(segments_.rbegin()->first, /*create=*/false);
    if (open_report_.manifest_recovered) write_manifest_locked();
  }

  open_report_.generation = generation_;
  open_report_.segments = segments_.size();
  open_report_.entries = index_.size();
  open_report_.live_bytes = live_bytes_;
  open_report_.dead_bytes = dead_bytes_;

  LogMetrics& m = LogMetrics::get();
  m.live_bytes.set(static_cast<long long>(live_bytes_));
  m.dead_bytes.set(static_cast<long long>(dead_bytes_));
  m.entries.set(static_cast<long long>(index_.size()));
  m.segments.set(static_cast<long long>(segments_.size()));
}

SegmentStore::~SegmentStore() {
  try {
    sync();
  } catch (...) {
    // Destructor: nothing useful to do with a failed final sync.
  }
  if (active_) std::fclose(active_);
}

std::string SegmentStore::segment_path(u64 id) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%08llu.pfps", static_cast<unsigned long long>(id));
  return opts_.dir + "/" + buf;
}

std::string SegmentStore::manifest_path() const { return opts_.dir + "/manifest.pfps"; }

void SegmentStore::scan_segment_locked(Segment& seg, bool active) {
  const std::string path = segment_path(seg.id);
  Bytes data = io::read_file(path);
  seg.file_bytes = data.size();
  seg.valid_bytes = 0;

  if (!segment_header_ok(data, seg.id)) {
    // Unusable from byte 0. Active: rewrite a fresh header so appends can
    // resume; sealed: all bytes are dead, verify() will flag it.
    if (active) {
      u8 hdr[kSegmentHeaderSize];
      encode_segment_header(hdr, seg.id);
      io::write_file(path, hdr, sizeof hdr);
      open_report_.torn_bytes += data.size();
      seg.file_bytes = kSegmentHeaderSize;
      seg.valid_bytes = kSegmentHeaderSize;
    } else {
      ++open_report_.corrupt_segments;
      dead_bytes_ += data.size();
    }
    return;
  }

  std::size_t off = kSegmentHeaderSize;
  while (off < data.size()) {
    DecodedFrame f;
    const std::size_t frame_bytes = read_frame(data, off, f);
    if (frame_bytes == 0) {
      if (active) {
        // Torn tail of an interrupted append: drop it and resume here.
        const u64 torn = data.size() - off;
        open_report_.torn_bytes += torn;
        std::error_code ec;
        fs::resize_file(path, off, ec);
        if (ec)
          throw CompressionError(path + ": truncate torn tail: " + ec.message());
        seg.file_bytes = off;
      } else {
        ++open_report_.corrupt_segments;
        dead_bytes_ += data.size() - off;
      }
      break;
    }
    if (index_.find(f.key) == index_.end()) {
      index_.emplace(f.key, IndexEntry{seg.id, off, f.payload_len, f.meta});
      live_bytes_ += frame_bytes;
    } else {
      ++open_report_.duplicate_frames;
      dead_bytes_ += frame_bytes;
    }
    off += frame_bytes;
    seg.valid_bytes = off;
  }
  if (seg.valid_bytes == 0) seg.valid_bytes = kSegmentHeaderSize;
}

void SegmentStore::open_active_locked(u64 id, bool create) {
  const std::string path = segment_path(id);
  if (create) {
    active_ = std::fopen(path.c_str(), "wb");
    if (!active_) throw_errno(path + ": create segment");
    u8 hdr[kSegmentHeaderSize];
    encode_segment_header(hdr, id);
    if (std::fwrite(hdr, 1, sizeof hdr, active_) != sizeof hdr)
      throw_errno(path + ": write segment header");
    if (std::fflush(active_) != 0) throw_errno(path + ": flush");
    Segment seg;
    seg.id = id;
    seg.valid_bytes = kSegmentHeaderSize;
    seg.file_bytes = kSegmentHeaderSize;
    segments_.emplace(id, seg);
  } else {
    // "ab" appends at end-of-file, which scan_segment_locked has already
    // truncated back to the last valid frame.
    active_ = std::fopen(path.c_str(), "ab");
    if (!active_) throw_errno(path + ": open segment for append");
  }
}

void SegmentStore::write_manifest_locked() {
  ++generation_;
  Bytes buf(24 + segments_.size() * 24 + 4);
  put_le(buf.data() + 0, kManifestMagic);
  put_le(buf.data() + 4, kStoreVersion);
  put_le(buf.data() + 6, u16{0});
  put_le(buf.data() + 8, generation_);
  put_le(buf.data() + 16, static_cast<u64>(segments_.size()));
  std::size_t off = 24;
  for (const auto& [id, seg] : segments_) {
    put_le(buf.data() + off, id);
    put_le(buf.data() + off + 8, seg.valid_bytes);
    put_le(buf.data() + off + 16, u64{seg.sealed ? 1u : 0u});
    off += 24;
  }
  put_le(buf.data() + off, common::crc32(buf.data(), off));

  // tmp + fsync + rename + fsync(dir): a crash leaves either the previous
  // generation or this one, never a torn manifest.
  const std::string tmp = manifest_path() + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno(tmp + ": open");
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno(tmp + ": write");
    }
    done += static_cast<std::size_t>(n);
  }
  fsync_fd_or_throw(fd, tmp);
  ::close(fd);
  if (std::rename(tmp.c_str(), manifest_path().c_str()) != 0)
    throw_errno(manifest_path() + ": rename manifest");
  fsync_dir(opts_.dir);
}

bool SegmentStore::contains(const common::Hash128& key) const {
  std::lock_guard<std::mutex> lk(m_);
  return index_.find(key) != index_.end();
}

bool SegmentStore::get(const common::Hash128& key, Bytes& out, ChunkMeta* meta) const {
  IndexEntry e;
  u64 seg_id;
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    e = it->second;
    seg_id = e.segment;
    // Appends go through stdio buffering; make the frame visible to the
    // read path before leaving the lock.
    if (active_ && !segments_.rbegin()->second.sealed &&
        seg_id == segments_.rbegin()->first)
      std::fflush(active_);
  }
  Bytes frame = io::read_file_range(segment_path(seg_id), e.offset,
                                    kChunkFrameHeaderSize + e.payload_len);
  DecodedFrame f;
  if (read_frame(frame, 0, f) != frame.size() || f.key != key)
    throw CompressionError("store: frame for " + key.hex() +
                           " failed CRC verification (corrupt segment)");
  out.assign(frame.begin() + static_cast<std::ptrdiff_t>(kChunkFrameHeaderSize),
             frame.end());
  if (meta) *meta = f.meta;
  LogMetrics::get().reads.add(1);
  return true;
}

void SegmentStore::append_frame_locked(const common::Hash128& key, const Bytes& payload,
                                       const ChunkMeta& meta, bool flush,
                                       bool torn_kill) {
  Bytes frame(kChunkFrameHeaderSize + payload.size());
  encode_frame_header(frame.data(), key, meta,
                      common::crc32(payload.data(), payload.size()), payload.size());
  std::memcpy(frame.data() + kChunkFrameHeaderSize, payload.data(), payload.size());

  ++appends_this_process_;
  const u64 kill_at = kill_at_append();
  const std::size_t write_n =
      (torn_kill || (kill_at && appends_this_process_ == kill_at))
          ? kChunkFrameHeaderSize + payload.size() / 2  // torn: half the payload
          : frame.size();

  Segment& seg = segments_.rbegin()->second;
  const std::string path = segment_path(seg.id);
  if (std::fwrite(frame.data(), 1, write_n, active_) != write_n)
    throw_errno(path + ": append frame");
  if (write_n != frame.size()) {
    // Crash simulation: make the torn frame (and every frame written before
    // it) visible on disk, then die without updating any bookkeeping.
    std::fflush(active_);
    ::fsync(::fileno(active_));
    std::raise(SIGKILL);
  }
  if (flush) {
    if (std::fflush(active_) != 0) throw_errno(path + ": flush");
    if (opts_.fsync_each_append) fsync_fd_or_throw(::fileno(active_), path);
  }

  index_.emplace(key, IndexEntry{seg.id, seg.valid_bytes, payload.size(), meta});
  seg.valid_bytes += frame.size();
  seg.file_bytes = seg.valid_bytes;
  live_bytes_ += frame.size();
}

void SegmentStore::rotate_locked() {
  Segment& seg = segments_.rbegin()->second;
  if (std::fflush(active_) != 0) throw_errno(segment_path(seg.id) + ": flush");
  fsync_fd_or_throw(::fileno(active_), segment_path(seg.id));
  std::fclose(active_);
  active_ = nullptr;
  seg.sealed = true;
  const u64 next = seg.id + 1;
  open_active_locked(next, /*create=*/true);
  write_manifest_locked();
}

bool SegmentStore::put(const common::Hash128& key, const Bytes& payload,
                       const ChunkMeta& meta) {
  LogMetrics& m = LogMetrics::get();
  std::lock_guard<std::mutex> lk(m_);
  if (index_.find(key) != index_.end()) {
    m.dedup_hits.add(1);
    return false;
  }
  if (segments_.rbegin()->second.valid_bytes + kChunkFrameHeaderSize + payload.size() >
          opts_.max_segment_bytes &&
      segments_.rbegin()->second.valid_bytes > kSegmentHeaderSize)
    rotate_locked();
  append_frame_locked(key, payload, meta, /*flush=*/true);
  m.appends.add(1);
  m.live_bytes.set(static_cast<long long>(live_bytes_));
  m.entries.set(static_cast<long long>(index_.size()));
  m.segments.set(static_cast<long long>(segments_.size()));
  return true;
}

std::size_t SegmentStore::append_batch(const std::vector<BatchEntry>& entries) {
  LogMetrics& m = LogMetrics::get();
  std::lock_guard<std::mutex> lk(m_);
  const u64 kill_item = kill_at_batch_item();
  std::size_t stored = 0;
  for (const BatchEntry& e : entries) {
    if (!e.payload) continue;
    if (index_.find(e.key) != index_.end()) {
      m.dedup_hits.add(1);
      continue;
    }
    if (segments_.rbegin()->second.valid_bytes + kChunkFrameHeaderSize +
                e.payload->size() >
            opts_.max_segment_bytes &&
        segments_.rbegin()->second.valid_bytes > kSegmentHeaderSize)
      rotate_locked();  // flushes + fsyncs the sealed segment
    ++batch_frames_this_process_;
    append_frame_locked(e.key, *e.payload, e.meta, /*flush=*/false,
                        /*torn_kill=*/kill_item &&
                            batch_frames_this_process_ == kill_item);
    ++stored;
    m.appends.add(1);
  }
  // Group commit: one flush (and at most one fsync) covers the whole batch.
  // Frames were written in entry order, so durability is prefix-closed — a
  // crash before this point can only lose a suffix of the batch.
  if (stored) {
    const std::string path = segment_path(segments_.rbegin()->first);
    if (std::fflush(active_) != 0) throw_errno(path + ": flush");
    if (opts_.fsync_each_append) fsync_fd_or_throw(::fileno(active_), path);
    m.live_bytes.set(static_cast<long long>(live_bytes_));
    m.entries.set(static_cast<long long>(index_.size()));
    m.segments.set(static_cast<long long>(segments_.size()));
  }
  return stored;
}

std::vector<StoredChunk> SegmentStore::entries() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<StoredChunk> out;
  out.reserve(index_.size());
  for (const auto& [key, e] : index_)
    out.push_back(StoredChunk{key, e.meta, e.payload_len, e.segment, e.offset});
  std::sort(out.begin(), out.end(), [](const StoredChunk& a, const StoredChunk& b) {
    return a.segment != b.segment ? a.segment < b.segment : a.offset < b.offset;
  });
  return out;
}

std::size_t SegmentStore::entry_count() const {
  std::lock_guard<std::mutex> lk(m_);
  return index_.size();
}

u64 SegmentStore::live_bytes() const {
  std::lock_guard<std::mutex> lk(m_);
  return live_bytes_;
}

u64 SegmentStore::dead_bytes() const {
  std::lock_guard<std::mutex> lk(m_);
  return dead_bytes_;
}

u64 SegmentStore::generation() const {
  std::lock_guard<std::mutex> lk(m_);
  return generation_;
}

SegmentStore::VerifyReport SegmentStore::verify() const {
  std::lock_guard<std::mutex> lk(m_);
  if (active_) std::fflush(active_);
  VerifyReport rep;
  for (const auto& [id, seg] : segments_) {
    ++rep.segments;
    Bytes data = io::read_file(segment_path(id));
    rep.bytes_scanned += data.size();
    if (data.size() < kSegmentHeaderSize || get_le<u32>(data.data()) != kSegmentMagic) {
      ++rep.corrupt_frames;
      continue;
    }
    std::size_t off = kSegmentHeaderSize;
    while (off < data.size()) {
      DecodedFrame f;
      const std::size_t frame_bytes = read_frame(data, off, f);
      if (frame_bytes == 0) {
        // Frames are variable-length: nothing after an invalid frame can be
        // trusted, so count the rest of the segment as one corrupt region.
        ++rep.corrupt_frames;
        break;
      }
      ++rep.frames_ok;
      off += frame_bytes;
    }
  }
  return rep;
}

SegmentStore::CompactReport SegmentStore::compact() {
  std::lock_guard<std::mutex> lk(m_);
  CompactReport rep;
  rep.segments_before = segments_.size();
  for (const auto& [id, seg] : segments_) rep.bytes_before += seg.file_bytes;
  rep.live_entries = index_.size();

  // Seal the world: everything live gets rewritten into fresh segments, the
  // manifest commits the new layout, and only then do the old files go away.
  // A crash at any point leaves a readable store (worst case: duplicate
  // frames across old and new segments, which the next open dedups).
  if (active_) {
    std::fflush(active_);
    std::fclose(active_);
    active_ = nullptr;
  }

  std::vector<std::pair<common::Hash128, IndexEntry>> live(index_.begin(), index_.end());
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second.segment != b.second.segment ? a.second.segment < b.second.segment
                                                : a.second.offset < b.second.offset;
  });

  const u64 base = segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  std::vector<u64> old_ids;
  for (const auto& [id, seg] : segments_) old_ids.push_back(id);

  std::map<u64, Segment> new_segments;
  std::unordered_map<common::Hash128, IndexEntry, common::Hash128Hasher> new_index;
  u64 new_live = 0;

  u64 cur_id = base;
  std::FILE* out = nullptr;
  Segment cur;
  auto open_new = [&](u64 id) {
    const std::string path = segment_path(id);
    out = std::fopen(path.c_str(), "wb");
    if (!out) throw_errno(path + ": create segment");
    u8 hdr[kSegmentHeaderSize];
    encode_segment_header(hdr, id);
    if (std::fwrite(hdr, 1, sizeof hdr, out) != sizeof hdr)
      throw_errno(path + ": write segment header");
    cur = Segment{id, kSegmentHeaderSize, kSegmentHeaderSize, /*sealed=*/true};
  };
  auto close_cur = [&] {
    if (!out) return;
    if (std::fflush(out) != 0) throw_errno(segment_path(cur.id) + ": flush");
    fsync_fd_or_throw(::fileno(out), segment_path(cur.id));
    std::fclose(out);
    out = nullptr;
    new_segments.emplace(cur.id, cur);
  };

  open_new(cur_id);
  for (const auto& [key, e] : live) {
    Bytes payload = io::read_file_range(segment_path(e.segment),
                                        e.offset + kChunkFrameHeaderSize, e.payload_len);
    Bytes frame(kChunkFrameHeaderSize + payload.size());
    encode_frame_header(frame.data(), key, e.meta,
                        common::crc32(payload.data(), payload.size()), payload.size());
    std::memcpy(frame.data() + kChunkFrameHeaderSize, payload.data(), payload.size());
    if (cur.valid_bytes + frame.size() > opts_.max_segment_bytes &&
        cur.valid_bytes > kSegmentHeaderSize) {
      close_cur();
      open_new(++cur_id);
    }
    if (std::fwrite(frame.data(), 1, frame.size(), out) != frame.size())
      throw_errno(segment_path(cur.id) + ": append frame");
    new_index.emplace(key, IndexEntry{cur.id, cur.valid_bytes, e.payload_len, e.meta});
    cur.valid_bytes += frame.size();
    cur.file_bytes = cur.valid_bytes;
    new_live += frame.size();
  }
  close_cur();

  // Fresh empty active segment on top of the compacted ones.
  segments_ = std::move(new_segments);
  index_ = std::move(new_index);
  live_bytes_ = new_live;
  dead_bytes_ = 0;
  open_active_locked(cur_id + 1, /*create=*/true);
  write_manifest_locked();

  for (u64 id : old_ids) {
    std::error_code ec;
    fs::remove(segment_path(id), ec);  // best-effort; leftovers dedup on reopen
  }
  fsync_dir(opts_.dir);

  rep.segments_after = segments_.size();
  for (const auto& [id, seg] : segments_) rep.bytes_after += seg.file_bytes;
  rep.reclaimed_bytes =
      rep.bytes_before > rep.bytes_after ? rep.bytes_before - rep.bytes_after : 0;

  LogMetrics& m = LogMetrics::get();
  m.live_bytes.set(static_cast<long long>(live_bytes_));
  m.dead_bytes.set(0);
  m.entries.set(static_cast<long long>(index_.size()));
  m.segments.set(static_cast<long long>(segments_.size()));
  return rep;
}

void SegmentStore::sync() {
  std::lock_guard<std::mutex> lk(m_);
  if (active_) {
    if (std::fflush(active_) != 0)
      throw_errno(segment_path(segments_.rbegin()->first) + ": flush");
    fsync_fd_or_throw(::fileno(active_), segment_path(segments_.rbegin()->first));
  }
  write_manifest_locked();
}

}  // namespace repro::store
