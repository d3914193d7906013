#include "store/segment_log.hpp"

#include <algorithm>
#include <cstdio>
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

/// Segment file header: magic, version, reserved, segment id.
void encode_segment_header(u8* p, u64 id) {
  put_le(p + 0, kSegmentMagic);
  put_le(p + 4, kStoreVersion);
  put_le(p + 6, u16{0});
  put_le(p + 8, id);
}

/// Whether the `n` bytes at `p` start with segment `id`'s header.
bool segment_header_ok(const u8* p, std::size_t n, u64 id) {
  if (n < kSegmentHeaderSize) return false;
  common::ByteReader r(p, n, "PFPS segment");
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
  u32 payload_crc = 0;
};

/// Decode the kChunkFrameHeaderSize bytes at `p` into `out`; false on a bad
/// magic or header CRC, or an implausible dtype/eb.
bool read_frame_header(const u8* p, DecodedFrame& out) {
  common::ByteReader r(p, kChunkFrameHeaderSize, "PFPS segment");
  if (r.take<u32>() != kFrameMagic) return false;
  if (r.take<u32>() != common::crc32(p + 8, kChunkFrameHeaderSize - 8)) return false;
  out.key.hi = r.take<u64>();
  out.key.lo = r.take<u64>();
  const u8 dtype = r.take<u8>(), eb = r.take<u8>();
  if (dtype > 1 || eb > 2) return false;
  out.meta.dtype = static_cast<DType>(dtype);
  out.meta.eb = static_cast<EbType>(eb);
  r.take<u16>();  // reserved
  out.payload_crc = r.take<u32>();
  out.meta.eps = r.take<double>();
  out.meta.raw_size = r.take<u64>();
  out.payload_len = r.take<u64>();
  return true;
}

/// Decode the frame at `p`, with `n` segment bytes left from there, into
/// `out` and return its total size, or 0 when those bytes do not start with
/// one whole valid frame (short, bad header, bad payload CRC) — the caller
/// treats that as torn tail or corruption depending on context.
std::size_t read_frame(const u8* p, std::size_t n, DecodedFrame& out) {
  if (n < kChunkFrameHeaderSize || !read_frame_header(p, out)) return 0;
  if (out.payload_len > n - kChunkFrameHeaderSize) return 0;
  const std::size_t len = static_cast<std::size_t>(out.payload_len);
  if (common::crc32(p + kChunkFrameHeaderSize, len) != out.payload_crc) return 0;
  return kChunkFrameHeaderSize + len;
}

}  // namespace

SegmentStore::SegmentStore(const Options& opts, io::FileOps& ops) : opts_(opts), ops_(ops) {
  if (opts_.dir.empty()) throw CompressionError("store: empty directory path");
  if (opts_.max_segment_bytes < kSegmentHeaderSize + kChunkFrameHeaderSize)
    throw CompressionError("store: max_segment_bytes too small for one frame");
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) throw CompressionError(opts_.dir + ": create_directories: " + ec.message());

  std::lock_guard<std::mutex> lk(m_);

  // Manifest first: open reads only its generation (and checks its CRC). A
  // missing or corrupt manifest is survivable — the scan below rebuilds it.
  bool have_manifest = false, manifest_ok = false;
  try {
    const Bytes mf = io::read_file(manifest_path());
    have_manifest = true;
    if (mf.size() >= 24 + 4) {
      common::ByteReader r(mf, "PFPS manifest");
      const u32 magic = r.take<u32>();
      const u16 version = r.take<u16>();
      r.take<u16>();  // reserved
      generation_ = r.take<u64>();
      manifest_ok = magic == kManifestMagic && version == kStoreVersion &&
                    get_le<u32>(mf.data() + mf.size() - 4) ==
                        common::crc32(mf.data(), mf.size() - 4);
    }
  } catch (const CompressionError&) {
  }
  if (!manifest_ok) generation_ = 0;
  open_report_.manifest_recovered = have_manifest && !manifest_ok;

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
    scan_segment_locked(seg);
    segments_.emplace(seg.id, seg);
  }

  if (segments_.empty()) {
    active_ = create_segment_locked(1);
    segments_.emplace(1, Segment{1, kSegmentHeaderSize, kSegmentHeaderSize, false});
    write_manifest_locked(segments_);
  } else {
    // Segments without a valid manifest (deleted, torn, or corrupt) mean the
    // bookkeeping was lost and rebuilt from the scan — flag it and commit a
    // fresh manifest. A brand-new empty directory is NOT a recovery.
    if (!manifest_ok) open_report_.manifest_recovered = true;
    // Past the last valid frame of the active segment lies the torn tail of
    // an interrupted append: drop it and resume there. A segment unusable
    // from byte 0 gets a fresh header.
    Segment& act = segments_.rbegin()->second;
    open_report_.torn_bytes = act.file_bytes - act.valid_bytes;
    if (act.valid_bytes == 0) {
      active_ = create_segment_locked(act.id);
      act.valid_bytes = kSegmentHeaderSize;
    } else {
      if (open_report_.torn_bytes) ops_.truncate(segment_path(act.id), act.valid_bytes);
      active_ = ops_.open_append(segment_path(act.id));
    }
    act.file_bytes = act.valid_bytes;
    if (open_report_.manifest_recovered) write_manifest_locked(segments_);
  }

  open_report_.generation = generation_;
  open_report_.segments = segments_.size();
  open_report_.entries = index_.size();
  open_report_.live_bytes = live_bytes_;
  open_report_.dead_bytes = dead_bytes_;
  publish_locked();
}

void SegmentStore::publish_locked() {
  LogMetrics& m = LogMetrics::get();
  m.live_bytes.set(static_cast<long long>(live_bytes_));
  m.dead_bytes.set(static_cast<long long>(dead_bytes_));
  entries_ = index_.size();
  m.entries.set(static_cast<long long>(index_.size()));
  m.segments.set(static_cast<long long>(segments_.size()));
}

SegmentStore::~SegmentStore() {
  try {
    sync();
  } catch (...) {
    // Destructor: nothing useful to do with a failed final sync.
  }
}

std::string SegmentStore::segment_path(u64 id) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%08llu.pfps", static_cast<unsigned long long>(id));
  return opts_.dir + "/" + buf;
}

std::string SegmentStore::manifest_path() const { return opts_.dir + "/manifest.pfps"; }

void SegmentStore::scan_segment_locked(Segment& seg) {
  const io::FileBuffer data = io::read_file_uninit(segment_path(seg.id));
  const u8* p = data.data.get();
  seg.file_bytes = data.size;
  seg.valid_bytes = 0;  // stays 0 when the header is unusable
  if (segment_header_ok(p, data.size, seg.id)) {
    std::size_t off = kSegmentHeaderSize;
    DecodedFrame f;
    while (const std::size_t frame_bytes = read_frame(p + off, data.size - off, f)) {
      if (index_.emplace(f.key, IndexEntry{seg.id, off, f.payload_len, f.meta}).second) {
        live_bytes_ += frame_bytes;
      } else {
        ++open_report_.duplicate_frames;
        dead_bytes_ += frame_bytes;
      }
      off += frame_bytes;
    }
    seg.valid_bytes = off;
  }
  // An invalid frame in a sealed segment is corruption: frames are
  // variable-length, so nothing after it can be resynchronized.
  if (seg.sealed && (seg.valid_bytes == 0 || seg.valid_bytes < seg.file_bytes)) {
    ++open_report_.corrupt_segments;
    dead_bytes_ += seg.file_bytes - seg.valid_bytes;
  }
}

std::unique_ptr<io::FileOps::File> SegmentStore::create_segment_locked(u64 id) {
  std::unique_ptr<io::FileOps::File> file = ops_.create(segment_path(id));
  u8 hdr[kSegmentHeaderSize];
  encode_segment_header(hdr, id);
  file->append(hdr, sizeof hdr);
  return file;
}

void SegmentStore::discard_locked(u64 id) {
  std::error_code ec;
  try {
    if (fs::exists(segment_path(id), ec)) ops_.remove(segment_path(id));
  } catch (const CompressionError&) {  // a leftover only repeats kept frames
  }
}

void SegmentStore::write_manifest_locked(const std::map<u64, Segment>& segments) {
  ++generation_;
  Bytes buf(24 + segments.size() * 24 + 4);
  put_le(buf.data() + 0, kManifestMagic);
  put_le(buf.data() + 4, kStoreVersion);
  put_le(buf.data() + 6, u16{0});
  put_le(buf.data() + 8, generation_.load());
  put_le(buf.data() + 16, static_cast<u64>(segments.size()));
  std::size_t off = 24;
  for (const auto& [id, seg] : segments) {
    put_le(buf.data() + off, id);
    put_le(buf.data() + off + 8, seg.valid_bytes);
    put_le(buf.data() + off + 16, u64{seg.sealed ? 1u : 0u});
    off += 24;
  }
  put_le(buf.data() + off, common::crc32(buf.data(), off));

  // tmp + fsync + rename + fsync(dir): a crash leaves either the previous
  // generation or this one, never a torn manifest.
  const std::string tmp = manifest_path() + ".tmp";
  {
    std::unique_ptr<io::FileOps::File> f = ops_.create(tmp);
    f->append(buf.data(), buf.size());
    f->fsync();
  }
  ops_.rename(tmp, manifest_path());
  ops_.fsync_dir(opts_.dir);
}

bool SegmentStore::contains(const common::Hash128& key) const {
  std::lock_guard<std::mutex> lk(m_);
  return index_.find(key) != index_.end();
}

bool SegmentStore::get(const common::Hash128& key, Bytes& out, ChunkMeta* meta) const {
  IndexEntry e;
  {
    std::lock_guard<std::mutex> lk(m_);
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    e = it->second;
  }
  const io::RawFile file(segment_path(e.segment));
  u8 hdr[kChunkFrameHeaderSize];  // the header lands here, the payload straight in `out`
  file.read_at(e.offset, hdr, sizeof hdr);
  DecodedFrame f;
  bool ok = read_frame_header(hdr, f) && f.key == key && f.payload_len == e.payload_len;
  if (ok) {
    out.resize(static_cast<std::size_t>(e.payload_len));
    file.read_at(e.offset + kChunkFrameHeaderSize, out.data(), out.size());
    ok = common::crc32(out.data(), out.size()) == f.payload_crc;
  }
  if (!ok)
    throw CompressionError("store: frame for " + key.hex() +
                           " failed CRC verification (corrupt segment)");
  if (meta) *meta = f.meta;
  LogMetrics::get().reads.add(1);
  return true;
}

u64 SegmentStore::write_frame_locked(io::FileOps::File& file, Segment& seg,
                                     const common::Hash128& key, const Bytes& payload,
                                     const ChunkMeta& meta) {
  // Staged in the store's one frame buffer, grown but never zero-filled.
  const std::size_t frame_size = kChunkFrameHeaderSize + payload.size();
  if (frame_cap_ < frame_size) {
    frame_buf_ = std::make_unique_for_overwrite<u8[]>(frame_size);
    frame_cap_ = frame_size;
  }
  encode_frame_header(frame_buf_.get(), key, meta,
                      common::crc32(payload.data(), payload.size()), payload.size());
  std::memcpy(frame_buf_.get() + kChunkFrameHeaderSize, payload.data(), payload.size());

  try {
    file.append(frame_buf_.get(), frame_size);
  } catch (const CompressionError&) {
    // Part of the frame may have landed: cut it off, or the next frame would
    // land past seg.valid_bytes, where the index does not look. Should the
    // cut fail too, file_bytes stays past valid_bytes and the next append to
    // the active segment retries it.
    seg.file_bytes = seg.valid_bytes + frame_size;
    ops_.truncate(segment_path(seg.id), seg.valid_bytes);
    seg.file_bytes = seg.valid_bytes;
    throw;
  }
  const u64 off = seg.valid_bytes;
  seg.valid_bytes += frame_size;
  seg.file_bytes = seg.valid_bytes;
  return off;
}

void SegmentStore::append_frame_locked(const common::Hash128& key, const Bytes& payload,
                                       const ChunkMeta& meta) {
  Segment& act = segments_.rbegin()->second;
  if (act.file_bytes != act.valid_bytes) {  // a failed append's cut failed too
    ops_.truncate(segment_path(act.id), act.valid_bytes);
    act.file_bytes = act.valid_bytes;
  }
  if (act.valid_bytes + kChunkFrameHeaderSize + payload.size() > opts_.max_segment_bytes &&
      act.valid_bytes > kSegmentHeaderSize)
    rotate_locked();
  Segment& seg = segments_.rbegin()->second;
  const u64 off = write_frame_locked(*active_, seg, key, payload, meta);
  index_.emplace(key, IndexEntry{seg.id, off, payload.size(), meta});
  live_bytes_ += kChunkFrameHeaderSize + payload.size();
  entries_ = index_.size();
}

void SegmentStore::rotate_locked() {
  Segment& seg = segments_.rbegin()->second;
  active_->fsync();
  const u64 next = seg.id + 1;
  try {
    std::unique_ptr<io::FileOps::File> file = create_segment_locked(next);
    seg.sealed = true;
    segments_.emplace(next, Segment{next, kSegmentHeaderSize, kSegmentHeaderSize, false});
    write_manifest_locked(segments_);
    active_ = std::move(file);
  } catch (const CompressionError&) {
    // Keep appending to the old segment, as if the rotation never started.
    seg.sealed = false;
    segments_.erase(next);
    discard_locked(next);
    throw;
  }
}

bool SegmentStore::put(const common::Hash128& key, const Bytes& payload,
                       const ChunkMeta& meta) {
  LogMetrics& m = LogMetrics::get();
  std::lock_guard<std::mutex> lk(m_);
  if (index_.find(key) != index_.end()) {
    m.dedup_hits.add(1);
    return false;
  }
  append_frame_locked(key, payload, meta);
  if (opts_.fsync_each_append) active_->fsync();
  m.appends.add(1);
  publish_locked();
  return true;
}

std::size_t SegmentStore::append_batch(const std::vector<BatchEntry>& entries) {
  LogMetrics& m = LogMetrics::get();
  std::lock_guard<std::mutex> lk(m_);
  std::size_t stored = 0;
  for (const BatchEntry& e : entries) {
    if (!e.payload) continue;
    if (index_.find(e.key) != index_.end()) {
      m.dedup_hits.add(1);
      continue;
    }
    append_frame_locked(e.key, *e.payload, e.meta);
    ++stored;
    m.appends.add(1);
  }
  // Group commit: at most one fsync covers the whole batch. Frames were
  // written in entry order, so durability is prefix-closed — a crash before
  // this point can only lose a suffix of the batch.
  if (stored) {
    if (opts_.fsync_each_append) active_->fsync();
    publish_locked();
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

std::size_t SegmentStore::entry_count() const { return entries_; }

u64 SegmentStore::live_bytes() const { return live_bytes_; }

u64 SegmentStore::dead_bytes() const { return dead_bytes_; }

u64 SegmentStore::generation() const { return generation_; }

SegmentStore::VerifyReport SegmentStore::verify() const {
  std::lock_guard<std::mutex> lk(m_);
  VerifyReport rep;
  for (const auto& [id, seg] : segments_) {
    ++rep.segments;
    const io::FileBuffer data = io::read_file_uninit(segment_path(id));
    const u8* p = data.data.get();
    rep.bytes_scanned += data.size;
    if (data.size < kSegmentHeaderSize || get_le<u32>(p) != kSegmentMagic) {
      ++rep.corrupt_frames;
      continue;
    }
    std::size_t off = kSegmentHeaderSize;
    while (off < data.size) {
      DecodedFrame f;
      const std::size_t frame_bytes = read_frame(p + off, data.size - off, f);
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

  // Build the new layout beside the old one: every live entry goes into
  // fresh segments above the old ids, with an empty active segment on top.
  // The manifest write commits it; until then the old layout and active
  // segment stay in use, and a failure removes every new file. A crash at
  // any point leaves a readable store (worst case: duplicate frames across
  // old and new segments, which the next open dedups).
  std::vector<std::pair<common::Hash128, IndexEntry>> live(index_.begin(), index_.end());
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second.segment != b.second.segment ? a.second.segment < b.second.segment
                                                : a.second.offset < b.second.offset;
  });

  const u64 base = segments_.rbegin()->first + 1;
  u64 cur_id = base;
  std::map<u64, Segment> layout;
  std::unordered_map<common::Hash128, IndexEntry, common::Hash128Hasher> new_index;
  u64 new_live = 0;
  std::unique_ptr<io::FileOps::File> active;
  try {
    std::unique_ptr<io::FileOps::File> out = create_segment_locked(cur_id);
    Segment cur{cur_id, kSegmentHeaderSize, kSegmentHeaderSize, /*sealed=*/true};
    for (const auto& [key, e] : live) {
      const Bytes payload = io::read_file_range(
          segment_path(e.segment), e.offset + kChunkFrameHeaderSize, e.payload_len);
      if (cur.valid_bytes + kChunkFrameHeaderSize + payload.size() > opts_.max_segment_bytes &&
          cur.valid_bytes > kSegmentHeaderSize) {
        out->fsync();
        layout.emplace(cur.id, cur);
        out = create_segment_locked(++cur_id);
        cur = Segment{cur_id, kSegmentHeaderSize, kSegmentHeaderSize, /*sealed=*/true};
      }
      const u64 off = write_frame_locked(*out, cur, key, payload, e.meta);
      new_index.emplace(key, IndexEntry{cur.id, off, e.payload_len, e.meta});
      new_live += kChunkFrameHeaderSize + payload.size();
    }
    out->fsync();
    layout.emplace(cur.id, cur);
    active = create_segment_locked(cur_id + 1);
    layout.emplace(cur_id + 1,
                   Segment{cur_id + 1, kSegmentHeaderSize, kSegmentHeaderSize, false});
    write_manifest_locked(layout);
  } catch (const CompressionError&) {
    for (u64 id = base; id <= cur_id + 1; ++id) discard_locked(id);
    throw;
  }

  // Committed: switch to the new layout, then delete the old files.
  std::swap(segments_, layout);
  index_ = std::move(new_index);
  live_bytes_ = new_live;
  dead_bytes_ = 0;
  active_ = std::move(active);

  rep.segments_after = segments_.size();
  for (const auto& [id, seg] : segments_) rep.bytes_after += seg.file_bytes;
  rep.reclaimed_bytes =
      rep.bytes_before > rep.bytes_after ? rep.bytes_before - rep.bytes_after : 0;
  publish_locked();

  // A leftover old file only duplicates frames, so the next open dedups it.
  for (const auto& [id, seg] : layout) ops_.remove(segment_path(id));
  ops_.fsync_dir(opts_.dir);
  return rep;
}

void SegmentStore::sync() {
  std::lock_guard<std::mutex> lk(m_);
  frame_buf_.reset();
  frame_cap_ = 0;
  active_->fsync();
  write_manifest_locked(segments_);
}

}  // namespace repro::store
