#include "svc/archive.hpp"

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "io/raw_file.hpp"

namespace repro::svc {
namespace {

// Shared by writer and reader: entry names are plain file names, never paths.
// The reader MUST enforce this too — archives are untrusted input, and a
// crafted name like "../../x" or "/etc/y" would otherwise escape the output
// directory when unpack joins it onto a destination path.
bool valid_entry_name(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos && name.find('\\') == std::string::npos;
}

// Index records are variable-length (the name); common::ByteReader turns any
// overrun into a typed error instead of a read past the buffer.
constexpr std::size_t kMinIndexRecord = 53;  // a record with a 1-byte name

Bytes serialize_index(const std::vector<ArchiveEntry>& entries) {
  Bytes out;
  for (const ArchiveEntry& e : entries) {
    common::append_le(out, static_cast<u16>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    common::append_le(out, static_cast<u8>(e.dtype));
    common::append_le(out, static_cast<u8>(e.eb_type));
    common::append_le(out, e.eps);
    common::append_le(out, e.offset);
    common::append_le(out, e.size);
    common::append_le(out, e.value_count);
    common::append_le(out, e.raw_size);
    common::append_le(out, e.crc32);
    common::append_le(out, u32{0});  // reserved
  }
  return out;
}

std::vector<ArchiveEntry> parse_index(common::ByteReader& r, u32 entry_count, u64 file_size) {
  // entry_count has no CRC of its own: bound it by the index bytes first.
  r.size_for(entry_count, kMinIndexRecord, "corrupted index (entry count exceeds index size)");
  std::vector<ArchiveEntry> entries;
  entries.reserve(entry_count);
  for (u32 i = 0; i < entry_count; ++i) {
    ArchiveEntry e;
    const u16 name_len = r.take<u16>();
    e.name.assign(reinterpret_cast<const char*>(r.take_bytes(name_len)), name_len);
    if (!valid_entry_name(e.name))
      r.fail("corrupted index (unsafe entry name '" + e.name + "' in entry " +
             std::to_string(i) + ")");
    const u8 dtype = r.take<u8>();
    const u8 eb = r.take<u8>();
    if (dtype > 1 || eb > 2)
      r.fail("corrupted index (bad dtype/eb in entry " + std::to_string(i) + ")");
    e.dtype = static_cast<DType>(dtype);
    e.eb_type = static_cast<EbType>(eb);
    e.eps = r.take<double>();
    e.offset = r.take<u64>();
    e.size = r.take<u64>();
    e.value_count = r.take<u64>();
    e.raw_size = r.take<u64>();
    e.crc32 = r.take<u32>();
    r.take<u32>();  // reserved
    if (e.offset < kArchiveHeaderSize || e.size > file_size || e.offset > file_size - e.size)
      r.fail("corrupted index (entry '" + e.name + "' out of bounds)");
    entries.push_back(std::move(e));
  }
  if (r.remaining() != 0) r.fail("corrupted index (trailing bytes)");
  return entries;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ArchiveWriter::ArchiveWriter(const std::string& path, io::FileOps& ops)
    : file_(ops.create(path)) {
  u8 header[kArchiveHeaderSize];
  common::put_le(header, kArchiveMagic);
  common::put_le(header + 4, kArchiveVersion);
  common::put_le(header + 6, u16{0});  // reserved
  write_raw(header, sizeof header);
}

void ArchiveWriter::write_raw(const u8* data, std::size_t n) {
  file_->append(data, n);
  offset_ += n;
}

void ArchiveWriter::add(const std::string& name, const pfpl::Header& header,
                        const Bytes& stream, u64 raw_size) {
  if (!file_) throw CompressionError("PFPA: add() after finish()");
  if (name.size() > 0xFFFF || !valid_entry_name(name))
    throw CompressionError("PFPA: invalid entry name '" + name + "'");
  for (const ArchiveEntry& e : entries_)
    if (e.name == name) throw CompressionError("PFPA: duplicate entry name '" + name + "'");
  ArchiveEntry e;
  e.name = name;
  e.dtype = header.dtype;
  e.eb_type = header.eb_type;
  e.eps = header.eps;
  e.offset = offset_;
  e.size = stream.size();
  e.value_count = header.value_count;
  e.raw_size = raw_size;
  e.crc32 = common::crc32(stream.data(), stream.size());
  write_raw(stream.data(), stream.size());
  entries_.push_back(std::move(e));
}

void ArchiveWriter::finish() {
  if (!file_) throw CompressionError("PFPA: finish() called twice");
  const u64 index_offset = offset_;
  Bytes tail = serialize_index(entries_);  // index + footer, one append
  const u64 index_size = tail.size();
  const u32 index_crc = common::crc32(tail.data(), tail.size());
  common::append_le(tail, index_offset);
  common::append_le(tail, index_size);
  common::append_le(tail, static_cast<u32>(entries_.size()));
  common::append_le(tail, index_crc);
  common::append_le(tail, kArchiveMagic);
  write_raw(tail.data(), tail.size());
  file_.reset();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ArchiveReader::ArchiveReader(const std::string& path) : path_(path) {
  const u64 total = io::file_size(path);
  if (total < kArchiveHeaderSize + kArchiveFooterSize)
    throw CompressionError("PFPA: " + path + " is truncated (no footer)");

  const std::string what = "PFPA: " + path;
  const Bytes head = io::read_file_range(path, 0, kArchiveHeaderSize);
  common::ByteReader hr(head, what);
  if (hr.take<u32>() != kArchiveMagic) hr.fail("bad magic");
  const u16 version = hr.take<u16>();
  if (version != kArchiveVersion) hr.fail("unsupported version " + std::to_string(version));

  const u64 foot_at = total - kArchiveFooterSize;
  const Bytes foot = io::read_file_range(path, foot_at, kArchiveFooterSize);
  common::ByteReader fr(foot.data(), foot.size(), what, foot_at);
  const u64 index_offset = fr.take<u64>();
  const u64 index_size = fr.take<u64>();
  const u32 entry_count = fr.take<u32>();
  const u32 index_crc = fr.take<u32>();
  if (fr.take<u32>() != kArchiveMagic) fr.fail("bad footer magic");
  if (index_offset < kArchiveHeaderSize || index_size > foot_at ||
      index_offset != foot_at - index_size)
    fr.fail("corrupted index (bad extent)");

  const Bytes index =
      io::read_file_range(path, index_offset, static_cast<std::size_t>(index_size));
  if (common::crc32(index.data(), index.size()) != index_crc)
    fr.fail("corrupted index (checksum mismatch)");
  common::ByteReader ir(index.data(), index.size(), what + " index", index_offset);
  entries_ = parse_index(ir, entry_count, index_offset);
}

const ArchiveEntry& ArchiveReader::find(const std::string& name) const {
  for (const ArchiveEntry& e : entries_)
    if (e.name == name) return e;
  throw CompressionError("PFPA: " + path_ + ": no entry named '" + name + "'");
}

Bytes ArchiveReader::read_entry(const ArchiveEntry& e) const {
  Bytes stream = io::read_file_range(path_, e.offset, static_cast<std::size_t>(e.size));
  if (common::crc32(stream.data(), stream.size()) != e.crc32)
    throw CompressionError("PFPA: " + path_ + ": entry '" + e.name +
                           "' failed checksum (corrupted payload)");
  return stream;
}

}  // namespace repro::svc
