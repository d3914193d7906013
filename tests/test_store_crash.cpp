// Crash-point enumeration and failure injection for the PFPS segment store,
// after ALICE ("All File Systems Are Not Created Equal", OSDI 2014).
//
// A recording io::FileOps (recording_ops.hpp) wraps the POSIX one and logs
// every change the store makes to its directory while a script runs: puts, a
// put_batch across two rotations, sync, compact, and a reopen over a torn
// tail. For every
// operation index k the harness then
//   * rebuilds the directory as a crash at k would leave it, in three modes —
//     every completed write kept (process kill), every un-fsynced change
//     dropped (power loss), or operation k's append half-written (power loss
//     mid-write) — reopens a real store there and checks the invariants;
//   * reruns the script with operation k failing (EIO; appends also ENOSPC, a
//     short write, and a short write whose clean-up truncate fails too) and
//     checks the error surfaced and nothing acknowledged was lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "io/raw_file.hpp"
#include "recording_ops.hpp"
#include "store/segment_log.hpp"

using namespace repro;
using namespace repro::recording;
namespace fs = std::filesystem;

namespace {

using Files = std::map<std::string, Bytes>;

/// The directory a prefix of the log leaves, on a file system where fsync
/// makes a file's bytes durable and a directory fsync makes its names durable.
class Model {
 public:
  void apply(const Op& op, std::size_t index) {
    switch (op.kind) {
      case OpKind::Create: {
        auto it = names_.find(op.name);
        if (it != names_.end()) {
          inodes_[it->second].cur.clear();  // O_TRUNC keeps the inode
        } else {
          inodes_.emplace_back();
          it = names_.emplace(op.name, inodes_.size() - 1).first;
        }
        open_[index] = it->second;
        break;
      }
      case OpKind::OpenAppend: open_[index] = names_.at(op.name); break;
      case OpKind::Append: {
        Bytes& cur = inodes_[open_.at(op.file)].cur;
        cur.insert(cur.end(), op.data.begin(), op.data.end());
        break;
      }
      case OpKind::Fsync: {
        Inode& ino = inodes_[open_.at(op.file)];
        ino.dur = ino.cur;
        break;
      }
      case OpKind::Truncate: inodes_[names_.at(op.name)].cur.resize(op.size); break;
      case OpKind::Rename:
        names_[op.to] = names_.at(op.name);
        names_.erase(op.name);
        break;
      case OpKind::Remove: names_.erase(op.name); break;
      case OpKind::FsyncDir: durable_names_ = names_; break;
    }
  }
  /// Process kill: every completed change survives.
  Files kept() const { return files(names_, &Inode::cur); }
  /// Power loss: only what an fsync covered survives.
  Files dropped() const { return files(durable_names_, &Inode::dur); }

 private:
  struct Inode {
    Bytes cur, dur;
  };
  Files files(const std::map<std::string, std::size_t>& names, Bytes Inode::*which) const {
    Files out;
    for (const auto& [name, ino] : names) out[name] = inodes_[ino].*which;
    return out;
  }
  std::vector<Inode> inodes_;
  std::map<std::string, std::size_t> names_, durable_names_;
  std::map<std::size_t, std::size_t> open_;  ///< opening op index -> inode
};

/// Fresh per-case directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("pfpl_test_store_crash_" + tag)) {
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

struct Entry {
  common::Hash128 key;
  Bytes payload;
  std::size_t acked_at = kNever;    ///< ops completed when the write returned
  std::size_t durable_at = kNever;  ///< ops completed when an fsync covered it
};

struct Span {
  std::size_t begin = 0, end = 0;  ///< op indices [begin, end)
};

/// What one run of the script did, in op indices.
struct ScriptRun {
  std::vector<Entry> entries;
  std::size_t errors = 0;  ///< CompressionErrors the steps threw
  std::vector<std::pair<std::size_t, u64>> generations;  ///< (ops done, generation)
  u64 torn_bytes = 0;  ///< what the reopen over the torn tail truncated
  Span compact;        ///< the compact() step
  std::vector<Span> destructors;  ///< ~SegmentStore, which swallows errors
};

/// The script: put, put_batch across two rotations, sync, compact, close, a
/// torn tail appended to the active segment, reopen, more writes, sync.
ScriptRun run_script(const std::string& dir, RecordingOps& ops, bool fsync_each_append) {
  store::SegmentStore::Options o;
  o.dir = dir;
  o.max_segment_bytes = 1024;
  o.fsync_each_append = fsync_each_append;

  ScriptRun run;
  for (unsigned i = 0; i < 13; ++i) {
    Entry e;
    e.key = common::hash128(&i, sizeof i);
    e.payload.resize(150 + 23 * i);
    for (std::size_t b = 0; b < e.payload.size(); ++b) e.payload[b] = u8(i * 31 + b);
    run.entries.push_back(std::move(e));
  }
  std::unique_ptr<store::SegmentStore> st;

  auto step = [&](auto&& body) {
    try {
      body();
    } catch (const CompressionError&) {
      ++run.errors;
    }
  };
  auto ack = [&](std::vector<unsigned> ids) {
    for (unsigned i : ids) {
      Entry& e = run.entries[i];
      if (e.acked_at == kNever) e.acked_at = ops.attempted;
      if (fsync_each_append && e.durable_at == kNever) e.durable_at = ops.attempted;
    }
  };
  auto put = [&](unsigned i) {
    step([&] {
      if (!st) return;
      st->put(run.entries[i].key, run.entries[i].payload, {});
      ack({i});
    });
  };
  auto put_batch = [&](std::vector<unsigned> ids) {
    step([&] {
      if (!st) return;
      std::vector<store::SegmentStore::BatchEntry> batch;
      for (unsigned i : ids) batch.push_back({run.entries[i].key, &run.entries[i].payload, {}});
      st->append_batch(batch);
      ack(ids);
    });
  };
  // Every entry acknowledged before a sync()-like step began is durable
  // once the step completes.
  auto synced = [&](std::size_t began) {
    for (Entry& e : run.entries)
      if (e.acked_at <= began && e.durable_at == kNever) e.durable_at = ops.attempted;
  };
  auto note_generation = [&] {
    if (st) run.generations.emplace_back(ops.attempted, st->generation());
  };
  auto sync = [&] {
    step([&] {
      if (!st) return;
      const std::size_t began = ops.attempted;
      st->sync();
      synced(began);
      note_generation();
    });
  };
  auto open = [&] {
    step([&] {
      st = std::make_unique<store::SegmentStore>(o, ops);
      note_generation();
    });
  };
  auto close = [&] {
    if (!st) return;
    const std::size_t began = ops.attempted;
    note_generation();
    st.reset();
    run.destructors.push_back({began, ops.attempted});
    synced(began);
  };

  open();
  put(0);
  put(1);
  put(0);  // dedup: writes nothing
  put_batch({2, 3, 4, 5, 6, 7});
  sync();
  put(8);
  step([&] {
    if (!st) return;
    const std::size_t began = ops.attempted;
    st->compact();
    run.compact = {began, ops.attempted};
    synced(began);
    note_generation();
  });
  put(9);
  close();
  // A torn frame on the active segment, as a process killed mid-append
  // leaves it.
  step([&] {
    std::string active;
    for (const auto& de : fs::directory_iterator(dir)) {
      const std::string name = de.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && name > active) active = name;
    }
    if (active.empty()) return;  // the first open failed before creating one
    Bytes torn(40, 0x5a);
    common::put_le(torn.data(), store::kFrameMagic);
    ops.open_append(dir + "/" + active)->append(torn.data(), torn.size());
  });
  open();
  if (st) run.torn_bytes = st->open_report().torn_bytes;
  put(10);
  put_batch({11, 12});
  sync();
  // The running store still serves everything acknowledged.
  if (st)
    for (const Entry& e : run.entries) {
      if (e.acked_at == kNever) continue;
      Bytes out;
      EXPECT_NO_THROW(EXPECT_TRUE(st->get(e.key, out) && out == e.payload));
    }
  close();
  return run;
}

enum class Mode { Kill, PowerLoss, Torn };
const char* mode_name(Mode m) {
  return m == Mode::Kill ? "process kill" : m == Mode::PowerLoss ? "power loss" : "torn write";
}

void materialize(const std::string& dir, const Files& files) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : files)
    io::write_file(dir + "/" + name, bytes.data(), bytes.size());
}

/// Keys a store holds, each checked to read back as the bytes the script wrote.
std::set<common::Hash128> read_back(store::SegmentStore& st, const ScriptRun& run) {
  std::set<common::Hash128> keys;
  for (const store::StoredChunk& c : st.entries()) {
    const Entry* e = nullptr;
    for (const Entry& x : run.entries)
      if (x.key == c.key) e = &x;
    EXPECT_NE(e, nullptr) << "an entry that was never written appeared: " << c.key.hex();
    Bytes out;
    EXPECT_NO_THROW(EXPECT_TRUE(st.get(c.key, out) && e && out == e->payload))
        << "entry " << c.key.hex() << " does not read back byte-exact";
    keys.insert(c.key);
  }
  return keys;
}

/// The keys a crash at `k` must keep in `mode`.
std::set<common::Hash128> must_keep(const ScriptRun& run, std::size_t k, Mode mode) {
  std::set<common::Hash128> keys;
  for (const Entry& e : run.entries)
    if ((mode == Mode::PowerLoss ? e.durable_at : e.acked_at) <= k) keys.insert(e.key);
  return keys;
}

void check_crash_state(const std::string& dir, const Files& files, const ScriptRun& run,
                       std::size_t k, Mode mode) {
  SCOPED_TRACE(std::string("crash at op ") + std::to_string(k) + ", " + mode_name(mode));
  materialize(dir, files);
  store::SegmentStore::Options o;
  o.dir = dir;
  o.max_segment_bytes = 1024;
  std::unique_ptr<store::SegmentStore> st;
  ASSERT_NO_THROW(st = std::make_unique<store::SegmentStore>(o)) << "reopen threw";

  const std::set<common::Hash128> have = read_back(*st, run);
  for (const common::Hash128& key : must_keep(run, k, mode))
    EXPECT_TRUE(have.count(key)) << "lost entry " << key.hex();
  EXPECT_TRUE(st->verify().ok());

  u64 min_gen = 0;
  for (const auto& [done, gen] : run.generations)
    if (done <= k) min_gen = std::max(min_gen, gen);
  EXPECT_GE(st->open_report().generation, min_gen) << "generation went back";

  // Compaction is all or nothing: inside compact() the store reopens to the
  // entries a crash just before it keeps, or to every entry it held.
  if (run.compact.begin < k && k < run.compact.end) {
    const std::set<common::Hash128> before = must_keep(run, run.compact.begin, mode);
    const std::set<common::Hash128> all = must_keep(run, run.compact.begin, Mode::Kill);
    EXPECT_TRUE(have == before || have == all) << "compaction was partial";
  }
}

class StoreCrash : public testing::TestWithParam<bool> {
 protected:
  std::string tag(const char* what) const {
    return std::string(what) + (GetParam() ? "_fsync" : "");
  }
};

TEST_P(StoreCrash, EveryCrashPointRecovers) {
  TempDir script_dir(tag("script")), crash_dir(tag("state"));
  RecordingOps ops;
  const ScriptRun run = run_script(script_dir.str(), ops, GetParam());
  ASSERT_EQ(run.errors, 0u);
  ASSERT_GT(run.compact.end, run.compact.begin);
  ASSERT_EQ(run.torn_bytes, 40u);

  Model model;
  std::size_t states = 0;
  for (std::size_t k = 0; k <= ops.log.size(); ++k) {
    if (k > 0) model.apply(ops.log[k - 1], k - 1);
    check_crash_state(crash_dir.str(), model.kept(), run, k, Mode::Kill);
    check_crash_state(crash_dir.str(), model.dropped(), run, k, Mode::PowerLoss);
    states += 2;
    if (k < ops.log.size() && ops.log[k].kind == OpKind::Append && ops.log[k].data.size() > 1) {
      Model torn = model;
      Op half = ops.log[k];
      half.data.resize(half.data.size() / 2);
      torn.apply(half, k);
      check_crash_state(crash_dir.str(), torn.kept(), run, k, Mode::Torn);
      ++states;
    }
    if (HasFailure()) break;
  }
  std::printf("[ crash    ] %zu crash points, %zu directory states reopened\n",
              ops.log.size() + 1, states);
}

TEST_P(StoreCrash, EveryInjectedFailureIsAnError) {
  TempDir dir(tag("inject"));
  std::size_t ops_total = 0;
  std::vector<Op> clean_log;
  std::vector<Span> destructors;
  {
    RecordingOps ops;
    const ScriptRun run = run_script(dir.str(), ops, GetParam());
    ops_total = ops.attempted;
    clean_log = ops.log;
    destructors = run.destructors;
  }

  std::size_t runs = 0;
  for (std::size_t k = 0; k < ops_total; ++k) {
    std::vector<Fault> faults{Fault::Eio};
    if (clean_log[k].kind == OpKind::Append)
      faults = {Fault::Eio, Fault::Enospc, Fault::Short, Fault::ShortThenCutFails};
    bool in_destructor = false;
    for (const Span& s : destructors) in_destructor |= s.begin <= k && k < s.end;
    for (Fault fault : faults) {
      SCOPED_TRACE(std::string("op ") + std::to_string(k) + " fails with " + fault_name(fault));
      fs::remove_all(dir.str());
      RecordingOps ops;
      ops.fail_at = k;
      ops.fault = fault;
      const ScriptRun run = run_script(dir.str(), ops, GetParam());
      ++runs;
      // ~SegmentStore swallows the error of its final sync by contract. The
      // second failure of ShortThenCutFails may land in the next step.
      const std::size_t want = in_destructor ? 0 : 1;
      if (fault == Fault::ShortThenCutFails) {
        EXPECT_GE(run.errors, want);
        EXPECT_LE(run.errors, 2u);
      } else {
        EXPECT_EQ(run.errors, want);
      }

      store::SegmentStore::Options o;
      o.dir = dir.str();
      o.max_segment_bytes = 1024;
      std::unique_ptr<store::SegmentStore> st;
      ASSERT_NO_THROW(st = std::make_unique<store::SegmentStore>(o)) << "reopen threw";
      const std::set<common::Hash128> have = read_back(*st, run);
      for (const common::Hash128& key : must_keep(run, kNever - 1, Mode::Kill))
        EXPECT_TRUE(have.count(key)) << "lost entry " << key.hex();
      EXPECT_TRUE(st->verify().ok());
    }
    if (HasFailure()) break;
  }
  std::printf("[ inject   ] %zu operations, %zu failure scenarios\n", ops_total, runs);
}

INSTANTIATE_TEST_SUITE_P(Durability, StoreCrash, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string("FsyncEachAppend")
                                          : std::string("GroupFsync");
                         });

}  // namespace
