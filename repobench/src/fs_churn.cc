// fs_churn: one MinixFS client in the paper's "new, delete"
// configuration (concurrent ARUs, improved delete) doing steady-state
// small-file churn — create+write, overwrite, read, unlink — with a
// Sync closing every round.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "minixfs/check.h"
#include "minixfs/minix_fs.h"
#include "util/rng.h"
#include "workloads.h"

namespace repobench {
namespace {

namespace mfs = aru::minixfs;

constexpr std::uint64_t kDiskBytes = 128ull << 20;
constexpr int kDirs = 64;
constexpr std::size_t kFiles = 8192;       // steady-state population
constexpr std::size_t kSlack = 64;         // population band around kFiles
constexpr std::uint32_t kMinSize = 256;    // file sizes, bytes
constexpr std::uint32_t kMaxSize = 8192;
constexpr int kOpsPerRound = 1000;         // then one Sync
constexpr int kTailOps = 16;               // unsynced ops before the crash
constexpr int kSetups = 3;
// A restart sample (a crash image of the live disk, reopened) every
// this many rounds; the crash point's place in the cleaner/checkpoint
// cycle sets the replay work, so one crash point per run would make
// restart_ms a function of the seed, and samples spread over the run
// average out the host's slower and faster spells.
constexpr int kSnapshotEvery = 5;
// MinixFS meta-data cache, in blocks. The population's i-node table
// (kFiles / 64 blocks) plus its directories (kDirs * 2 blocks) is about
// twice this, so meta-data reads miss the cache.
constexpr std::size_t kMetaCacheBlocks = 128;

mfs::Policy FsPolicy() {
  mfs::Policy p;
  p.use_arus = true;
  p.improved_delete = true;
  p.cache_blocks = kMetaCacheBlocks;
  return p;
}

struct File {
  std::uint64_t id = 0;
  int dir = 0;
  std::uint32_t size = 0;
  std::uint64_t version = 0;
};

std::string DirPath(int dir) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "/d%02d", dir);
  return buf;
}
std::string FileName(std::uint64_t id) {
  // Appended: `"f" + std::to_string(id)` trips a GCC 12 -Wrestrict
  // false positive.
  std::string name = "f";
  name += std::to_string(id);
  return name;
}
std::string FilePath(const File& f) {
  return DirPath(f.dir) + "/" + FileName(f.id);
}

class FsChurn {
 public:
  FsChurn(const Args& args, Report& r)
      : args_(args), r_(r), rng_(Mix(args.seed, 0xf5)) {}

  void Run() {
    Status s = TimedSetups(r_, kSetups, [&] { return Setup(); });
    if (!s.ok()) return r_.Failed("setup", s);
    const std::uint64_t dev0 = st_.device_write_bytes();
    RunRounds(
        args_, r_,
        [&](bool on) {
          if (timed_) timed_->set_enabled(on);
          if (st_.counting) st_.counting->set_enabled(on);
        },
        [&](bool traced) { return Round(traced); });
    r_.device_bytes = st_.device_write_bytes() - dev0;
    if (!r_.correct) return;
    Tail();
    if (r_.correct) CrashAndRestart();
  }

 private:
  Status Setup() {
    fs_.reset();
    timed_.reset();
    st_ = Stack{};
    live_.clear();
    rng_ = aru::Rng(Mix(args_.seed, 0xf5));
    next_id_ = 1;
    ARU_ASSIGN_OR_RETURN(st_, FormatStack(kDiskBytes, {}, args_.trace));
    if (args_.trace) timed_ = std::make_unique<TimedDisk>(*st_.lld);
    ARU_RETURN_IF_ERROR(mfs::MinixFs::Mkfs(disk()));
    ARU_ASSIGN_OR_RETURN(fs_, mfs::MinixFs::Mount(disk(), FsPolicy()));
    for (int d = 0; d < kDirs; ++d) {
      ARU_RETURN_IF_ERROR(fs_->Mkdir(DirPath(d)).status());
    }
    while (live_.size() < kFiles) {
      ARU_RETURN_IF_ERROR(Create());
    }
    return fs_->Sync();
  }

  LdCounts LdNow() const { return timed_ ? timed_->counts() : LdCounts{}; }

  aru::ld::Disk& disk() {
    return timed_ ? static_cast<aru::ld::Disk&>(*timed_) : *st_.lld;
  }

  // A new file drawn from the seed: id, directory and size.
  File NewFile() {
    File f;
    f.id = next_id_++;
    f.dir = static_cast<int>(rng_.Below(kDirs));
    f.size = static_cast<std::uint32_t>(rng_.Range(kMinSize, kMaxSize));
    return f;
  }

  Status Create() {
    const File f = NewFile();
    ARU_RETURN_IF_ERROR(
        fs_->WriteFile(FilePath(f), Content(args_.seed, f.id, 0, f.size)));
    live_.push_back(f);
    return Status::Ok();
  }

  void Count(bool traced, std::uint64_t bytes) {
    if (traced) {
      r_.t_user_blocks += (bytes + 4095) / 4096;
    } else {
      r_.user_bytes += bytes;
    }
  }

  RoundStats Round(bool traced) {
    round_ = RoundStats{};
    TraceWindow window(traced, st_, LdNow());
    for (int i = 0; i < kOpsPerRound && r_.correct; ++i) OneOp(traced);
    if (r_.correct) {
      const Status s = TimeOp(r_, round_, traced, false, true,
                              [&] { return fs_->Sync(); });
      if (!s.ok()) r_.Failed("sync", s);
    }
    window.Close(r_, LdNow());
    if (r_.correct && ++rounds_ % kSnapshotEvery == 0) Snapshot();
    return round_;
  }

  void OneOp(bool traced) {
    // Mix: 40% read, 25% overwrite, 17.5% create, 17.5% unlink; the
    // population stays within kSlack of kFiles.
    std::uint64_t pick = rng_.Below(1000);
    if (pick >= 650) {
      pick = rng_.Below(2) == 0 ? 650 : 825;
      if (live_.size() < kFiles - kSlack) pick = 650;
      if (live_.size() > kFiles + kSlack) pick = 825;
    }
    if (pick < 400) {
      File& f = live_[rng_.Below(live_.size())];
      const std::string path = FilePath(f);
      aru::Result<Bytes> got = Bytes{};
      const Status s = TimeOp(r_, round_, traced, true, false, [&] {
        got = fs_->ReadFile(path);
        return got.status();
      });
      if (!s.ok()) return r_.Failed("read " + path, s);
      if (args_.corrupt == "flip_read" && !flipped_ && !got->empty()) {
        (*got)[got->size() / 2] ^= std::byte{1};
        flipped_ = true;
      }
      if (*got != Content(args_.seed, f.id, f.version, f.size)) {
        r_.Wrong("[read] " + path + " differs from the model");
      }
    } else if (pick < 650) {
      File& f = live_[rng_.Below(live_.size())];
      const std::string path = FilePath(f);
      const Bytes data = Content(args_.seed, f.id, f.version + 1, f.size);
      const Status s = TimeOp(r_, round_, traced, false, false,
                              [&] { return fs_->WriteFile(path, data); });
      if (!s.ok()) return r_.Failed("overwrite " + path, s);
      ++f.version;
      Count(traced, f.size);
    } else if (pick < 825) {
      const File f = NewFile();
      const std::string path = FilePath(f);
      const Bytes data = Content(args_.seed, f.id, 0, f.size);
      const Status s = TimeOp(r_, round_, traced, false, false,
                              [&] { return fs_->WriteFile(path, data); });
      if (!s.ok()) return r_.Failed("create " + path, s);
      live_.push_back(f);
      Count(traced, f.size);
    } else {
      const std::size_t i = rng_.Below(live_.size());
      const std::string path = FilePath(live_[i]);
      const Status s = TimeOp(r_, round_, traced, false, false,
                              [&] { return fs_->Unlink(path); });
      if (!s.ok()) return r_.Failed("unlink " + path, s);
      live_[i] = live_.back();
      live_.pop_back();
    }
  }

  // Unsynced operations before the crash, each atomic on its own:
  // unlinks (one ARU) and same-size overwrites of one-block files (one
  // LD write). After the crash each touched file must be at its synced
  // state or at a state the tail produced — nothing else.
  void Tail() {
    if (args_.corrupt == "drop_commit") {
      // The model records a synced overwrite the disk never saw.
      File& f = live_[rng_.Below(live_.size())];
      ++f.version;
      const Status s = fs_->Sync();
      if (!s.ok()) return r_.Failed("sync", s);
    }
    synced_ = live_;
    for (int i = 0; i < kTailOps; ++i) {
      if (i % 2 == 1) {
        const std::size_t k = rng_.Below(live_.size());
        const Status s = fs_->Unlink(FilePath(live_[k]));
        if (!s.ok()) return r_.Failed("unlink", s);
        tail_versions_[live_[k].id].insert(kGone);
        live_[k] = live_.back();
        live_.pop_back();
        continue;
      }
      File* f = nullptr;
      while (f == nullptr || f->size > 4096) {
        f = &live_[rng_.Below(live_.size())];
      }
      ++f->version;
      const Status s = fs_->WriteFile(
          FilePath(*f), Content(args_.seed, f->id, f->version, f->size));
      if (!s.ok()) return r_.Failed("overwrite", s);
      tail_versions_[f->id].insert(f->version);
    }
    if (args_.corrupt == "smash_meta") SmashRootDirectory();
  }

  // Self-test corruption: a durable root-directory entry that names an
  // i-node which does not exist. Only the file-system check sees it.
  void SmashRootDirectory() {
    aru::ld::Disk& d = *st_.lld;
    auto fail = [&](const Status& s) { r_.Failed("smash", s); };
    // MinixFS claims the disk's first list for its superblock.
    auto sb_blocks = d.ListBlocks(aru::ld::ListId{1});
    if (!sb_blocks.ok()) return fail(sb_blocks.status());
    Bytes block(d.block_size());
    if (Status s = d.Read(sb_blocks->front(), block); !s.ok()) return fail(s);
    auto sb = mfs::DecodeSuperBlock(block);
    if (!sb.ok()) return fail(sb.status());
    auto inode_blocks = d.ListBlocks(sb->inode_list);
    if (!inode_blocks.ok()) return fail(inode_blocks.status());
    if (Status s = d.Read(inode_blocks->front(), block); !s.ok()) {
      return fail(s);
    }
    const mfs::Inode root =
        mfs::DecodeInode(aru::ByteSpan(block).first(mfs::kInodeSize));
    auto dir_blocks = d.ListBlocks(root.data_list);
    if (!dir_blocks.ok()) return fail(dir_blocks.status());
    if (Status s = d.Read(dir_blocks->front(), block); !s.ok()) return fail(s);
    mfs::EncodeDirEntry(mfs::DirEntry{4000000, "bogus"},
                        aru::MutableByteSpan(block).first(mfs::kDirEntrySize));
    if (Status s = d.Write(dir_blocks->front(), block); !s.ok()) {
      return fail(s);
    }
    if (Status s = d.Flush(); !s.ok()) return fail(s);
  }

  // A restart sample; the run goes on on the live disk.
  void Snapshot() {
    const Status s =
        SnapshotRestart(r_, st_, snap_, {}, args_.trace, [&](Stack& st) {
          return mfs::MinixFs::Mount(*st.lld, FsPolicy()).status();
        });
    if (!s.ok()) r_.Failed("[restart] reopen", s);
  }

  // Crashes the live disk in place (drops the LLD without Close) and
  // reopens it.
  void CrashAndRestart() {
    snap_ = Stack{};
    fs_.reset();
    timed_.reset();
    st_.lld.reset();
    if (st_.counting) st_.counting->set_enabled(true);
    std::unique_ptr<mfs::MinixFs> fs;
    const Status s =
        TimedRestart(r_, st_, {}, args_.trace, [&](Stack& st) -> Status {
          ARU_ASSIGN_OR_RETURN(fs, mfs::MinixFs::Mount(*st.lld, FsPolicy()));
          return Status::Ok();
        });
    if (!s.ok()) return r_.Failed("[restart] reopen", s);
    Verify(st_, *fs);
  }

  void Verify(Stack& st, mfs::MinixFs& fs) {
    auto fsck = mfs::CheckFileSystem(*st.lld);
    if (!fsck.ok()) return r_.Failed("[fsck]", fsck.status());
    if (!fsck->clean()) {
      return r_.Wrong("[fsck] " + fsck->problems.front());
    }
    if (Status s = st.lld->CheckConsistency(); !s.ok()) {
      return r_.Wrong("[consistency] " + s.ToString());
    }
    std::vector<std::set<std::string>> present(kDirs);
    for (int d = 0; d < kDirs; ++d) {
      auto entries = fs.ReadDir(DirPath(d));
      if (!entries.ok()) {
        return r_.Failed("[restart] readdir", entries.status());
      }
      for (const auto& e : *entries) present[d].insert(e.name);
    }
    for (const File& f : synced_) {
      const std::string name = FileName(f.id);
      std::set<std::uint64_t> allowed = {f.version};
      if (auto it = tail_versions_.find(f.id); it != tail_versions_.end()) {
        allowed.insert(it->second.begin(), it->second.end());
      }
      if (present[f.dir].erase(name) == 0) {
        if (!allowed.count(kGone)) {
          return r_.Wrong("[restart] synced file lost: " + FilePath(f));
        }
        continue;
      }
      auto got = fs.ReadFile(FilePath(f));
      if (!got.ok()) return r_.Failed("[restart] read", got.status());
      bool match = false;
      for (const std::uint64_t v : allowed) {
        if (v != kGone && *got == Content(args_.seed, f.id, v, f.size)) {
          match = true;
        }
      }
      if (!match) {
        return r_.Wrong("[restart] " + FilePath(f) +
                        " is at no version the model allows");
      }
    }
    for (int d = 0; d < kDirs; ++d) {
      if (!present[d].empty()) {
        return r_.Wrong("[restart] unexpected file " + DirPath(d) + "/" +
                        *present[d].begin());
      }
    }
  }

  static constexpr std::uint64_t kGone = ~0ull;

  const Args& args_;
  Report& r_;
  aru::Rng rng_;
  Stack st_;
  Stack snap_;  // the spare device restart samples open
  std::unique_ptr<TimedDisk> timed_;
  std::unique_ptr<mfs::MinixFs> fs_;
  std::vector<File> live_;
  std::vector<File> synced_;
  std::map<std::uint64_t, std::set<std::uint64_t>> tail_versions_;
  std::uint64_t next_id_ = 1;
  RoundStats round_;
  int rounds_ = 0;
  bool flipped_ = false;
};

}  // namespace

void RunFsChurn(const Args& args, Report& r) { FsChurn(args, r).Run(); }

}  // namespace repobench
