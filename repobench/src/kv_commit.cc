// kv_commit: one client running transactions on a B-tree:
// get-transactions and put-transactions, every put-transaction
// committing durably.
//
// A put-transaction is two B-tree puts (each its own ARU, as BTree
// brackets every structural change) plus the transaction's own ARU,
// which rewrites the client's commit-count block; Commit(kFlush) ends
// that ARU and flushes, so every put is durable when the transaction
// returns and the count block records how many transactions committed.
//
// One client: two or three (nproc - 1, leaving the flusher a core), each
// on its own tree, made ops_per_s spread 16-29% over five seeds, beyond
// any usable bound.
#include <cstring>

#include "btree/btree.h"
#include "txn/txn.h"
#include "util/rng.h"
#include "workloads.h"

namespace repobench {
namespace {

namespace ld = aru::ld;

constexpr std::uint64_t kDiskBytes = 64ull << 20;
constexpr std::uint64_t kKeys = 8192;
// Latencies fall in four modes: gets (~20 us), gets that miss the read
// cache after puts and cleaner passes moved their nodes (~40 us),
// durable commits (~100 us) and durable commits that run a cleaner pass
// (~600 us, about one in four). At 20% puts the all-ops median lies
// inside the first mode and p99 inside the last, not between two.
constexpr std::uint64_t kPutPercent = 20;
constexpr int kGetsPerTxn = 4;
constexpr int kPutsPerTxn = 2;
constexpr int kTxnsPerRound = 200;
constexpr int kSetups = 5;
// A restart sample (a crash image of the live disk, reopened) every
// this many rounds, about 100 in a 30 s run: where the crash falls in
// the cleaner/checkpoint cycle sets the replay work, and samples spread
// over the run average out the host's slower and faster spells. 21
// reopens of one final crash image instead spread restart_ms 25% over
// ten seeds.
constexpr int kSnapshotEvery = 25;
constexpr int kMaxAttempts = 16;
// LLD read cache, in blocks: the tree (~70 nodes) fits.
constexpr std::size_t kReadCacheBlocks = 1024;

// Seals stay synchronous (write-behind off): with one client every seal
// is waited for at once, so the flusher overlaps nothing, and its
// cross-thread wake-up made durable_p50_us move by half between two
// ten-run sets of the same code. Recovery scans serially: on this small
// disk the scan pool's start-up made restarts slower (1.35-1.6 ms
// against 0.8-0.9 ms) and spread them 34% over ten seeds.
aru::lld::Options LldOptions() {
  aru::lld::Options o;
  o.read_cache_blocks = kReadCacheBlocks;
  o.recovery_threads = 1;
  return o;
}

std::uint64_t Value(std::uint64_t seed, std::uint64_t key,
                    std::uint64_t version) {
  return Mix(Mix(seed, key), version);
}

Bytes CountBlock(std::uint64_t count, std::uint32_t block_size) {
  Bytes b(block_size);
  std::memcpy(b.data(), &count, sizeof(count));
  return b;
}

std::uint64_t ReadCount(const Bytes& b) {
  std::uint64_t count = 0;
  std::memcpy(&count, b.data(), sizeof(count));
  return count;
}

class KvCommit {
 public:
  KvCommit(const Args& args, Report& r) : args_(args), r_(r) {}

  void Run() {
    Status s = TimedSetups(r_, kSetups, [&] { return Setup(); });
    if (!s.ok()) return r_.Failed("setup", s);
    flip_next_read_ = args_.corrupt == "flip_read";
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
    if (args_.corrupt == "drop_commit") {
      // The model records a durable put the disk never saw.
      ++versions_[0];
    }
    if (args_.corrupt == "smash_meta") SmashNode();
    if (r_.correct) CrashAndRestart();
  }

 private:
  Status Setup() {
    tree_.reset();
    txns_.reset();
    timed_.reset();
    st_ = Stack{};
    rng_ = aru::Rng(Mix(args_.seed, 0xc0));
    committed_ = 0;
    ARU_ASSIGN_OR_RETURN(st_, FormatStack(kDiskBytes, LldOptions(),
                                          args_.trace));
    if (args_.trace) timed_ = std::make_unique<TimedDisk>(*st_.lld);
    ARU_ASSIGN_OR_RETURN(tree_, aru::btree::BTree::Create(disk()));
    tree_list_ = tree_->list();
    txns_ = std::make_unique<aru::txn::TransactionManager>(disk());
    ARU_ASSIGN_OR_RETURN(const ld::ListId meta_list, st_.lld->NewList());
    ARU_ASSIGN_OR_RETURN(count_block_,
                         st_.lld->NewBlock(meta_list, ld::kListHead));
    ARU_RETURN_IF_ERROR(
        st_.lld->Write(count_block_, CountBlock(0, st_.lld->block_size())));
    versions_.assign(kKeys, 0);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      ARU_RETURN_IF_ERROR(tree_->Put(k, Value(args_.seed, k, 0)));
    }
    return st_.lld->Flush();
  }

  ld::Disk& disk() {
    return timed_ ? static_cast<ld::Disk&>(*timed_) : *st_.lld;
  }
  LdCounts LdNow() const { return timed_ ? timed_->counts() : LdCounts{}; }

  RoundStats Round(bool traced) {
    round_ = RoundStats{};
    TraceWindow window(traced, st_, LdNow());
    for (int i = 0; i < kTxnsPerRound && r_.correct; ++i) OneTxn(traced);
    window.Close(r_, LdNow());
    if (r_.correct && ++rounds_ % kSnapshotEvery == 0) Snapshot();
    return round_;
  }

  // One transaction, retried on wait-die aborts. Only the client calls
  // are timed; the model updates and checks run outside the clock.
  void OneTxn(bool traced) {
    const bool is_put = rng_.Below(100) < kPutPercent;
    std::uint64_t keys[kGetsPerTxn];
    const int n = is_put ? kPutsPerTxn : kGetsPerTxn;
    for (int i = 0; i < n; ++i) keys[i] = rng_.Below(kKeys);
    std::uint64_t got[kGetsPerTxn] = {};
    std::uint64_t put_value[kPutsPerTxn] = {};
    if (is_put) {
      // The model moves first, so a key drawn twice gets two versions.
      for (int i = 0; i < n; ++i) {
        put_value[i] = Value(args_.seed, keys[i], ++versions_[keys[i]]);
      }
    }
    const Bytes count =
        is_put ? CountBlock(committed_ + 1, st_.lld->block_size()) : Bytes{};

    const ThreadClock c0 = tl_clock;
    std::uint64_t tree_ns = 0, tree_ld_ns = 0, tree_ld_calls = 0;
    std::uint64_t commit_ns = 0;
    const auto tree_call = [&](auto&& fn) {
      if (!traced) return fn();
      const ThreadClock k0 = tl_clock;
      const std::uint64_t s0 = NowNs();
      Status s = fn();
      tree_ns += NowNs() - s0;
      tree_ld_ns += tl_clock.ld_ns - k0.ld_ns;
      tree_ld_calls += tl_clock.ld_calls - k0.ld_calls;
      return s;
    };

    const std::uint64_t t0 = NowNs();
    Status s;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      auto txn = txns_->Begin();
      if (!txn.ok()) {
        s = txn.status();
        break;
      }
      for (int i = 0; i < n && s.ok(); ++i) {
        if (is_put) {
          s = tree_call([&] { return tree_->Put(keys[i], put_value[i]); });
        } else {
          s = tree_call([&] {
            auto v = tree_->Get(keys[i]);
            if (v.ok()) got[i] = *v;
            return v.status();
          });
        }
      }
      if (s.ok() && is_put) s = (*txn)->Write(count_block_, count);
      if (s.ok()) {
        const std::uint64_t k0 = NowNs();
        s = (*txn)->Commit(is_put ? aru::txn::Durability::kFlush
                                  : aru::txn::Durability::kNone);
        commit_ns += NowNs() - k0;
      }
      if (s.ok() || s.code() != aru::StatusCode::kFailedPrecondition) break;
      (void)(*txn)->Abort();  // a wait-die loss: the retry decides
      ++r_.txn_retries;
    }
    const std::uint64_t dt = NowNs() - t0;
    BookOp(r_, round_, traced, !is_put, is_put, dt);
    if (!s.ok()) return r_.Failed(is_put ? "put-txn" : "get-txn", s);

    if (traced) {
      // btree's self time is its calls minus their LD time; the rest of
      // the op, minus its own LD time, is txn's.
      const std::uint64_t ld_ns = tl_clock.ld_ns - c0.ld_ns;
      r_.client_self_ns += tree_ns - tree_ld_ns;
      r_.client_ld_calls += tree_ld_calls;
      r_.txn_commit_ns += commit_ns;
      r_.txn_self_ns += dt - (tree_ns - tree_ld_ns) - ld_ns;
      r_.dev_caller_ns += tl_clock.dev_ns - c0.dev_ns;
      if (is_put) r_.t_user_blocks += 1;
    } else if (is_put) {
      r_.user_bytes += 16 * kPutsPerTxn;
    }

    if (is_put) {
      ++committed_;
      return;
    }
    if (flip_next_read_) {
      got[0] ^= 1;
      flip_next_read_ = false;
    }
    for (int i = 0; i < n; ++i) {
      if (got[i] != Value(args_.seed, keys[i], versions_[keys[i]])) {
        return r_.Wrong("[read] key " + std::to_string(keys[i]) +
                        " differs from the model");
      }
    }
  }

  // Self-test corruption: a durable garbage node in the tree.
  void SmashNode() {
    auto blocks = st_.lld->ListBlocks(tree_list_);
    if (!blocks.ok()) return r_.Failed("smash", blocks.status());
    const Bytes junk = Content(args_.seed, 0x5a5a, 0, st_.lld->block_size());
    Status s = st_.lld->Write(blocks->back(), junk);
    if (s.ok()) s = st_.lld->Flush();
    if (!s.ok()) r_.Failed("smash", s);
  }

  // A restart sample; the run goes on on the live disk.
  void Snapshot() {
    const Status s = SnapshotRestart(
        r_, st_, snap_, LldOptions(), args_.trace, [&](Stack& st) {
          return aru::btree::BTree::Open(*st.lld, tree_list_).status();
        });
    if (!s.ok()) r_.Failed("[restart] reopen", s);
  }

  // Crashes the live disk in place (drops the LLD without Close),
  // reopens it and checks it in full.
  void CrashAndRestart() {
    snap_ = Stack{};
    tree_.reset();
    txns_.reset();
    timed_.reset();
    st_.lld.reset();
    if (st_.counting) st_.counting->set_enabled(true);
    std::unique_ptr<aru::btree::BTree> tree;
    const Status s = TimedRestart(
        r_, st_, LldOptions(), args_.trace, [&](Stack& st) -> Status {
          ARU_ASSIGN_OR_RETURN(tree,
                               aru::btree::BTree::Open(*st.lld, tree_list_));
          return Status::Ok();
        });
    if (!s.ok()) return r_.Failed("[restart] reopen", s);
    Verify(*tree);
  }

  void Verify(aru::btree::BTree& tree) {
    if (Status s = tree.Validate(); !s.ok()) {
      return r_.Wrong("[validate] " + s.ToString());
    }
    aru::lld::Lld& d = *st_.lld;
    if (Status s = d.CheckConsistency(); !s.ok()) {
      return r_.Wrong("[consistency] " + s.ToString());
    }
    Bytes block(d.block_size());
    if (Status s = d.Read(count_block_, block); !s.ok()) {
      return r_.Failed("[restart] count block", s);
    }
    if (ReadCount(block) != committed_) {
      return r_.Wrong("[restart] commit count differs from the model");
    }
    std::uint64_t seen = 0;
    bool match = true;
    Status s = tree.Scan(0, ~0ull, [&](std::uint64_t k, std::uint64_t v) {
      ++seen;
      if (k >= kKeys || v != Value(args_.seed, k, versions_[k])) {
        match = false;
      }
    });
    if (!s.ok()) return r_.Failed("[restart] scan", s);
    if (!match || seen != kKeys) {
      return r_.Wrong("[restart] tree differs from the model at the last "
                      "durable point");
    }
  }

  const Args& args_;
  Report& r_;
  aru::Rng rng_{0};
  Stack st_;
  Stack snap_;  // the spare device restart samples open
  std::unique_ptr<TimedDisk> timed_;  // traced runs only
  std::unique_ptr<aru::btree::BTree> tree_;
  std::unique_ptr<aru::txn::TransactionManager> txns_;
  ld::ListId tree_list_;
  ld::BlockId count_block_;
  std::vector<std::uint64_t> versions_;  // model: key -> version
  std::uint64_t committed_ = 0;          // model: put-transactions
  RoundStats round_;
  int rounds_ = 0;
  bool flip_next_read_ = false;
};

}  // namespace

void RunKvCommit(const Args& args, Report& r) { KvCommit(args, r).Run(); }

}  // namespace repobench
