// ld_restart: one client driving ld::Disk directly with multi-op ARUs
// over NewList/NewBlock/Write/MoveBlock/DeleteBlock/DeleteList, some of
// them aborted, a Flush every few ARUs, and a crash at the end of every
// round with one flushed but uncommitted ARU open. Recovery does most
// of the work here: checkpoint load, summary scan, replay, undo and
// orphan reclaim.
#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "util/rng.h"
#include "workloads.h"

namespace repobench {
namespace {

namespace ld = aru::ld;

constexpr std::uint64_t kDiskBytes = 32ull << 20;
constexpr std::size_t kTargetBlocks = 1024;  // live population
constexpr std::size_t kSlack = 64;
constexpr std::size_t kMinLists = 16, kMaxLists = 48;
constexpr int kArusPerRound = 64;  // then the crash
constexpr int kFlushEvery = 8;     // ARUs
constexpr int kAbortOneIn = 8;
// Reads dilute the ARUs that run a cleaner pass (~0.8 ms) to about 0.3%
// of operations, so p99 lies inside the Flush mode, not at its edge.
constexpr int kReadsPerAru = 6;
constexpr int kSetups = 5;

using Order = std::vector<std::uint64_t>;  // block ids in list order

// The committed model: every list's order and every block's version.
struct Model {
  std::map<std::uint64_t, Order> lists;
  std::unordered_map<std::uint64_t, std::uint64_t> version;
  std::size_t blocks() const { return version.size(); }
};

// One ARU's shadow of the model: copies of the lists it touched
// (nullopt = deleted) and the blocks it wrote.
struct Shadow {
  std::map<std::uint64_t, std::optional<Order>> lists;
  std::unordered_map<std::uint64_t, std::uint64_t> version;
  std::vector<std::uint64_t> gone;  // blocks it deleted
  std::uint64_t written = 0;        // payload bytes
};

class LdRestart {
 public:
  LdRestart(const Args& args, Report& r)
      : args_(args), r_(r), rng_(Mix(args.seed, 0x1d)) {}

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
  }

 private:
  Status Setup() {
    timed_.reset();
    st_ = Stack{};
    model_ = Model{};
    rng_ = aru::Rng(Mix(args_.seed, 0x1d));
    ARU_ASSIGN_OR_RETURN(st_, FormatStack(kDiskBytes, Options(), args_.trace));
    Rewrap();
    const std::uint32_t bs = st_.lld->block_size();
    for (std::size_t l = 0; l < (kMinLists + kMaxLists) / 2; ++l) {
      ARU_ASSIGN_OR_RETURN(const ld::ListId list, st_.lld->NewList());
      Order& order = model_.lists[list.value()];
      ld::BlockId pred = ld::kListHead;
      for (std::size_t b = 0; b < kTargetBlocks / 32; ++b) {
        ARU_ASSIGN_OR_RETURN(pred, st_.lld->NewBlock(list, pred));
        ARU_RETURN_IF_ERROR(
            st_.lld->Write(pred, Content(args_.seed, pred.value(), 0, bs)));
        order.push_back(pred.value());
        model_.version[pred.value()] = 0;
      }
    }
    return st_.lld->Flush();
  }

  // Recovery scans serially: on this small disk the scan pool's
  // start-up outweighs the scan and spread restart_ms 34% over ten seeds.
  aru::lld::Options Options() const {
    aru::lld::Options o;
    o.recovery_threads = 1;
    o.reclaim_orphans_on_recovery = args_.corrupt != "keep_orphans";
    return o;
  }

  void Rewrap() {
    if (args_.trace) timed_ = std::make_unique<TimedDisk>(*st_.lld);
  }
  ld::Disk& disk() {
    return timed_ ? static_cast<ld::Disk&>(*timed_) : *st_.lld;
  }
  LdCounts LdNow() const { return timed_ ? timed_->counts() : LdCounts{}; }

  // Runs one LD call of an ARU, adding its time to the ARU's latency.
  template <typename Fn>
  auto Ld(Fn&& call) -> decltype(call()) {
    const std::uint64_t t0 = NowNs();
    auto result = call();
    aru_ld_ns_ += NowNs() - t0;
    return result;
  }

  // ------------------------------------------------------------------
  // Model views.

  const Order* View(const Shadow& sh, std::uint64_t list) const {
    if (auto it = sh.lists.find(list); it != sh.lists.end()) {
      return it->second ? &*it->second : nullptr;
    }
    auto it = model_.lists.find(list);
    return it == model_.lists.end() ? nullptr : &it->second;
  }
  Order& Touch(Shadow& sh, std::uint64_t list) {
    auto it = sh.lists.find(list);
    if (it == sh.lists.end()) {
      it = sh.lists.emplace(list, model_.lists.at(list)).first;
    }
    return *it->second;
  }
  std::vector<std::uint64_t> VisibleLists(const Shadow& sh) const {
    std::vector<std::uint64_t> out;
    for (const auto& [id, order] : model_.lists) {
      if (View(sh, id) != nullptr) out.push_back(id);
    }
    for (const auto& [id, order] : sh.lists) {
      if (order && !model_.lists.count(id)) out.push_back(id);
    }
    return out;
  }
  std::uint64_t VersionOf(const Shadow& sh, std::uint64_t block) const {
    auto it = sh.version.find(block);
    return it != sh.version.end() ? it->second : model_.version.at(block);
  }
  std::size_t VisibleBlocks(const Shadow& sh) const {
    std::size_t n = 0;
    for (std::uint64_t l : VisibleLists(sh)) n += View(sh, l)->size();
    return n;
  }

  // ------------------------------------------------------------------
  // ARU operations: each issues its LD calls and updates the shadow.

  Status Insert(Shadow& sh, ld::AruId aru, std::uint64_t list) {
    Order& order = Touch(sh, list);
    const std::size_t pos = rng_.Below(order.size() + 1);
    const ld::BlockId pred =
        pos == 0 ? ld::kListHead : ld::BlockId{order[pos - 1]};
    ARU_ASSIGN_OR_RETURN(const ld::BlockId b, Ld([&] {
                           return disk().NewBlock(ld::ListId{list}, pred, aru);
                         }));
    const Bytes data = Payload(b.value(), 0);
    ARU_RETURN_IF_ERROR(Ld([&] { return disk().Write(b, data, aru); }));
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(pos), b.value());
    sh.version[b.value()] = 0;
    sh.written += block_size_;
    return Status::Ok();
  }

  Bytes Payload(std::uint64_t block, std::uint64_t version) const {
    return Content(args_.seed, block, version, block_size_);
  }

  Status OneAruOp(Shadow& sh, ld::AruId aru) {
    const std::vector<std::uint64_t> lists = VisibleLists(sh);
    const std::uint64_t list = lists[rng_.Below(lists.size())];
    const Order* order = View(sh, list);
    std::uint64_t pick = rng_.Below(100);
    const std::size_t live = VisibleBlocks(sh);
    if (pick < 50 && live > kTargetBlocks + kSlack) pick = 75;  // delete
    if (pick >= 70 && pick < 80 && live < kTargetBlocks - kSlack) pick = 0;
    if (pick < 95 && pick >= 30 && order->empty()) pick = 0;
    if (pick < 30) return Insert(sh, aru, list);
    const std::uint64_t b =
        order->empty() ? 0 : (*order)[rng_.Below(order->size())];
    if (pick < 55) {  // overwrite
      const std::uint64_t v = VersionOf(sh, b) + 1;
      const Bytes data = Payload(b, v);
      ARU_RETURN_IF_ERROR(
          Ld([&] { return disk().Write(ld::BlockId{b}, data, aru); }));
      sh.version[b] = v;
      sh.written += block_size_;
      return Status::Ok();
    }
    if (pick < 70) {  // move, within or across lists
      const std::uint64_t to = lists[rng_.Below(lists.size())];
      Order& from_order = Touch(sh, list);
      from_order.erase(std::find(from_order.begin(), from_order.end(), b));
      Order& to_order = Touch(sh, to);
      const std::size_t pos = rng_.Below(to_order.size() + 1);
      const ld::BlockId pred =
          pos == 0 ? ld::kListHead : ld::BlockId{to_order[pos - 1]};
      ARU_RETURN_IF_ERROR(Ld([&] {
        return disk().MoveBlock(ld::BlockId{b}, ld::ListId{to}, pred, aru);
      }));
      to_order.insert(to_order.begin() + static_cast<std::ptrdiff_t>(pos), b);
      return Status::Ok();
    }
    if (pick < 95) {  // delete a block
      ARU_RETURN_IF_ERROR(
          Ld([&] { return disk().DeleteBlock(ld::BlockId{b}, aru); }));
      Order& o = Touch(sh, list);
      o.erase(std::find(o.begin(), o.end(), b));
      sh.gone.push_back(b);
      return Status::Ok();
    }
    if (pick < 98 && lists.size() < kMaxLists) {  // new list
      ARU_ASSIGN_OR_RETURN(const ld::ListId l,
                           Ld([&] { return disk().NewList(aru); }));
      sh.lists[l.value()] = Order{};
      return Insert(sh, aru, l.value());
    }
    if (lists.size() > kMinLists) {  // delete a whole list
      ARU_RETURN_IF_ERROR(
          Ld([&] { return disk().DeleteList(ld::ListId{list}, aru); }));
      for (std::uint64_t gone : *order) sh.gone.push_back(gone);
      sh.lists[list] = std::nullopt;
      return Status::Ok();
    }
    return Insert(sh, aru, list);
  }

  void Commit(Shadow& sh) {
    for (auto& [id, order] : sh.lists) {
      if (order) {
        model_.lists[id] = std::move(*order);
      } else {
        model_.lists.erase(id);
      }
    }
    for (const auto& [b, v] : sh.version) model_.version[b] = v;
    for (std::uint64_t b : sh.gone) model_.version.erase(b);
  }

  // ------------------------------------------------------------------

  RoundStats Round(bool traced) {
    round_ = RoundStats{};
    block_size_ = st_.lld->block_size();
    TraceWindow window(traced, st_, LdNow());
    for (int a = 1; a <= kArusPerRound && r_.correct; ++a) {
      OneAru(traced);
      for (int i = 0; i < kReadsPerAru && r_.correct; ++i) OneRead(traced);
      if (a % kFlushEvery == 0 && r_.correct) {
        const Status s = TimeOp(r_, round_, traced, false, true,
                                [&] { return disk().Flush(); });
        if (!s.ok()) r_.Failed("flush", s);
      }
    }
    window.Close(r_, LdNow());
    if (r_.correct) CrashWithOpenAru();
    if (args_.corrupt == "drop_commit" && !dropped_) {
      // The model records a durable overwrite the disk never saw.
      ++model_.version.begin()->second;
      dropped_ = true;
    }
    if (r_.correct) Restart(traced);
    return round_;
  }

  // One multi-op ARU (2-6 operations), aborted one time in kAbortOneIn.
  // Its latency is the time spent in its LD calls: the operations are
  // drawn, their payloads made and the shadow updated between the
  // calls, outside the clock.
  void OneAru(bool traced) {
    const int n = static_cast<int>(rng_.Range(2, 6));
    const bool abort = rng_.Below(kAbortOneIn) == 0;
    Shadow sh;
    const ThreadClock c0 = tl_clock;
    aru_ld_ns_ = 0;
    const Status s = [&]() -> Status {
      ARU_ASSIGN_OR_RETURN(const ld::AruId aru,
                           Ld([&] { return disk().BeginARU(); }));
      for (int i = 0; i < n; ++i) ARU_RETURN_IF_ERROR(OneAruOp(sh, aru));
      return Ld([&] {
        return abort ? disk().AbortARU(aru) : disk().EndARU(aru);
      });
    }();
    BookOp(r_, round_, traced, false, false, aru_ld_ns_);
    if (traced) BookClientLedger(r_, aru_ld_ns_, c0);
    if (!s.ok()) return r_.Failed("aru", s);
    if (abort) return;
    Commit(sh);
    if (traced) {
      r_.t_user_blocks += sh.written / block_size_;
    } else {
      r_.user_bytes += sh.written;
    }
  }

  void OneRead(bool traced) {
    auto it = model_.lists.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.Below(model_.lists.size())));
    if (it->second.empty()) return;
    const std::uint64_t b = it->second[rng_.Below(it->second.size())];
    Bytes got(block_size_);
    const Status s = TimeOp(r_, round_, traced, true, false,
                        [&] { return disk().Read(ld::BlockId{b}, got); });
    if (!s.ok()) return r_.Failed("read", s);
    if (args_.corrupt == "flip_read" && !flipped_) {
      got[7] ^= std::byte{0x10};
      flipped_ = true;
    }
    if (got != Payload(b, model_.version.at(b))) {
      r_.Wrong("[read] block " + std::to_string(b) + " differs from the model");
    }
  }

  // Opens an ARU that allocates, writes, moves and deletes, flushes so
  // its records reach the device, and crashes (drops the disk without
  // Close) with the ARU still open.
  void CrashWithOpenAru() {
    Shadow sh;
    const Status s = [&]() -> Status {
      ARU_ASSIGN_OR_RETURN(const ld::AruId aru, disk().BeginARU());
      for (int i = 0; i < 4; ++i) ARU_RETURN_IF_ERROR(OneAruOp(sh, aru));
      ARU_ASSIGN_OR_RETURN(const ld::ListId l, disk().NewList(aru));
      sh.lists[l.value()] = Order{};
      ARU_RETURN_IF_ERROR(Insert(sh, aru, l.value()));
      return disk().Flush();
    }();
    if (!s.ok()) return r_.Failed("open aru", s);
    timed_.reset();
    st_.lld.reset();
  }

  void Restart(bool traced) {
    // The device decorator counts in traced rounds only.
    const Status s = TimedRestart(r_, st_, Options(), traced,
                                  [](Stack&) { return Status::Ok(); });
    if (!s.ok()) return r_.Failed("[restart] open", s);
    Rewrap();
    Verify();
  }

  // The recovered disk must equal the model at the last durable point
  // (every committed ARU was flushed before the crash), with the open
  // ARU fully undone and its blocks reclaimed. Whether its new list is
  // reclaimed too is not checked: recovery misses an open ARU's list
  // whenever a checkpoint covered the list's allocation record, which
  // depends on where the cleaner's checkpoints fall (see CHANGES.md).
  void Verify() {
    aru::lld::Lld& d = *st_.lld;
    if (d.free_blocks() != d.capacity_blocks() - model_.blocks()) {
      return r_.Wrong("[orphans] free_blocks " +
                      std::to_string(d.free_blocks()) + " != model " +
                      std::to_string(d.capacity_blocks() - model_.blocks()));
    }
    Bytes got(block_size_);
    for (const auto& [list, order] : model_.lists) {
      auto blocks = d.ListBlocks(ld::ListId{list});
      if (!blocks.ok()) return r_.Failed("[restart] list", blocks.status());
      bool same = blocks->size() == order.size();
      for (std::size_t i = 0; same && i < order.size(); ++i) {
        same = (*blocks)[i].value() == order[i];
      }
      if (!same) {
        return r_.Wrong("[restart] list " + std::to_string(list) +
                        " differs from the model");
      }
      for (std::uint64_t b : order) {
        if (Status s = d.Read(ld::BlockId{b}, got); !s.ok()) {
          return r_.Failed("[restart] read", s);
        }
        if (got != Payload(b, model_.version.at(b))) {
          return r_.Wrong("[restart] block " + std::to_string(b) +
                          " differs from the model");
        }
      }
    }
    if (Status s = d.CheckConsistency(); !s.ok()) {
      r_.Wrong("[consistency] " + s.ToString());
    }
  }

  const Args& args_;
  Report& r_;
  aru::Rng rng_;
  Stack st_;
  std::unique_ptr<TimedDisk> timed_;
  Model model_;
  std::uint32_t block_size_ = 4096;
  RoundStats round_;
  std::uint64_t aru_ld_ns_ = 0;  // LD time of the ARU under way
  bool flipped_ = false;
  bool dropped_ = false;
};

}  // namespace

void RunLdRestart(const Args& args, Report& r) { LdRestart(args, r).Run(); }

}  // namespace repobench
