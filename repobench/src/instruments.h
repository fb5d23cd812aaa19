// Outside-in instruments for the traced run: a counting/timing
// BlockDevice decorator and a timing ld::Disk decorator. Both wrap the
// program's public interfaces and change nothing below them; when
// disabled they only forward, so a traced run can interleave traced and
// untraced rounds over one stack and report its own overhead.
//
// Nesting is measured per thread: every decorator call adds its wall
// time to a thread-local clock, so a client layer's self time is its
// call time minus the LD time on the same thread, and the LD layer's
// self time is its call time minus the device time on that thread.
// Device calls made by the write-behind flusher land on the flusher's
// clock and count as background device time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "blockdev/block_device.h"
#include "ld/disk.h"
#include "lld/layout.h"

namespace repobench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ThreadClock {
  std::uint64_t ld_ns = 0;     // time inside TimedDisk calls
  std::uint64_t ld_calls = 0;  // TimedDisk calls
  std::uint64_t dev_ns = 0;    // time inside CountingDevice calls
};
inline thread_local ThreadClock tl_clock;

// Device counters, split by the region a write lands in.
struct DeviceCounts {
  std::uint64_t reads = 0, read_bytes = 0, read_ns = 0;
  std::uint64_t writes = 0, write_ns = 0;
  std::uint64_t segment_write_bytes = 0, checkpoint_write_bytes = 0;
  std::uint64_t superblock_write_bytes = 0, other_write_bytes = 0;
  std::uint64_t syncs = 0, sync_ns = 0;

  DeviceCounts operator-(const DeviceCounts& o) const;
  DeviceCounts& operator+=(const DeviceCounts& o);
};

class CountingDevice final : public aru::BlockDevice {
 public:
  explicit CountingDevice(aru::BlockDevice& inner) : inner_(inner) {}

  // Classifies later writes into superblock / checkpoint / segment.
  void set_geometry(const aru::lld::Geometry& g) { geometry_ = g; }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  DeviceCounts counts() const;

  std::uint32_t sector_size() const override { return inner_.sector_size(); }
  std::uint64_t sector_count() const override {
    return inner_.sector_count();
  }
  aru::Status Read(std::uint64_t first_sector,
                   aru::MutableByteSpan out) override;
  aru::Status Write(std::uint64_t first_sector, aru::ByteSpan data) override;
  aru::Status Sync() override;
  aru::DeviceStats stats() const override { return inner_.stats(); }

 private:
  using Counter = std::atomic<std::uint64_t>;
  static void Add(Counter& c, std::uint64_t v) {
    c.fetch_add(v, std::memory_order_relaxed);
  }

  aru::BlockDevice& inner_;
  aru::lld::Geometry geometry_{};
  std::atomic<bool> enabled_{true};
  Counter reads_{0}, read_bytes_{0}, read_ns_{0}, writes_{0}, write_ns_{0};
  Counter segment_bytes_{0}, checkpoint_bytes_{0}, superblock_bytes_{0};
  Counter other_bytes_{0}, syncs_{0}, sync_ns_{0};
};

// LD call classes the ledger reports.
enum LdKind : int {
  kEndAru,
  kDelete,  // DeleteBlock, DeleteList
  kAlloc,   // NewBlock, NewList
  kWrite,
  kRead,  // Read, ReadMany
  kFlush,
  kOtherLd,  // BeginARU, AbortARU, MoveBlock, ListBlocks, ListOf
  kLdKinds
};

struct LdCounts {
  std::uint64_t calls[kLdKinds] = {};
  std::uint64_t ns[kLdKinds] = {};
  std::uint64_t self_ns = 0;  // LD call time minus nested device time

  LdCounts& operator+=(const LdCounts& o);
  LdCounts operator-(const LdCounts& o) const;
};

// Times every call into the wrapped ld::Disk (an Lld). One instance per
// client thread, so its plain counters need no synchronisation.
class TimedDisk final : public aru::ld::Disk {
 public:
  explicit TimedDisk(aru::ld::Disk& inner) : inner_(inner) {}

  void set_enabled(bool on) { enabled_ = on; }
  const LdCounts& counts() const { return counts_; }

  std::uint32_t block_size() const override { return inner_.block_size(); }
  std::uint64_t capacity_blocks() const override {
    return inner_.capacity_blocks();
  }
  std::uint64_t free_blocks() const override { return inner_.free_blocks(); }

  aru::Result<aru::ld::ListId> NewList(aru::ld::AruId aru) override {
    return Timed(kAlloc, [&] { return inner_.NewList(aru); });
  }
  aru::Status DeleteList(aru::ld::ListId list, aru::ld::AruId aru) override {
    return Timed(kDelete, [&] { return inner_.DeleteList(list, aru); });
  }
  aru::Result<std::vector<aru::ld::BlockId>> ListBlocks(
      aru::ld::ListId list, aru::ld::AruId aru) override {
    return Timed(kOtherLd, [&] { return inner_.ListBlocks(list, aru); });
  }
  aru::Result<aru::ld::ListId> ListOf(aru::ld::BlockId block,
                                      aru::ld::AruId aru) override {
    return Timed(kOtherLd, [&] { return inner_.ListOf(block, aru); });
  }
  aru::Result<aru::ld::BlockId> NewBlock(aru::ld::ListId list,
                                         aru::ld::BlockId pred,
                                         aru::ld::AruId aru) override {
    return Timed(kAlloc, [&] { return inner_.NewBlock(list, pred, aru); });
  }
  aru::Status DeleteBlock(aru::ld::BlockId block,
                          aru::ld::AruId aru) override {
    return Timed(kDelete, [&] { return inner_.DeleteBlock(block, aru); });
  }
  aru::Status MoveBlock(aru::ld::BlockId block, aru::ld::ListId to,
                        aru::ld::BlockId pred, aru::ld::AruId aru) override {
    return Timed(kOtherLd,
                 [&] { return inner_.MoveBlock(block, to, pred, aru); });
  }
  aru::Status Write(aru::ld::BlockId block, aru::ByteSpan data,
                    aru::ld::AruId aru) override {
    return Timed(kWrite, [&] { return inner_.Write(block, data, aru); });
  }
  aru::Status Read(aru::ld::BlockId block, aru::MutableByteSpan out,
                   aru::ld::AruId aru) override {
    return Timed(kRead, [&] { return inner_.Read(block, out, aru); });
  }
  aru::Status ReadMany(std::span<const aru::ld::BlockId> blocks,
                       aru::MutableByteSpan out, aru::ld::AruId aru) override {
    return Timed(kRead, [&] { return inner_.ReadMany(blocks, out, aru); });
  }
  aru::Result<aru::ld::AruId> BeginARU() override {
    return Timed(kOtherLd, [&] { return inner_.BeginARU(); });
  }
  aru::Status EndARU(aru::ld::AruId aru) override {
    return Timed(kEndAru, [&] { return inner_.EndARU(aru); });
  }
  aru::Status AbortARU(aru::ld::AruId aru) override {
    return Timed(kOtherLd, [&] { return inner_.AbortARU(aru); });
  }
  aru::Status Flush() override {
    return Timed(kFlush, [&] { return inner_.Flush(); });
  }

 private:
  template <typename Fn>
  auto Timed(LdKind kind, Fn&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    const std::uint64_t dev0 = tl_clock.dev_ns;
    const std::uint64_t t0 = NowNs();
    auto result = fn();
    const std::uint64_t dt = NowNs() - t0;
    counts_.calls[kind] += 1;
    counts_.ns[kind] += dt;
    counts_.self_ns += dt - (tl_clock.dev_ns - dev0);
    tl_clock.ld_ns += dt;
    tl_clock.ld_calls += 1;
    return result;
  }

  aru::ld::Disk& inner_;
  bool enabled_ = true;
  LdCounts counts_;
};

}  // namespace repobench
