// Shared pieces of the repo benchmark: arguments, the seeded content
// model, latency recording, the stack under test, snapshots of the
// program's own counters, and the report that becomes the JSON line.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blockdev/mem_disk.h"
#include "instruments.h"
#include "lld/lld.h"
#include "util/bytes.h"
#include "util/status.h"

namespace repobench {

using aru::Bytes;
using aru::Status;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Fixed number of rounds instead of a time budget (self-test: equal
  // seeds then do equal work).
  int rounds = 0;
  // Deliberate corruption of one output, to prove a check fires
  // (self-test only): flip_read, drop_commit, keep_orphans, smash_meta.
  std::string corrupt;
};

// ---------------------------------------------------------------------
// Seeded content model: the bytes a client writes are a pure function
// of (seed, id, version), so every read can be checked independently of
// the program.

std::uint64_t Mix(std::uint64_t a, std::uint64_t b);
void FillContent(std::uint64_t seed, std::uint64_t id, std::uint64_t version,
                 aru::MutableByteSpan out);
Bytes Content(std::uint64_t seed, std::uint64_t id, std::uint64_t version,
              std::size_t size);

// ---------------------------------------------------------------------
// Latencies of timed operations, in nanoseconds.

// A uniform sample (reservoir, algorithm R) of at most `capacity`
// values. The buffer is allocated and touched up front, so the peak RSS
// of a run does not depend on how many operations it completed.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : buf_(capacity) {}
  void Add(std::uint64_t ns);
  // q-quantile (0..1) by nearest rank; 0 for no samples.
  double Quantile(double q) const;

 private:
  std::vector<std::uint32_t> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

struct Latencies {
  explicit Latencies(std::size_t capacity)
      : all(capacity), read(capacity), durable(capacity) {}
  void Add(std::uint64_t ns, bool is_read, bool is_durable) {
    all.Add(ns);
    if (is_read) read.Add(ns);
    if (is_durable) durable.Add(ns);
  }
  Samples all, read, durable;
};

double Median(std::vector<double> v);

// ---------------------------------------------------------------------
// The stack under test: a RAM device (wrapped by the counting decorator
// in traced runs) and the LLD on top.

struct Stack {
  std::unique_ptr<aru::MemDisk> mem;
  std::unique_ptr<CountingDevice> counting;  // traced runs only
  std::unique_ptr<aru::lld::Lld> lld;

  aru::BlockDevice& device() {
    return counting ? static_cast<aru::BlockDevice&>(*counting) : *mem;
  }
  std::uint64_t device_write_bytes() const {
    return mem->stats().sectors_written * mem->sector_size();
  }
};

// A stack with a blank device of `bytes` and no disk open yet.
Stack BlankStack(std::uint64_t bytes, bool traced);
aru::Result<Stack> FormatStack(std::uint64_t bytes,
                               const aru::lld::Options& options, bool traced);
// Opens the LLD on st's device, running crash recovery.
Status OpenLld(Stack& st, const aru::lld::Options& options);
// Copies every sector of `from` onto `to` (same size) through a small
// buffer, so a crash image costs one device's memory, not two.
Status CopyDevice(aru::MemDisk& from, aru::MemDisk& to);

struct Report;
// A restart timed from outside: Lld::Open (recovery) on st's device,
// which holds a crashed image and no open disk, then `reopen_client` on
// the recovered disk. Records restart_ms and the recovery report, and
// with `traced` the bytes recovery read through st's counting device.
Status TimedRestart(Report& r, Stack& st, const aru::lld::Options& options,
                    bool traced,
                    const std::function<Status(Stack&)>& reopen_client);
// A restart sample taken while the run goes on: what a crash right now
// would leave behind, copied onto `spare` (made on first use, the same
// size as `live`) and reopened there through TimedRestart.
Status SnapshotRestart(Report& r, Stack& live, Stack& spare,
                       const aru::lld::Options& options, bool traced,
                       const std::function<Status(Stack&)>& reopen_client);

// ---------------------------------------------------------------------
// Deltas of the program's own public counters over the traced rounds.

struct LldSnap {
  aru::lld::LldStats stats;
  std::uint64_t flush_wait_us = 0;
  std::uint64_t cleaner_us = 0;
  std::uint64_t mu_wait_us = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};
LldSnap Snap(const aru::lld::Lld& lld);
void AccumulateDelta(LldSnap& acc, const LldSnap& before,
                     const LldSnap& after);

// Everything one run measured. Workloads fill what applies to them.
struct Report {
  // Latency samples kept per class; a run's timed operations number up
  // to ~2M, so quantiles come from a uniform sample of a quarter or more.
  explicit Report(std::size_t latency_samples = 1 << 19)
      : lat(latency_samples) {}

  // correct is false and failed non-zero as soon as any output
  // disagrees with the model or any operation fails; the runner then
  // exits non-zero. A correct run of the program fails nothing.
  bool correct = true;
  std::string error;  // first failure, for stderr
  std::uint64_t attempted = 0, failed = 0;

  std::vector<double> setup_s;
  // Untraced rounds: end-to-end figures.
  std::uint64_t ops = 0;
  double op_seconds = 0;
  Latencies lat;
  std::uint64_t device_bytes = 0, user_bytes = 0;
  std::vector<double> restart_ms;

  // Traced rounds: the per-layer ledger.
  std::uint64_t t_ops = 0;
  double t_op_seconds = 0;
  std::uint64_t t_op_ns = 0;       // sum of traced op latencies
  std::uint64_t t_user_blocks = 0;
  std::uint64_t client_self_ns = 0, client_ld_calls = 0;  // minixfs / btree
  std::uint64_t txn_commit_ns = 0, txn_self_ns = 0, txn_retries = 0;
  LdCounts ld;
  DeviceCounts dev;
  std::uint64_t dev_caller_ns = 0;  // device time nested in client ops
  LldSnap lld;
  std::vector<aru::lld::RecoveryReport> recoveries;
  std::vector<double> recovery_read_bytes;

  // Counts a failure and marks the run incorrect: an output disagreed
  // with the model or a check of the program's own failed.
  void Wrong(const std::string& what);
  // The same, for an operation that returned an error.
  void Failed(const std::string& what, const Status& s);
};

// Collects the ledger deltas of one traced round: the program's
// counters, the device decorator and the LD decorators.
class TraceWindow {
 public:
  TraceWindow(bool traced, Stack& st, const LdCounts& ld_now);
  void Close(Report& r, const LdCounts& ld_now);

 private:
  bool on_;
  Stack& st_;
  LldSnap lld_;
  DeviceCounts dev_;
  LdCounts ld_;
};

// Prints the closing JSON line (end-to-end or per-layer metrics).
void PrintResult(const Args& args, const std::string& client_layer,
                 const Report& r);

// Runs `setup` several times and keeps the last stack; records each
// duration in r.setup_s.
template <typename Fn>
Status TimedSetups(Report& r, int times, Fn&& setup) {
  for (int i = 0; i < times; ++i) {
    const std::uint64_t t0 = NowNs();
    Status s = setup();
    if (!s.ok()) return s;
    r.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Status::Ok();
}

// The round loop shared by the workloads. `round(traced)` runs one
// round of operations and returns its op-phase nanoseconds (restarts
// and checks excluded). Traced runs alternate untraced and traced
// rounds so the difference in throughput is the tracing overhead.
// `set_traced` switches the decorators on or off between rounds.
struct RoundStats {
  std::uint64_t ops = 0;
  std::uint64_t ns = 0;
};
// Books one timed client operation of `dt` ns: into the latencies
// (untraced) or the ledger's op time (traced).
void BookOp(Report& r, RoundStats& round, bool traced, bool is_read,
            bool is_durable, std::uint64_t dt);
// Books a traced operation of `dt` ns, begun when the thread clock read
// `c0`, as client self time plus the LD and device time nested in it.
void BookClientLedger(Report& r, std::uint64_t dt, const ThreadClock& c0);

// Times one client call and books it. Inputs are made before and outputs
// checked after, outside the clock.
template <typename Fn>
Status TimeOp(Report& r, RoundStats& round, bool traced, bool is_read,
              bool is_durable, Fn&& call) {
  const ThreadClock c0 = tl_clock;
  const std::uint64_t t0 = NowNs();
  Status s = call();
  const std::uint64_t dt = NowNs() - t0;
  BookOp(r, round, traced, is_read, is_durable, dt);
  if (traced) BookClientLedger(r, dt, c0);
  return s;
}

void RunRounds(const Args& args, Report& r,
               const std::function<void(bool)>& set_traced,
               const std::function<RoundStats(bool traced)>& round);

}  // namespace repobench
