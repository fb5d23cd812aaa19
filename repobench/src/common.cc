#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>

#include "obs/metrics.h"

namespace repobench {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void FillContent(std::uint64_t seed, std::uint64_t id, std::uint64_t version,
                 aru::MutableByteSpan out) {
  std::uint64_t x = Mix(Mix(seed, id), version);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    x = Mix(x, i);
    std::memcpy(out.data() + i, &x, 8);
  }
  x = Mix(x, i);
  for (; i < out.size(); ++i, x >>= 8) {
    out[i] = static_cast<std::byte>(x & 0xff);
  }
}

Bytes Content(std::uint64_t seed, std::uint64_t id, std::uint64_t version,
              std::size_t size) {
  Bytes b(size);
  FillContent(seed, id, version, b);
  return b;
}

void Samples::Add(std::uint64_t ns) {
  const auto v = static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, ~0u));
  ++seen_;
  if (size_ < buf_.size()) {
    buf_[size_++] = v;
    return;
  }
  rng_ = Mix(rng_, seen_);
  const std::uint64_t j = rng_ % seen_;
  if (j < buf_.size()) buf_[j] = v;
}

double Samples::Quantile(double q) const {
  if (size_ == 0) return 0;
  std::vector<std::uint32_t> v(
      buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(size_));
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Stack BlankStack(std::uint64_t bytes, bool traced) {
  Stack st;
  st.mem = std::make_unique<aru::MemDisk>(bytes / 512);
  if (traced) st.counting = std::make_unique<CountingDevice>(*st.mem);
  return st;
}

aru::Result<Stack> FormatStack(std::uint64_t bytes,
                               const aru::lld::Options& options, bool traced) {
  Stack st = BlankStack(bytes, traced);
  ARU_RETURN_IF_ERROR(aru::lld::Lld::Format(st.device(), options));
  ARU_RETURN_IF_ERROR(OpenLld(st, options));
  return st;
}

Status OpenLld(Stack& st, const aru::lld::Options& options) {
  ARU_ASSIGN_OR_RETURN(st.lld, aru::lld::Lld::Open(st.device(), options));
  if (st.counting) st.counting->set_geometry(st.lld->geometry());
  return Status::Ok();
}

Status CopyDevice(aru::MemDisk& from, aru::MemDisk& to) {
  const std::uint64_t chunk = (1u << 20) / from.sector_size();
  Bytes buf(chunk * from.sector_size());
  for (std::uint64_t s = 0; s < from.sector_count(); s += chunk) {
    const std::uint64_t n = std::min(chunk, from.sector_count() - s);
    const aru::MutableByteSpan part =
        aru::MutableByteSpan(buf).first(n * from.sector_size());
    ARU_RETURN_IF_ERROR(from.Read(s, part));
    ARU_RETURN_IF_ERROR(to.Write(s, part));
  }
  return Status::Ok();
}

Status TimedRestart(Report& r, Stack& st, const aru::lld::Options& options,
                    bool traced,
                    const std::function<Status(Stack&)>& reopen_client) {
  const DeviceCounts dev0 = st.counting ? st.counting->counts()
                                        : DeviceCounts{};
  const std::uint64_t t0 = NowNs();
  ARU_RETURN_IF_ERROR(OpenLld(st, options));
  ARU_RETURN_IF_ERROR(reopen_client(st));
  r.restart_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  r.recoveries.push_back(st.lld->recovery_report());
  if (traced) {
    r.recovery_read_bytes.push_back(
        static_cast<double>((st.counting->counts() - dev0).read_bytes));
  }
  return Status::Ok();
}

Status SnapshotRestart(Report& r, Stack& live, Stack& spare,
                       const aru::lld::Options& options, bool traced,
                       const std::function<Status(Stack&)>& reopen_client) {
  if (!spare.mem) {
    spare = BlankStack(live.mem->sector_count() * live.mem->sector_size(),
                       traced);
  }
  Status s = CopyDevice(*live.mem, *spare.mem);
  if (s.ok()) s = TimedRestart(r, spare, options, traced, reopen_client);
  spare.lld.reset();
  return s;
}

namespace {

std::uint64_t HistSum(const aru::obs::Registry& reg, const char* name) {
  const aru::obs::Histogram* h = reg.FindHistogram(name);
  return h == nullptr ? 0 : h->TakeSnapshot().sum;
}

}  // namespace

LldSnap Snap(const aru::lld::Lld& lld) {
  LldSnap s;
  s.stats = lld.stats();
  const aru::obs::Registry& reg = lld.registry();
  s.flush_wait_us = HistSum(reg, "aru_lld_flush_wait_us");
  s.cleaner_us = HistSum(reg, "aru_lld_cleaner_pass_us");
  s.mu_wait_us = HistSum(reg, "aru_lock_wait_us_lld_mu_exclusive") +
                 HistSum(reg, "aru_lock_wait_us_lld_mu_shared");
  const aru::lld::BlockCacheStats cache = lld.read_cache_stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  return s;
}

void AccumulateDelta(LldSnap& acc, const LldSnap& b, const LldSnap& a) {
  auto& x = acc.stats;
  const auto& s0 = b.stats;
  const auto& s1 = a.stats;
#define REPOBENCH_DELTA(f) x.f += s1.f - s0.f
  REPOBENCH_DELTA(segments_written);
  REPOBENCH_DELTA(partial_segments_written);
  REPOBENCH_DELTA(arus_committed);
  REPOBENCH_DELTA(link_log_entries_replayed);
  REPOBENCH_DELTA(predecessor_search_steps);
  REPOBENCH_DELTA(version_chain_steps);
  REPOBENCH_DELTA(checkpoints);
  REPOBENCH_DELTA(cleaner_passes);
  REPOBENCH_DELTA(blocks_copied_by_cleaner);
#undef REPOBENCH_DELTA
  acc.flush_wait_us += a.flush_wait_us - b.flush_wait_us;
  acc.cleaner_us += a.cleaner_us - b.cleaner_us;
  acc.mu_wait_us += a.mu_wait_us - b.mu_wait_us;
  acc.cache_hits += a.cache_hits - b.cache_hits;
  acc.cache_misses += a.cache_misses - b.cache_misses;
}

TraceWindow::TraceWindow(bool traced, Stack& st, const LdCounts& ld_now)
    : on_(traced), st_(st) {
  if (!on_) return;
  lld_ = Snap(*st_.lld);
  dev_ = st_.counting->counts();
  ld_ = ld_now;
}

void TraceWindow::Close(Report& r, const LdCounts& ld_now) {
  if (!on_) return;
  AccumulateDelta(r.lld, lld_, Snap(*st_.lld));
  r.dev += st_.counting->counts() - dev_;
  r.ld += ld_now - ld_;
  on_ = false;
}

void Report::Wrong(const std::string& what) {
  ++failed;
  if (correct) error = what;
  correct = false;
}

void Report::Failed(const std::string& what, const Status& s) {
  Wrong(what + ": " + s.ToString());
}

void BookOp(Report& r, RoundStats& round, bool traced, bool is_read,
            bool is_durable, std::uint64_t dt) {
  ++r.attempted;
  round.ns += dt;
  ++round.ops;
  if (traced) {
    r.t_op_ns += dt;
  } else {
    r.lat.Add(dt, is_read, is_durable);
  }
}

void BookClientLedger(Report& r, std::uint64_t dt, const ThreadClock& c0) {
  r.client_self_ns += dt - (tl_clock.ld_ns - c0.ld_ns);
  r.client_ld_calls += tl_clock.ld_calls - c0.ld_calls;
  r.dev_caller_ns += tl_clock.dev_ns - c0.dev_ns;
}

void RunRounds(const Args& args, Report& r,
               const std::function<void(bool)>& set_traced,
               const std::function<RoundStats(bool)>& round) {
  const std::uint64_t start = NowNs();
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  for (int i = 0;; ++i) {
    if (args.rounds > 0 ? i >= args.rounds
                        : (i >= 2 && NowNs() - start >= budget)) {
      break;
    }
    const bool traced = args.trace && i % 2 == 1;
    set_traced(traced);
    const RoundStats rs = round(traced);
    if (traced) {
      r.t_ops += rs.ops;
      r.t_op_seconds += static_cast<double>(rs.ns) * 1e-9;
    } else {
      r.ops += rs.ops;
      r.op_seconds += static_cast<double>(rs.ns) * 1e-9;
    }
    if (!r.correct) break;
  }
  set_traced(false);
}

namespace {

// The process's peak resident set. ru_maxrss also covers the launcher
// this process was exec'd from, which stays far smaller than any stack.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void EndToEnd(const Report& r, JsonMetrics& m) {
  m.Add("setup_s", Median(r.setup_s), "s");
  m.Add("ops_per_s", Div(static_cast<double>(r.ops), r.op_seconds), "1/s");
  m.Add("op_p50_us", r.lat.all.Quantile(0.5) / 1e3, "us");
  m.Add("op_p99_us", r.lat.all.Quantile(0.99) / 1e3, "us");
  m.Add("read_p50_us", r.lat.read.Quantile(0.5) / 1e3, "us");
  m.Add("durable_p50_us", r.lat.durable.Quantile(0.5) / 1e3, "us");
  m.Add("restart_ms", Median(r.restart_ms), "ms");
  m.Add("device_write_bytes_per_user_byte",
        Div(static_cast<double>(r.device_bytes),
            static_cast<double>(r.user_bytes)),
        "ratio");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void PerLayer(const std::string& client, const Report& r, JsonMetrics& m) {
  const double ops = static_cast<double>(r.t_ops);
  const auto per_op_us = [&](double ns) { return Div(ns / 1e3, ops); };
  const auto per_op = [&](double v) { return Div(v, ops); };
  const auto per_kop = [&](double v) { return Div(v * 1e3, ops); };
  const auto& st = r.lld.stats;

  const bool fs = client == "minixfs";
  const bool bt = client == "btree";
  m.Add("minixfs.self_us_per_op",
        fs ? per_op_us(static_cast<double>(r.client_self_ns)) : 0, "us");
  m.Add("minixfs.ld_calls_per_op",
        fs ? per_op(static_cast<double>(r.client_ld_calls)) : 0, "count");
  m.Add("btree.self_us_per_op",
        bt ? per_op_us(static_cast<double>(r.client_self_ns)) : 0, "us");
  m.Add("btree.ld_calls_per_op",
        bt ? per_op(static_cast<double>(r.client_ld_calls)) : 0, "count");
  // ld_restart's client is the benchmark itself: its self time is the model
  // updates and payload generation between the LD calls of an ARU.
  m.Add("ldclient.self_us_per_op",
        fs || bt ? 0 : per_op_us(static_cast<double>(r.client_self_ns)),
        "us");
  m.Add("txn.self_us_per_op", per_op_us(static_cast<double>(r.txn_self_ns)),
        "us");
  m.Add("txn.commit_us_per_op",
        per_op_us(static_cast<double>(r.txn_commit_ns)), "us");
  m.Add("txn.retries_per_op", per_op(static_cast<double>(r.txn_retries)),
        "count");

  const auto ld_us = [&](LdKind k) {
    return per_op_us(static_cast<double>(r.ld.ns[k]));
  };
  m.Add("lld.end_aru_us_per_op", ld_us(kEndAru), "us");
  m.Add("lld.delete_us_per_op", ld_us(kDelete), "us");
  m.Add("lld.alloc_us_per_op", ld_us(kAlloc), "us");
  m.Add("lld.write_us_per_op", ld_us(kWrite), "us");
  m.Add("lld.read_us_per_op", ld_us(kRead), "us");
  m.Add("lld.flush_us_per_op", ld_us(kFlush), "us");
  m.Add("lld.other_us_per_op", ld_us(kOtherLd), "us");
  m.Add("lld.self_us_per_op", per_op_us(static_cast<double>(r.ld.self_ns)),
        "us");

  m.Add("lld.link_log_replays_per_aru",
        Div(static_cast<double>(st.link_log_entries_replayed),
            static_cast<double>(st.arus_committed)),
        "count");
  m.Add("lld.pred_search_steps_per_op",
        per_op(static_cast<double>(st.predecessor_search_steps)), "count");
  m.Add("lld.version_chain_steps_per_op",
        per_op(static_cast<double>(st.version_chain_steps)), "count");
  m.Add("lld.cache_hit_ratio",
        Div(static_cast<double>(r.lld.cache_hits),
            static_cast<double>(r.lld.cache_hits + r.lld.cache_misses)),
        "ratio");
  m.Add("lld.mu_wait_us_per_op", per_op(static_cast<double>(r.lld.mu_wait_us)),
        "us");
  m.Add("lld.seals_per_op", per_op(static_cast<double>(st.segments_written)),
        "count");
  m.Add("lld.partial_seal_ratio",
        Div(static_cast<double>(st.partial_segments_written),
            static_cast<double>(st.segments_written)),
        "ratio");
  m.Add("lld.commits_per_seal",
        Div(static_cast<double>(st.arus_committed),
            static_cast<double>(st.segments_written)),
        "count");
  m.Add("lld.flush_wait_us_per_op",
        per_op(static_cast<double>(r.lld.flush_wait_us)), "us");
  m.Add("lld.cleaner.passes_per_kop",
        per_kop(static_cast<double>(st.cleaner_passes)), "count");
  m.Add("lld.cleaner.busy_ms_per_kop",
        per_kop(static_cast<double>(r.lld.cleaner_us) / 1e3), "ms");
  m.Add("lld.cleaner.copied_blocks_per_user_block",
        Div(static_cast<double>(st.blocks_copied_by_cleaner),
            static_cast<double>(r.t_user_blocks)),
        "ratio");
  m.Add("lld.checkpoint.count_per_kop",
        per_kop(static_cast<double>(st.checkpoints)), "count");

  // Recovery phases: medians over the run's restarts.
  const auto rec = [&](auto field) {
    std::vector<double> v;
    for (const auto& rep : r.recoveries) v.push_back(field(rep));
    return Median(v);
  };
  using Rep = aru::lld::RecoveryReport;
  m.Add("lld.recovery.checkpoint_load_ms",
        rec([](const Rep& x) { return x.checkpoint_load_us / 1e3; }), "ms");
  m.Add("lld.recovery.summary_scan_ms",
        rec([](const Rep& x) { return x.summary_scan_us / 1e3; }), "ms");
  m.Add("lld.recovery.replay_ms",
        rec([](const Rep& x) { return x.replay_us / 1e3; }), "ms");
  m.Add("lld.recovery.orphan_reclaim_ms",
        rec([](const Rep& x) { return x.orphan_reclaim_us / 1e3; }), "ms");
  m.Add("lld.recovery.checkpoint_ms",
        rec([](const Rep& x) { return x.checkpoint_us / 1e3; }), "ms");
  m.Add("lld.recovery.total_ms",
        rec([](const Rep& x) { return x.total_us / 1e3; }), "ms");
  m.Add("lld.recovery.segments_replayed",
        rec([](const Rep& x) {
          return static_cast<double>(x.segments_replayed);
        }),
        "count");

  const DeviceCounts& d = r.dev;
  m.Add("blockdev.segment_write_bytes_per_op",
        per_op(static_cast<double>(d.segment_write_bytes)), "B");
  m.Add("blockdev.checkpoint_write_bytes_per_op",
        per_op(static_cast<double>(d.checkpoint_write_bytes)), "B");
  m.Add("blockdev.writes_per_op", per_op(static_cast<double>(d.writes)),
        "count");
  m.Add("blockdev.write_us_per_op", per_op_us(static_cast<double>(d.write_ns)),
        "us");
  m.Add("blockdev.reads_per_op", per_op(static_cast<double>(d.reads)),
        "count");
  m.Add("blockdev.read_bytes_per_op", per_op(static_cast<double>(d.read_bytes)),
        "B");
  m.Add("blockdev.read_us_per_op", per_op_us(static_cast<double>(d.read_ns)),
        "us");
  m.Add("blockdev.syncs_per_op", per_op(static_cast<double>(d.syncs)),
        "count");
  m.Add("blockdev.caller_us_per_op",
        per_op_us(static_cast<double>(r.dev_caller_ns)), "us");
  m.Add("blockdev.recovery_read_bytes", Median(r.recovery_read_bytes), "B");

  // The ledger: traced op time. It splits exactly into the client's
  // self time (minixfs, btree or the ld_restart client), txn self time,
  // lld.self_us_per_op and blockdev.caller_us_per_op.
  m.Add("ledger.op_us", per_op_us(static_cast<double>(r.t_op_ns)), "us");
  const double untraced = Div(static_cast<double>(r.ops), r.op_seconds);
  const double traced = Div(static_cast<double>(r.t_ops), r.t_op_seconds);
  m.Add("trace.overhead_pct", Div(100.0 * (untraced - traced), untraced),
        "%");
}

}  // namespace

void PrintResult(const Args& args, const std::string& client_layer,
                 const Report& r) {
  JsonMetrics m;
  if (args.trace) {
    PerLayer(client_layer, r, m);
  } else {
    EndToEnd(r, m);
  }
  if (!r.error.empty()) {
    std::fprintf(stderr, "repobench: %s: %s\n", args.workload.c_str(),
                 r.error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), m.body().c_str());
  std::fflush(stdout);
}

}  // namespace repobench
