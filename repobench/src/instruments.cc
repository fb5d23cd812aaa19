#include "instruments.h"

namespace repobench {

DeviceCounts DeviceCounts::operator-(const DeviceCounts& o) const {
  DeviceCounts d;
  d.reads = reads - o.reads;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.writes = writes - o.writes;
  d.write_ns = write_ns - o.write_ns;
  d.segment_write_bytes = segment_write_bytes - o.segment_write_bytes;
  d.checkpoint_write_bytes = checkpoint_write_bytes - o.checkpoint_write_bytes;
  d.superblock_write_bytes = superblock_write_bytes - o.superblock_write_bytes;
  d.other_write_bytes = other_write_bytes - o.other_write_bytes;
  d.syncs = syncs - o.syncs;
  d.sync_ns = sync_ns - o.sync_ns;
  return d;
}

DeviceCounts& DeviceCounts::operator+=(const DeviceCounts& o) {
  reads += o.reads;
  read_bytes += o.read_bytes;
  read_ns += o.read_ns;
  writes += o.writes;
  write_ns += o.write_ns;
  segment_write_bytes += o.segment_write_bytes;
  checkpoint_write_bytes += o.checkpoint_write_bytes;
  superblock_write_bytes += o.superblock_write_bytes;
  other_write_bytes += o.other_write_bytes;
  syncs += o.syncs;
  sync_ns += o.sync_ns;
  return *this;
}

LdCounts& LdCounts::operator+=(const LdCounts& o) {
  for (int k = 0; k < kLdKinds; ++k) {
    calls[k] += o.calls[k];
    ns[k] += o.ns[k];
  }
  self_ns += o.self_ns;
  return *this;
}

LdCounts LdCounts::operator-(const LdCounts& o) const {
  LdCounts d;
  for (int k = 0; k < kLdKinds; ++k) {
    d.calls[k] = calls[k] - o.calls[k];
    d.ns[k] = ns[k] - o.ns[k];
  }
  d.self_ns = self_ns - o.self_ns;
  return d;
}

DeviceCounts CountingDevice::counts() const {
  const auto get = [](const Counter& c) {
    return c.load(std::memory_order_relaxed);
  };
  DeviceCounts d;
  d.reads = get(reads_);
  d.read_bytes = get(read_bytes_);
  d.read_ns = get(read_ns_);
  d.writes = get(writes_);
  d.write_ns = get(write_ns_);
  d.segment_write_bytes = get(segment_bytes_);
  d.checkpoint_write_bytes = get(checkpoint_bytes_);
  d.superblock_write_bytes = get(superblock_bytes_);
  d.other_write_bytes = get(other_bytes_);
  d.syncs = get(syncs_);
  d.sync_ns = get(sync_ns_);
  return d;
}

aru::Status CountingDevice::Read(std::uint64_t first_sector,
                                 aru::MutableByteSpan out) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return inner_.Read(first_sector, out);
  }
  const std::uint64_t t0 = NowNs();
  aru::Status s = inner_.Read(first_sector, out);
  const std::uint64_t dt = NowNs() - t0;
  tl_clock.dev_ns += dt;
  Add(reads_, 1);
  Add(read_bytes_, out.size());
  Add(read_ns_, dt);
  return s;
}

aru::Status CountingDevice::Write(std::uint64_t first_sector,
                                  aru::ByteSpan data) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return inner_.Write(first_sector, data);
  }
  const std::uint64_t t0 = NowNs();
  aru::Status s = inner_.Write(first_sector, data);
  const std::uint64_t dt = NowNs() - t0;
  tl_clock.dev_ns += dt;
  Add(writes_, 1);
  Add(write_ns_, dt);
  const aru::lld::Geometry& g = geometry_;
  const std::uint64_t ckpt_sectors =
      g.sector_size == 0 ? 0 : g.checkpoint_capacity / g.sector_size;
  const auto in_region = [&](std::uint64_t start) {
    return first_sector >= start && first_sector < start + ckpt_sectors;
  };
  if (g.sector_size == 0) {
    Add(other_bytes_, data.size());
  } else if (first_sector >= g.data_start_sector) {
    Add(segment_bytes_, data.size());
  } else if (in_region(g.checkpoint_a_sector) ||
             in_region(g.checkpoint_b_sector)) {
    Add(checkpoint_bytes_, data.size());
  } else if (first_sector == 0) {
    Add(superblock_bytes_, data.size());
  } else {
    Add(other_bytes_, data.size());
  }
  return s;
}

aru::Status CountingDevice::Sync() {
  if (!enabled_.load(std::memory_order_relaxed)) return inner_.Sync();
  const std::uint64_t t0 = NowNs();
  aru::Status s = inner_.Sync();
  const std::uint64_t dt = NowNs() - t0;
  tl_clock.dev_ns += dt;
  Add(syncs_, 1);
  Add(sync_ns_, dt);
  return s;
}

}  // namespace repobench
