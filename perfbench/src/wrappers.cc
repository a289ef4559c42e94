#include "wrappers.h"

#include <utility>

namespace fmbench {

void TimingFs::CheckpointOp(double start, double end, double cpu_start,
                            double cpu_end) {
  if (!in_checkpoint_) {
    in_checkpoint_ = true;
    // The rotation began when the record that triggered it was synced;
    // the snapshot was serialized in between.
    const bool after_sync = last_ == Last::kSync;
    checkpoint_start_ = after_sync ? last_end_ : start;
    checkpoint_cpu_start_ = after_sync ? last_cpu_end_ : cpu_start;
    ++counts_.checkpoints;
  }
  checkpoint_end_ = end;
  checkpoint_cpu_end_ = cpu_end;
  last_ = Last::kOther;
  last_end_ = end;
  last_cpu_end_ = cpu_end;
}

void TimingFs::CloseCheckpoint() {
  if (!in_checkpoint_) return;
  tracer_.Record("durable.checkpoint", parent_, 0, checkpoint_start_,
                 checkpoint_end_);
  counts_.checkpoint_s += checkpoint_end_ - checkpoint_start_;
  counts_.cpu_s += checkpoint_cpu_end_ - checkpoint_cpu_start_;
  in_checkpoint_ = false;
}

void TimingFs::ResetCounts() {
  CloseCheckpoint();
  counts_ = DurableCounts();
}

fm::StatusOr<std::string> TimingFs::ReadFile(const std::string& path) {
  return RotationOp([&] { return fs_.ReadFile(path); });
}

fm::Status TimingFs::WriteFile(const std::string& path, std::string_view data) {
  if (path.find("/snap-") != std::string::npos) {
    counts_.snapshot_bytes += static_cast<std::int64_t>(data.size());
  }
  return RotationOp([&] { return fs_.WriteFile(path, data); });
}

fm::Status TimingFs::Append(const std::string& path, std::string_view data) {
  CloseCheckpoint();
  const double t0 = NowSeconds();
  const double c0 = ThreadCpuSeconds();
  fm::Status s = fs_.Append(path, data);
  const double t1 = NowSeconds();
  const double c1 = ThreadCpuSeconds();
  tracer_.Record("durable.append", parent_, 0, t0, t1);
  ++counts_.appends;
  counts_.bytes += static_cast<std::int64_t>(data.size());
  counts_.append_s += t1 - t0;
  counts_.cpu_s += c1 - c0;
  last_ = Last::kAppend;
  last_end_ = t1;
  last_cpu_end_ = c1;
  return s;
}

fm::Status TimingFs::Sync(const std::string& path) {
  if (last_ != Last::kAppend || in_checkpoint_) {
    return RotationOp([&] { return fs_.Sync(path); });
  }
  const double t0 = NowSeconds();
  const double c0 = ThreadCpuSeconds();
  fm::Status s = fs_.Sync(path);
  const double t1 = NowSeconds();
  const double c1 = ThreadCpuSeconds();
  tracer_.Record("durable.sync", parent_, 0, t0, t1);
  ++counts_.syncs;
  counts_.sync_s += t1 - t0;
  counts_.cpu_s += c1 - c0;
  last_ = Last::kSync;
  last_end_ = t1;
  last_cpu_end_ = c1;
  return s;
}

fm::Status TimingFs::Rename(const std::string& from, const std::string& to) {
  return RotationOp([&] { return fs_.Rename(from, to); });
}

fm::Status TimingFs::Remove(const std::string& path) {
  return RotationOp([&] { return fs_.Remove(path); });
}

fm::StatusOr<bool> TimingFs::Exists(const std::string& path) {
  return RotationOp([&] { return fs_.Exists(path); });
}

fm::StatusOr<std::vector<std::string>> TimingFs::ListDir(
    const std::string& dir) {
  return RotationOp([&] { return fs_.ListDir(dir); });
}

fm::Status TimingFs::CreateDir(const std::string& dir) {
  return RotationOp([&] { return fs_.CreateDir(dir); });
}

// ---------------------------------------------------------------------------

fm::IoResult TimingSocket::Read(char* buf, std::size_t cap) {
  const double t0 = NowSeconds();
  const double c0 = ThreadCpuSeconds();
  const fm::IoResult r = inner_->Read(buf, cap);
  const double t1 = NowSeconds();
  totals_.cpu_s += ThreadCpuSeconds() - c0;
  tracer_.Record("serve.read", parent_, 0, t0, t1);
  totals_.read_s += t1 - t0;
  if (r.status == fm::IoStatus::kOk) {
    totals_.bytes_in += static_cast<std::int64_t>(r.bytes);
    read_total_ += static_cast<std::int64_t>(r.bytes);
    burst_bytes_ += r.bytes;
  }
  if (r.status != fm::IoStatus::kOk || r.bytes == 0 ||
      burst_bytes_ >= burst_cap_) {
    if (burst_bytes_ > 0) bursts_.push_back(read_total_);
    burst_bytes_ = 0;
  }
  return r;
}

fm::IoResult TimingSocket::Write(const char* data, std::size_t len) {
  const double t0 = NowSeconds();
  const double c0 = ThreadCpuSeconds();
  const fm::IoResult r = inner_->Write(data, len);
  const double t1 = NowSeconds();
  totals_.cpu_s += ThreadCpuSeconds() - c0;
  tracer_.Record("serve.write", parent_, 0, t0, t1);
  totals_.write_s += t1 - t0;
  if (r.status == fm::IoStatus::kOk) {
    totals_.bytes_out += static_cast<std::int64_t>(r.bytes);
  }
  return r;
}

fm::StatusOr<std::unique_ptr<fm::ServeSocket>> TimingListener::Accept() {
  fm::StatusOr<std::unique_ptr<fm::ServeSocket>> r = inner_.Accept();
  if (!r.ok() || r.value() == nullptr) return r;
  bursts_.emplace_back();
  std::unique_ptr<fm::ServeSocket> wrapped = std::make_unique<TimingSocket>(
      std::move(r).value(), tracer_, parent_, totals_, bursts_.back(),
      burst_cap_);
  return wrapped;
}

}  // namespace fmbench
