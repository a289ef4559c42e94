#ifndef FMBENCH_WRAPPERS_H_
#define FMBENCH_WRAPPERS_H_

// Timing wrappers around the library's own seams, used only by the
// traced serve_live run: a DurableFs over PosixFs and a ServeListener /
// ServeSocket over the Posix ones. They forward every call unchanged
// (fd() included, so the poll loop still works) and record one span per
// call into a Tracer, plus byte and operation counts. The untraced run
// uses the plain Posix classes.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "durable/durable_fs.h"
#include "harness.h"
#include "serve/serve_socket.h"

namespace fmbench {

namespace fm = frechet_motif;

/// Wall seconds per kind of durable work, plus the loop thread's CPU
/// seconds inside all of it (fsync waits off the CPU).
struct DurableCounts {
  double append_s = 0.0;
  double sync_s = 0.0;
  double checkpoint_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t appends = 0;
  std::int64_t bytes = 0;
  std::int64_t syncs = 0;
  std::int64_t checkpoints = 0;
  std::int64_t snapshot_bytes = 0;
};

/// DurableFs that times PosixFs. A journal Append is `durable.append`;
/// the Sync that follows an Append is `durable.sync`; every other call
/// belongs to a checkpoint rotation, and one `durable.checkpoint` span
/// covers the whole rotation from the end of the preceding record sync
/// (so the snapshot serialization in between is included) to its last
/// file operation.
class TimingFs final : public fm::DurableFs {
 public:
  explicit TimingFs(Tracer& tracer) : tracer_(tracer) {}
  ~TimingFs() override { CloseCheckpoint(); }
  TimingFs(const TimingFs&) = delete;
  TimingFs& operator=(const TimingFs&) = delete;

  /// Spans recorded from now on get this parent.
  void set_parent(std::int64_t parent) { parent_ = parent; }
  /// Ends an open checkpoint span and zeroes the counts (end of set-up).
  void ResetCounts();
  /// Ends an open checkpoint span (call before reading counts).
  void CloseCheckpoint();
  const DurableCounts& counts() const { return counts_; }

  fm::StatusOr<std::string> ReadFile(const std::string& path) override;
  fm::Status WriteFile(const std::string& path, std::string_view data) override;
  fm::Status Append(const std::string& path, std::string_view data) override;
  fm::Status Sync(const std::string& path) override;
  fm::Status Rename(const std::string& from, const std::string& to) override;
  fm::Status Remove(const std::string& path) override;
  fm::StatusOr<bool> Exists(const std::string& path) override;
  fm::StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;
  fm::Status CreateDir(const std::string& dir) override;

 private:
  enum class Last { kOther, kAppend, kSync };
  /// Accounts one checkpoint-rotation call that ran over [start, end]
  /// (wall) and [cpu_start, cpu_end] (thread CPU).
  void CheckpointOp(double start, double end, double cpu_start, double cpu_end);
  /// Runs `op`, then accounts it as a checkpoint-rotation call.
  template <typename Op>
  auto RotationOp(Op op) {
    const double t0 = NowSeconds();
    const double c0 = ThreadCpuSeconds();
    auto result = op();
    CheckpointOp(t0, NowSeconds(), c0, ThreadCpuSeconds());
    return result;
  }

  Tracer& tracer_;
  fm::PosixFs fs_;
  std::int64_t parent_ = -1;
  DurableCounts counts_;
  Last last_ = Last::kOther;
  double last_end_ = 0.0;
  double last_cpu_end_ = 0.0;
  bool in_checkpoint_ = false;
  double checkpoint_start_ = 0.0;
  double checkpoint_end_ = 0.0;
  double checkpoint_cpu_start_ = 0.0;
  double checkpoint_cpu_end_ = 0.0;
};

struct SocketCounts {
  double read_s = 0.0;
  double write_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
};

/// ServeSocket that times another one. Counts go to a listener-owned
/// total so they survive the connection. It also records where each of
/// the server's read bursts ended in the inbound byte stream: the server
/// reads until a read would block (or `burst_cap` bytes) and then parses
/// and ingests what it has as one batch, so these offsets are the
/// server's ingest batch boundaries.
class TimingSocket final : public fm::ServeSocket {
 public:
  TimingSocket(std::unique_ptr<fm::ServeSocket> inner, Tracer& tracer,
               std::int64_t parent, SocketCounts& totals,
               std::vector<std::int64_t>& bursts, std::size_t burst_cap)
      : inner_(std::move(inner)),
        tracer_(tracer),
        parent_(parent),
        totals_(totals),
        bursts_(bursts),
        burst_cap_(burst_cap) {}

  fm::IoResult Read(char* buf, std::size_t cap) override;
  fm::IoResult Write(const char* data, std::size_t len) override;
  void Close() override { inner_->Close(); }
  int fd() const override { return inner_->fd(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<fm::ServeSocket> inner_;
  Tracer& tracer_;
  std::int64_t parent_;
  SocketCounts& totals_;
  std::vector<std::int64_t>& bursts_;
  std::size_t burst_cap_;
  std::int64_t read_total_ = 0;
  std::size_t burst_bytes_ = 0;
};

/// ServeListener that hands out TimingSockets.
class TimingListener final : public fm::ServeListener {
 public:
  TimingListener(fm::ServeListener& inner, Tracer& tracer,
                 std::size_t burst_cap)
      : inner_(inner), tracer_(tracer), burst_cap_(burst_cap) {}

  void set_parent(std::int64_t parent) { parent_ = parent; }
  const SocketCounts& counts() const { return totals_; }
  /// Read-burst end offsets of the k-th accepted connection's inbound
  /// stream (see TimingSocket).
  const std::vector<std::int64_t>& bursts(std::size_t k) const {
    return bursts_[k];
  }

  fm::StatusOr<std::unique_ptr<fm::ServeSocket>> Accept() override;
  int fd() const override { return inner_.fd(); }

 private:
  fm::ServeListener& inner_;
  Tracer& tracer_;
  std::size_t burst_cap_;
  std::int64_t parent_ = -1;
  SocketCounts totals_;
  std::deque<std::vector<std::int64_t>> bursts_;  // stable references
};

}  // namespace fmbench

#endif  // FMBENCH_WRAPPERS_H_
