#pragma once

/// \file data_plane.hpp
/// The data-plane seam of sharded serving: how instance/solve/result
/// payloads move between the router and a worker, separated from the
/// *control* plane (hello/ping/stats/drain), which always rides the
/// socketpair/TCP fd.  Both planes carry the same binary data frames
/// (wire.hpp); only the path differs.
///
///   * SocketpairDataPlane — data frames share the control fd:
///     length-prefixed frames through the kernel.  The TCP fleet and the
///     shm fallback path use it.
///   * ShmDataPlane — data frames ride a ShmChannel: a pair of SPSC rings
///     (requests router→worker, responses worker→router) in one anonymous
///     MAP_SHARED region created before fork, futex sleep/wake.  The fd
///     stays open beside it as the control plane, the dead-peer detector
///     (POLLHUP = worker gone), and the overflow path for frames bigger
///     than a ring.
///
/// Both impls speak through one status vocabulary (net::RingStatus) and
/// one deadline-based send/recv contract, so the router's streaming loop
/// and failover logic are plane-blind.
///
/// A ShmChannel is created by the router before fork (the fork-without-
/// exec contract makes the mapping and every pointer into it valid in the
/// child verbatim); the child locates its channel by the worker index its
/// ForkTransport child-main receives.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "malsched/net/shm.hpp"

namespace malsched::shard {

/// Operator-facing counters of one worker's data plane, for `--stats`.
/// Direction is from this side's point of view (the router's, in practice).
struct DataPlaneStats {
  const char* plane = "";             ///< "shm" or "socketpair"
  std::uint64_t frames_out = 0;       ///< data frames sent to the peer
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;        ///< data frames received from it
  std::uint64_t bytes_in = 0;
  std::size_t request_depth = 0;      ///< bytes queued in the request ring
  std::size_t response_depth = 0;     ///< bytes queued in the response ring
  std::uint64_t producer_sleeps = 0;  ///< futex sleeps, both rings
  std::uint64_t consumer_sleeps = 0;
  std::uint64_t wakes = 0;            ///< FUTEX_WAKEs issued, both rings
};

/// One worker's data plane, seen from one side.  Same threading contract
/// as the rings underneath: one sending thread and one receiving thread at
/// a time (callers serialize their own side).
class DataPlane {
 public:
  virtual ~DataPlane() = default;

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Sends one data frame, blocking under backpressure until `deadline`.
  /// Ok / TooBig (nothing sent; the frame can never fit — shm only) /
  /// Timeout / Closed / DeadPeer.
  [[nodiscard]] virtual net::RingStatus send(
      const std::string& payload,
      std::chrono::steady_clock::time_point deadline) = 0;

  /// Receives one data frame, blocking until `deadline`.  A deadline in
  /// the past makes it a try_recv: Timeout means "nothing there right
  /// now", DeadPeer means the peer process is gone.
  [[nodiscard]] virtual net::RingStatus recv(
      std::string* payload,
      std::chrono::steady_clock::time_point deadline) = 0;

  /// True when recv() would return a frame without blocking — the router's
  /// multiplexed wait re-checks every plane through this before sleeping.
  [[nodiscard]] virtual bool recv_ready() = 0;

  [[nodiscard]] virtual DataPlaneStats stats() const = 0;

 protected:
  DataPlane() = default;
};

/// The two rings of one worker's shm data plane, in one region created
/// before fork.  Request ring: router → worker; response ring: worker →
/// router.  Both processes attach views to the same bytes — the parent
/// constructs this object pre-fork and the child inherits it (heap copy,
/// shared pages) at the same addresses.
class ShmChannel {
 public:
  /// One region holding both rings of `ring_bytes` capacity each (rounded
  /// to a power of two, floor 4 KiB).  nullptr when shared memory is
  /// unavailable (mmap failure or MALSCHED_SHM_DISABLE) — the caller falls
  /// back to the socketpair plane.
  [[nodiscard]] static std::unique_ptr<ShmChannel> create(
      std::size_t ring_bytes);

  /// Re-initializes both ring headers for a respawned worker.  Only while
  /// no process is using the rings (the previous worker is dead and
  /// reaped, the next not yet forked).
  void reset();

  [[nodiscard]] net::ShmRing& request_ring() { return request_; }
  [[nodiscard]] net::ShmRing& response_ring() { return response_; }

  /// Doorbell the response ring rings on every push, so the router can
  /// multiplex one futex wait over every worker's responses.  Set before
  /// fork; the pointer must live in its own pre-fork shared region.
  void set_doorbell(net::Doorbell* bell) {
    doorbell_ = bell;
    response_.set_doorbell(bell);
  }

 private:
  ShmChannel(std::unique_ptr<net::ShmRegion> region, std::size_t capacity);

  std::unique_ptr<net::ShmRegion> region_;
  std::size_t capacity_ = 0;
  net::ShmRing request_;
  net::ShmRing response_;
  net::Doorbell* doorbell_ = nullptr;
};

/// Data frames over the control fd: kernel socket buffers, POLLHUP as the
/// death signal.
class SocketpairDataPlane final : public DataPlane {
 public:
  /// Does not own `fd`; the transport does.
  explicit SocketpairDataPlane(int fd) : fd_(fd) {}

  [[nodiscard]] const char* name() const override { return "socketpair"; }
  [[nodiscard]] net::RingStatus send(
      const std::string& payload,
      std::chrono::steady_clock::time_point deadline) override;
  [[nodiscard]] net::RingStatus recv(
      std::string* payload,
      std::chrono::steady_clock::time_point deadline) override;
  [[nodiscard]] bool recv_ready() override;
  [[nodiscard]] DataPlaneStats stats() const override;

 private:
  int fd_ = -1;
  std::uint64_t frames_out_ = 0, bytes_out_ = 0;
  std::uint64_t frames_in_ = 0, bytes_in_ = 0;
};

/// Data frames over a ShmChannel.  The fd is carried
/// alongside (not owned) for two jobs the rings cannot do: detecting a
/// dead peer (POLLHUP) and receiving oversize frames the peer diverted to
/// the control plane — recv() checks the ring first, then the fd, so the
/// overflow path needs no special dispatch in the caller.
class ShmDataPlane final : public DataPlane {
 public:
  /// Which end of the channel this side is: the router sends requests and
  /// receives responses; the worker the reverse.
  enum class Side { Router, Worker };

  /// `fd` < 0 disables the fd-side recv/liveness checks (the worker's
  /// control thread owns its fd reads instead).
  ShmDataPlane(ShmChannel& channel, Side side, int fd);

  [[nodiscard]] const char* name() const override { return "shm"; }
  [[nodiscard]] net::RingStatus send(
      const std::string& payload,
      std::chrono::steady_clock::time_point deadline) override;
  [[nodiscard]] net::RingStatus recv(
      std::string* payload,
      std::chrono::steady_clock::time_point deadline) override;
  [[nodiscard]] bool recv_ready() override;
  [[nodiscard]] DataPlaneStats stats() const override;

 private:
  [[nodiscard]] bool peer_gone() const;

  ShmChannel& channel_;
  net::ShmRing& out_;
  net::ShmRing& in_;
  int fd_ = -1;
};

}  // namespace malsched::shard
