#include "malsched/shard/data_plane.hpp"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "malsched/net/frame.hpp"

namespace malsched::shard {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinRingBytes = 4096;

std::size_t round_down_pow2(std::size_t bytes) {
  std::size_t capacity = kMinRingBytes;
  while (capacity * 2 <= bytes && capacity * 2 != 0) {
    capacity *= 2;
  }
  return capacity;
}

/// revents of a 0-timeout poll; 0 when poll itself fails (treated as "no
/// event" — a bad fd shows up as POLLNVAL, not an errno branch).
short poll_events(int fd, short events) {
  struct pollfd pfd {
    fd, events, 0
  };
  if (::poll(&pfd, 1, 0) <= 0) {
    return 0;
  }
  return pfd.revents;
}

}  // namespace

// --- SocketpairDataPlane ----------------------------------------------------

net::RingStatus SocketpairDataPlane::send(const std::string& payload,
                                          Clock::time_point /*deadline*/) {
  // The kernel socket buffer is the backpressure here, and the router's
  // window <= worker-queue-capacity invariant keeps it from filling — the
  // pre-seam contract, unchanged.
  if (!net::write_frame(fd_, payload)) {
    return net::RingStatus::DeadPeer;
  }
  ++frames_out_;
  bytes_out_ += payload.size();
  return net::RingStatus::Ok;
}

net::RingStatus SocketpairDataPlane::recv(std::string* payload,
                                          Clock::time_point deadline) {
  // Compare before subtracting: a try-recv passes time_point::min(), and
  // min() - now() underflows to a huge *positive* wait if subtracted first.
  const auto now = Clock::now();
  const auto left =
      deadline <= now
          ? std::chrono::milliseconds(0)
          : std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now);
  struct pollfd pfd {
    fd_, POLLIN, 0
  };
  const int ready = ::poll(
      &pfd, 1,
      static_cast<int>(std::min<long long>(left.count(), 60 * 60 * 1000)));
  if (ready <= 0) {
    return net::RingStatus::Timeout;
  }
  if ((pfd.revents & POLLIN) == 0) {
    // POLLHUP/POLLERR with no readable data: the peer is gone and nothing
    // is left to drain.
    return net::RingStatus::DeadPeer;
  }
  // A try-recv (deadline already past) still commits to the frame the poll
  // just proved readable — it gets the anti-dribble floor instead of the
  // spent budget, or it could classify ready data as Timeout forever.
  const auto frame_deadline =
      left.count() > 0 ? deadline : Clock::now() + std::chrono::seconds(10);
  net::FrameError frame_error = net::FrameError::None;
  if (!net::read_frame_deadline(fd_, payload, frame_deadline, &frame_error)) {
    switch (frame_error) {
      case net::FrameError::Eof:
        return net::RingStatus::Closed;
      case net::FrameError::Timeout:
        return net::RingStatus::Timeout;
      default:
        return net::RingStatus::DeadPeer;
    }
  }
  ++frames_in_;
  bytes_in_ += payload->size();
  return net::RingStatus::Ok;
}

bool SocketpairDataPlane::recv_ready() {
  return (poll_events(fd_, POLLIN) & POLLIN) != 0;
}

DataPlaneStats SocketpairDataPlane::stats() const {
  DataPlaneStats stats;
  stats.plane = name();
  stats.frames_out = frames_out_;
  stats.bytes_out = bytes_out_;
  stats.frames_in = frames_in_;
  stats.bytes_in = bytes_in_;
  return stats;
}

// --- ShmChannel -------------------------------------------------------------

ShmChannel::ShmChannel(std::unique_ptr<net::ShmRegion> region,
                       std::size_t capacity)
    : region_(std::move(region)),
      capacity_(capacity),
      request_(region_->data(), capacity, /*initialize=*/true),
      response_(static_cast<unsigned char*>(region_->data()) +
                    net::ShmRing::footprint(capacity),
                capacity, /*initialize=*/true) {}

std::unique_ptr<ShmChannel> ShmChannel::create(std::size_t ring_bytes) {
  const std::size_t capacity = round_down_pow2(std::max(ring_bytes, kMinRingBytes));
  auto region = net::ShmRegion::create(2 * net::ShmRing::footprint(capacity));
  if (region == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<ShmChannel>(
      new ShmChannel(std::move(region), capacity));
}

void ShmChannel::reset() {
  // Re-attach fresh views over re-initialized headers; the response ring
  // keeps its doorbell across respawns.
  request_ = net::ShmRing(region_->data(), capacity_, /*initialize=*/true);
  response_ = net::ShmRing(static_cast<unsigned char*>(region_->data()) +
                               net::ShmRing::footprint(capacity_),
                           capacity_, /*initialize=*/true);
  response_.set_doorbell(doorbell_);
}

// --- ShmDataPlane -----------------------------------------------------------

ShmDataPlane::ShmDataPlane(ShmChannel& channel, Side side, int fd)
    : channel_(channel),
      out_(side == Side::Router ? channel.request_ring()
                                : channel.response_ring()),
      in_(side == Side::Router ? channel.response_ring()
                               : channel.request_ring()),
      fd_(fd) {}

bool ShmDataPlane::peer_gone() const {
  if (fd_ < 0) {
    return false;  // no fd to probe: liveness is someone else's job
  }
  return (poll_events(fd_, 0) & (POLLHUP | POLLERR | POLLNVAL)) != 0;
}

net::RingStatus ShmDataPlane::send(const std::string& payload,
                                   Clock::time_point deadline) {
  return out_.push(payload, deadline, [this] { return !peer_gone(); });
}

net::RingStatus ShmDataPlane::recv(std::string* payload,
                                   Clock::time_point deadline) {
  const auto status =
      in_.pop(payload, deadline, [this] { return !peer_gone(); });
  if (status != net::RingStatus::Timeout || fd_ < 0) {
    return status;
  }
  // Ring empty: the peer may have diverted an oversize frame to the
  // control fd, and a silently dead peer shows up here too (a try_recv
  // never sleeps, so the pop above never ran the liveness probe).
  const short revents = poll_events(fd_, POLLIN);
  if ((revents & POLLIN) != 0) {
    net::FrameError frame_error = net::FrameError::None;
    if (!net::read_frame_deadline(fd_, payload,
                                  Clock::now() + std::chrono::seconds(10),
                                  &frame_error)) {
      return frame_error == net::FrameError::Eof ? net::RingStatus::Closed
                                                 : net::RingStatus::DeadPeer;
    }
    return net::RingStatus::Ok;
  }
  if ((revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
    return net::RingStatus::DeadPeer;
  }
  return status;
}

bool ShmDataPlane::recv_ready() {
  if (in_.depth_bytes() > 0 || in_.closed()) {
    return true;
  }
  return fd_ >= 0 && (poll_events(fd_, POLLIN) & POLLIN) != 0;
}

DataPlaneStats ShmDataPlane::stats() const {
  DataPlaneStats stats;
  stats.plane = name();
  const net::RingCounters& out = out_.counters();
  const net::RingCounters& in = in_.counters();
  stats.frames_out = out.frames.load(std::memory_order_relaxed);
  stats.bytes_out = out.bytes.load(std::memory_order_relaxed);
  stats.frames_in = in.frames.load(std::memory_order_relaxed);
  stats.bytes_in = in.bytes.load(std::memory_order_relaxed);
  stats.request_depth = out_.depth_bytes();
  stats.response_depth = in_.depth_bytes();
  stats.producer_sleeps =
      out.producer_sleeps.load(std::memory_order_relaxed) +
      in.producer_sleeps.load(std::memory_order_relaxed);
  stats.consumer_sleeps =
      out.consumer_sleeps.load(std::memory_order_relaxed) +
      in.consumer_sleeps.load(std::memory_order_relaxed);
  stats.wakes = out.wakes.load(std::memory_order_relaxed) +
                in.wakes.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace malsched::shard
