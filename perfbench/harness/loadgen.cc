#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "net/framing.h"
#include "serialize/envelope.h"

namespace perfbench {
namespace {

using zht::Status;
using zht::StatusCode;

constexpr std::size_t kReadChunk = 256 * 1024;
// A drain that has not emptied the wire in this long has lost a reply.
constexpr std::int64_t kDrainBudgetNs = 10'000'000'000;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Status Errno(const char* what) {
  return Status(StatusCode::kUnavailable,
                std::string(what) + ": " + std::strerror(errno));
}

// Blocking connect, then non-blocking with TCP_NODELAY.
zht::Result<int> Dial(const zht::NodeAddress& to) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(to.port);
  if (::inet_pton(AF_INET, to.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(StatusCode::kInvalidArgument, "bad host " + to.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Blocking framed round trip on a still-blocking socket (the pinning PING).
Status PingBlocking(int fd, std::uint64_t seq, std::uint64_t client_id) {
  zht::Request ping;
  ping.op = zht::OpCode::kPing;
  ping.seq = seq;
  ping.client_id = client_id;
  const std::string frame = zht::FrameMessage(ping.Encode());
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    return Errno("send ping");
  }
  std::string in;
  char buf[4096];
  for (;;) {
    bool malformed = false;
    std::size_t off = 0;
    if (auto payload = zht::ExtractFrameAt(in, &off, &malformed)) {
      auto resp = zht::Response::Decode(*payload);
      if (!resp.ok() || resp->seq != seq || !resp->ok()) {
        return Status(StatusCode::kInternal, "bad ping response");
      }
      return Status::Ok();
    }
    if (malformed) return Status(StatusCode::kInternal, "malformed frame");
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return Errno("recv ping");
    in.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

LoadGenerator::LoadGenerator(const WorkloadSpec& spec,
                             const zht::MembershipTable& table,
                             std::vector<zht::NodeAddress> addresses,
                             KeyModel* model,
                             const std::vector<std::string>* keys,
                             std::uint64_t seed, std::uint64_t client_id)
    : spec_(spec),
      epoch_(table.epoch()),
      addresses_(std::move(addresses)),
      owner_(keys->size()),
      model_(model),
      keys_(keys),
      stream_(spec, seed),
      client_id_(client_id),
      slots_(static_cast<std::size_t>(spec.window)) {
  for (std::size_t k = 0; k < keys->size(); ++k) {
    owner_[k] = static_cast<std::uint8_t>(
        table.OwnerOf(table.PartitionOfKey((*keys)[k])));
  }
  for (std::uint32_t i = slots_.size(); i > 0; --i) free_slots_.push_back(i - 1);
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status LoadGenerator::Connect() {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  conns_of_instance_.assign(addresses_.size(), {});
  rr_.assign(addresses_.size(), 0);
  const int n = kConnections;
  for (int i = 0; i < n; ++i) {
    const int instance = i % static_cast<int>(addresses_.size());
    auto fd = Dial(addresses_[static_cast<std::size_t>(instance)]);
    if (!fd.ok()) return fd.status();
    Status pinned = PingBlocking(*fd, next_seq_++, client_id_);
    if (!pinned.ok()) {
      ::close(*fd);
      return pinned;
    }
    int nonblocking = 1;
    if (::ioctl(*fd, FIONBIO, &nonblocking) != 0) {
      ::close(*fd);
      return Errno("FIONBIO");
    }
    Conn conn;
    conn.fd = *fd;
    conn.instance = instance;
    conns_.push_back(std::move(conn));
    conns_of_instance_[static_cast<std::size_t>(instance)].push_back(i);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, *fd, &ev) != 0) {
      return Errno("epoll_ctl");
    }
  }
  return Status::Ok();
}

void LoadGenerator::Fail(const std::string& note, LoadStats* stats) {
  ++stats->failed;
  if (notes_.size() < 8) notes_.push_back(note);
}

void LoadGenerator::FillWindow() {
  while (!free_slots_.empty() && mode_ != Mode::kStopped) {
    if (mode_ == Mode::kPreload && preload_next_ >= keys_->size()) return;
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    Issue(slot);
  }
}

void LoadGenerator::Issue(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (mode_ == Mode::kPreload) {
    s.op = Op::kInsert;
    s.key = preload_next_++;
  } else {
    s.op = stream_.Next(&s.key);
  }
  if (s.op != Op::kLookup && model_->write_inflight(s.key)) {
    // One write per key at a time keeps the key's versions totally
    // ordered; this one goes out when the earlier write completes.
    parked_[s.key].push_back(slot);
    return;
  }
  Send(slot);
}

void LoadGenerator::Send(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint8_t inst = owner_[s.key];
  auto& candidates = conns_of_instance_[inst];
  Conn& conn = conns_[static_cast<std::size_t>(
      candidates[rr_[inst]++ % candidates.size()])];

  zht::Request req;
  req.seq = next_seq_++;
  req.key = (*keys_)[s.key];
  req.epoch = epoch_;
  req.client_id = client_id_;
  switch (s.op) {
    case Op::kLookup:
      req.op = zht::OpCode::kLookup;
      s.version = model_->BeginRead(s.key);
      break;
    case Op::kInsert:
      req.op = zht::OpCode::kInsert;
      s.version = model_->BeginWrite(s.key);
      req.value = MakeInsertValue(s.key, s.version, spec_.value_bytes);
      break;
    case Op::kAppend:
      req.op = zht::OpCode::kAppend;
      s.version = model_->BeginWrite(s.key);
      req.value = MakeAppendValue(s.key, s.version);
      break;
  }
  const std::string frame = zht::FrameMessage(req.Encode());
  conn.out.append(frame);
  conn.fifo.push_back(Pending{req.seq, slot});
  s.sent_ns = NowNs();
  ++on_wire_;
  ++active_->sent;
  active_->bytes_out += frame.size();
}

Status LoadGenerator::Flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  const bool want_write = conn.out_off < conn.out.size();
  if (want_write != conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(&conn - conns_.data());
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
      return Errno("epoll_ctl");
    }
    conn.want_write = want_write;
  }
  return Status::Ok();
}

Status LoadGenerator::ReadConn(Conn& conn, LoadStats* stats) {
  for (;;) {
    if (conn.in.size() < conn.in_len + kReadChunk) {
      conn.in.resize(conn.in_len + kReadChunk);
    }
    const ssize_t n = ::recv(conn.fd, conn.in.data() + conn.in_len,
                             conn.in.size() - conn.in_len, 0);
    if (n > 0) {
      conn.in_len += static_cast<std::size_t>(n);
      stats->bytes_in += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    if (n == 0) return Status(StatusCode::kUnavailable, "server closed");
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  const std::string_view buffer(conn.in.data(), conn.in_len);
  for (;;) {
    bool malformed = false;
    auto payload = zht::ExtractFrameAt(buffer, &conn.in_off, &malformed);
    if (malformed) return Status(StatusCode::kInternal, "malformed frame");
    if (!payload) break;
    auto resp = zht::Response::Decode(*payload);
    if (!resp.ok()) return Status(StatusCode::kInternal, "undecodable reply");
    if (conn.fifo.empty()) {
      return Status(StatusCode::kInternal, "reply with nothing in flight");
    }
    Complete(conn, *resp, stats);
  }
  // Compact the consumed prefix once per read burst.
  if (conn.in_off > 0) {
    std::memmove(conn.in.data(), conn.in.data() + conn.in_off,
                 conn.in_len - conn.in_off);
    conn.in_len -= conn.in_off;
    conn.in_off = 0;
  }
  return Status::Ok();
}

void LoadGenerator::Complete(Conn& conn, const zht::Response& resp,
                             LoadStats* stats) {
  const Pending pending = conn.fifo.front();
  conn.fifo.pop_front();
  --on_wire_;
  Slot& s = slots_[pending.slot];
  ++stats->completed;
  stats->latency_ns.Record(
      static_cast<std::uint64_t>(NowNs() - s.sent_ns));
  const std::string& key = (*keys_)[s.key];
  if (resp.seq != pending.seq) {
    Fail("seq mismatch on " + key, stats);
    if (s.op != Op::kLookup) model_->FailWrite(s.key);
  } else if (!resp.ok()) {
    Fail("status " + resp.status_as_object().ToString() + " on " + key,
         stats);
    if (s.op != Op::kLookup) model_->FailWrite(s.key);
  } else if (s.op == Op::kLookup) {
    const std::uint32_t seen =
        ParseValue(resp.value, s.key, spec_.value_bytes);
    if (!model_->CheckRead(s.key, s.version, seen)) {
      Fail("lookup of " + key + " returned version " + std::to_string(seen) +
               ", allowed [" + std::to_string(s.version) + ", " +
               std::to_string(model_->issued(s.key)) + "]",
           stats);
    }
  } else {
    model_->AckWrite(s.key, s.version);
    ++stats->writes_completed;
    stats->user_bytes_written +=
        key.size() + (s.op == Op::kInsert ? spec_.value_bytes : kAppendBytes);
  }
  if (s.op != Op::kLookup) {
    auto parked = parked_.find(s.key);
    if (parked != parked_.end()) {
      const std::uint32_t next = parked->second.front();
      parked->second.pop_front();
      if (parked->second.empty()) parked_.erase(parked);
      Send(next);
    }
  }
  if (mode_ == Mode::kStopped ||
      (mode_ == Mode::kPreload && preload_next_ >= keys_->size())) {
    free_slots_.push_back(pending.slot);
  } else {
    Issue(pending.slot);
  }
}

Status LoadGenerator::Loop(std::int64_t deadline_ns, bool until_empty,
                           LoadStats* stats) {
  active_ = stats;
  const std::int64_t start = NowNs();
  const std::int64_t gen_cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t proc_cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  std::int64_t last = start;
  epoll_event events[16];
  Status status = Status::Ok();
  FillWindow();
  for (;;) {
    for (Conn& c : conns_) {
      if (c.out_off < c.out.size()) {
        status = Flush(c);
        if (!status.ok()) break;
      }
    }
    if (!status.ok()) break;
    const std::int64_t now = NowNs();
    stats->inflight_ns_sum += static_cast<double>(on_wire_) * (now - last);
    last = now;
    if (until_empty && on_wire_ == 0) break;
    if (now >= deadline_ns) {
      if (until_empty) {
        status = Status(StatusCode::kTimeout, "requests still in flight");
      }
      break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 16, 1);
    if (n < 0 && errno != EINTR) {
      status = Errno("epoll_wait");
      break;
    }
    for (int i = 0; i < n && status.ok(); ++i) {
      Conn& c = conns_[events[i].data.u32];
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        status = Status(StatusCode::kUnavailable, "connection error");
      } else if (events[i].events & EPOLLIN) {
        status = ReadConn(c, stats);
      }
    }
    if (!status.ok()) break;
  }
  stats->wall_ns += NowNs() - start;
  stats->gen_cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - gen_cpu0;
  stats->proc_cpu_ns += CpuNs(CLOCK_PROCESS_CPUTIME_ID) - proc_cpu0;
  active_ = nullptr;
  return status;
}

Status LoadGenerator::Preload(LoadStats* stats) {
  mode_ = Mode::kPreload;
  preload_next_ = 0;
  Status status = Loop(NowNs() + kDrainBudgetNs * 12, /*until_empty=*/true,
                       stats);
  mode_ = Mode::kStopped;
  return status;
}

Status LoadGenerator::Run(zht::Nanos duration, LoadStats* stats) {
  mode_ = Mode::kLoad;
  return Loop(NowNs() + duration, /*until_empty=*/false, stats);
}

Status LoadGenerator::Drain(LoadStats* stats) {
  mode_ = Mode::kStopped;
  for (auto& [key, slots] : parked_) {
    for (std::uint32_t slot : slots) {
      free_slots_.push_back(slot);
    }
  }
  parked_.clear();
  return Loop(NowNs() + kDrainBudgetNs, /*until_empty=*/true, stats);
}

}  // namespace perfbench
