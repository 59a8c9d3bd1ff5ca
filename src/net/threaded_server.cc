#include "net/threaded_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/framing.h"

namespace zht {

Result<std::unique_ptr<ThreadedServer>> ThreadedServer::Create(
    const std::string& host, std::uint16_t port, RequestHandler handler) {
  return Create(host, port, ToAsync(std::move(handler)));
}

Result<std::unique_ptr<ThreadedServer>> ThreadedServer::Create(
    const std::string& host, std::uint16_t port, AsyncRequestHandler handler) {
  std::unique_ptr<ThreadedServer> server(
      new ThreadedServer(std::move(handler)));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument, "bad host: " + host);
  }
  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (server->listen_fd_ < 0) {
    return Status(StatusCode::kInternal, "socket failed");
  }
  int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status(StatusCode::kInternal, "bind failed");
  }
  if (::listen(server->listen_fd_, 128) < 0) {
    return Status(StatusCode::kInternal, "listen failed");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  ::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&actual),
                &len);
  server->address_ = NodeAddress{host, ntohs(actual.sin_port)};
  return server;
}

ThreadedServer::~ThreadedServer() { Stop(); }

Status ThreadedServer::Start() {
  if (running_.exchange(true)) return Status::Ok();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ThreadedServer::Stop() {
  if (!running_.exchange(false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ThreadedServer::AcceptLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // One thread per connection: this is precisely the overhead the paper
    // measured against.
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void ThreadedServer::ServeConnection(int fd) {
  std::string in;
  char buf[1 << 16];
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd, POLLIN, 0};
    int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
    bool malformed = false;
    while (auto payload = ExtractFrame(in, &malformed)) {
      auto request = Request::Decode(*payload);
      Response response;
      if (request.ok()) {
        requests_served_.fetch_add(1, std::memory_order_relaxed);
        response = CallBlocking(handler_, std::move(*request));
      } else {
        response.status = Status(StatusCode::kCorruption).raw();
      }
      std::string frame = FrameEncoded(response);
      std::size_t written = 0;
      while (written < frame.size()) {
        ssize_t w = ::write(fd, frame.data() + written,
                            frame.size() - written);
        if (w < 0) {
          if (errno == EINTR) continue;
          malformed = true;
          break;
        }
        written += static_cast<std::size_t>(w);
      }
      if (malformed) break;
    }
    if (malformed) break;
  }
  ::close(fd);
}

}  // namespace zht
