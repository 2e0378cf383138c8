#include "runtime/tcp_transport.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ESR_TCP_TRANSPORT_POSIX 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

#include <chrono>

#include "common/wire.h"

namespace esr::runtime {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Message frame payload layout (inside the [len][crc] wire frame):
///   U8 kind (0=hello, 1=message)
/// hello:   U32 sender site id
/// message: U32 type, I64 trace.et, U64 trace.parent_span,
///          U32 trace.origin, U32 trace.msg_type, Str body
constexpr uint8_t kFrameHello = 0;
constexpr uint8_t kFrameMessage = 1;

std::string EncodeHello(SiteId self) {
  wire::Encoder e;
  e.U8(kFrameHello);
  e.U32(static_cast<uint32_t>(self));
  std::string framed;
  wire::FrameAppend(framed, e.bytes());
  return framed;
}

std::string EncodeMessage(const Message& msg) {
  wire::Encoder e;
  e.U8(kFrameMessage);
  e.U32(static_cast<uint32_t>(msg.type));
  e.I64(msg.trace.et);
  e.U64(static_cast<uint64_t>(msg.trace.parent_span));
  e.U32(static_cast<uint32_t>(msg.trace.origin));
  e.U32(static_cast<uint32_t>(msg.trace.msg_type));
  e.Str(msg.payload);
  std::string framed;
  wire::FrameAppend(framed, e.bytes());
  return framed;
}

bool ParseHostPort(const std::string& host_port, std::string* host,
                   int* port) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) return false;
  *host = host_port.substr(0, colon);
  if (host->empty() || *host == "localhost") *host = "127.0.0.1";
  char* end = nullptr;
  const long p = std::strtol(host_port.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535) return false;
  *port = static_cast<int>(p);
  return true;
}

}  // namespace

#ifdef ESR_TCP_TRANSPORT_POSIX

namespace {

/// Bytes taken from an inbound socket per read(); every frame completed by
/// a read is delivered by one executor task.
constexpr size_t kReadChunk = 64 << 10;
/// Frames (iovecs) gathered into one vectored send. POSIX guarantees an
/// IOV_MAX of at least 16; Linux allows 1024.
constexpr int kMaxIov = 64;
/// Largest frame either side accepts. A length header above it is corrupt,
/// not a frame still arriving, so it ends the connection at once instead
/// of buffering toward a bogus length; Send() drops larger messages, which
/// could otherwise never get past a receiver.
constexpr uint32_t kMaxFrameBytes = 64 << 20;

// A reset peer surfaces as a send error, not as SIGPIPE.
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Outbound (dialed) side for one peer: a tiny connect state machine plus
/// the frame queue. The queue holds whole frames; a vectored send may end
/// mid-frame, and `head_off` is how far into the head frame it got. On a
/// broken connection the partially-written head frame restarts from
/// offset 0 on the next epoch (the receiver discarded the torn prefix),
/// which is where the at-least-once duplicate can come from.
struct TcpTransport::Peer {
  enum class State { kIdle, kConnecting, kConnected };

  std::string host;
  int port = 0;
  State state = State::kIdle;
  int fd = -1;
  std::deque<std::string> queue;
  size_t head_off = 0;
  int64_t queued_bytes = 0;
  int64_t backoff_ms = 0;
  int64_t next_attempt_ms = 0;  // SteadyNowMs() deadline while kIdle

  void CloseAndBackoff(int64_t backoff_min, int64_t backoff_max) {
    if (fd >= 0) close(fd);
    fd = -1;
    state = State::kIdle;
    head_off = 0;  // resend the torn head frame whole on the next epoch
    backoff_ms = backoff_ms == 0
                     ? backoff_min
                     : std::min(backoff_max, backoff_ms * 2);
    next_attempt_ms = SteadyNowMs() + backoff_ms;
  }

  /// Sends queued frames, up to kMaxIov per sendmsg(), until the queue
  /// empties or the socket buffer is full (the caller then polls for
  /// POLLOUT); a hard error ends the epoch. Called with `lock` (on mu_) held and drops it
  /// around the syscall, so Send() never waits on one: only the IO thread
  /// removes frames or touches the connection, and Send()'s push_back
  /// leaves the queued frames (which the iovecs point into) in place.
  void Flush(std::unique_lock<std::mutex>& lock, int64_t backoff_min,
             int64_t backoff_max) {
    while (state == State::kConnected && !queue.empty()) {
      iovec iov[kMaxIov];
      int count = 0;
      for (auto it = queue.begin(); it != queue.end() && count < kMaxIov;
           ++it, ++count) {
        const size_t off = count == 0 ? head_off : 0;
        iov[count].iov_base = const_cast<char*>(it->data()) + off;
        iov[count].iov_len = it->size() - off;
      }
      msghdr hdr{};
      hdr.msg_iov = iov;
      hdr.msg_iovlen = count;
      lock.unlock();
      const ssize_t n = sendmsg(fd, &hdr, kSendFlags);
      lock.lock();
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          CloseAndBackoff(backoff_min, backoff_max);
        }
        return;
      }
      size_t sent = static_cast<size_t>(n);
      while (sent > 0) {
        const size_t rest = queue.front().size() - head_off;
        if (sent < rest) {
          head_off += sent;
          break;
        }
        sent -= rest;
        queued_bytes -= static_cast<int64_t>(queue.front().size());
        queue.pop_front();
        head_off = 0;
      }
    }
  }
};

/// Accepted connection: unidentified until its hello frame arrives, then a
/// framed message source attributed to `from`.
struct TcpTransport::Inbound {
  int fd = -1;
  std::string buf;
  SiteId from = kInvalidSiteId;
  bool bad = false;

  /// Decodes every complete frame in `buf` into `batch`, keeping a partial
  /// tail for the next read. A corrupt frame, a message before the hello
  /// or a second hello marks the connection bad; frames before it still
  /// count.
  void DecodeFrames(std::vector<Message>* batch) {
    size_t pos = 0;
    std::string_view payload;
    wire::FrameStatus status;
    while ((status = wire::FrameParse(buf, &pos, &payload, kMaxFrameBytes)) ==
           wire::FrameStatus::kOk) {
      wire::Decoder d(payload);
      const uint8_t kind = d.U8();
      if (kind == kFrameHello) {
        // One sender per connection: a second hello is a protocol error.
        if (from != kInvalidSiteId) bad = true;
        from = static_cast<SiteId>(d.U32());
        if (!d.ok()) bad = true;
        if (bad) break;
        continue;
      }
      if (kind != kFrameMessage || from == kInvalidSiteId) {
        bad = true;
        break;
      }
      Message msg;
      msg.type = static_cast<int>(d.U32());
      msg.trace.et = d.I64();
      msg.trace.parent_span = static_cast<int64_t>(d.U64());
      msg.trace.origin = static_cast<SiteId>(d.U32());
      msg.trace.msg_type = static_cast<int32_t>(d.U32());
      msg.payload = d.Str();
      if (!d.ok()) {
        bad = true;
        break;
      }
      batch->push_back(std::move(msg));
    }
    if (status == wire::FrameStatus::kCorrupt) bad = true;
    buf.erase(0, pos);
  }
};

TcpTransport::TcpTransport(TcpTransportConfig config, Executor* executor)
    : config_(std::move(config)),
      executor_(executor),
      alive_(std::make_shared<std::atomic<bool>>(true)) {
  peers_.resize(config_.peers.size());
  for (size_t s = 0; s < config_.peers.size(); ++s) {
    auto peer = std::make_unique<Peer>();
    ParseHostPort(config_.peers[s], &peer->host, &peer->port);
    peers_[s] = std::move(peer);
  }
}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::SetPeerAddress(SiteId site, const std::string& host_port) {
  if (site < 0 || static_cast<size_t>(site) >= peers_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ParseHostPort(host_port, &peers_[site]->host, &peers_[site]->port);
}

void TcpTransport::Wake() {
  const char byte = 'x';
  (void)!write(wake_fds_[1], &byte, 1);
}

void TcpTransport::Deliver(SiteId from, std::vector<Message> batch) {
  executor_->Post([alive = alive_, handler = handler_, from,
                   batch = std::move(batch)]() mutable {
    for (Message& msg : batch) {
      if (!alive->load(std::memory_order_acquire) || !handler) return;
      handler(from, std::move(msg));
    }
  });
}

void TcpTransport::Send(SiteId to, Message msg) {
  if (!running_.load(std::memory_order_acquire)) return;
  if (to == config_.self) {
    // Loopback short-circuit: straight back onto the strand.
    std::vector<Message> batch;
    batch.push_back(std::move(msg));
    Deliver(to, std::move(batch));
    return;
  }
  if (to < 0 || static_cast<size_t>(to) >= peers_.size()) return;
  std::string frame = EncodeMessage(msg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Peer& peer = *peers_[to];
    if (frame.size() - 8 > kMaxFrameBytes ||
        peer.queued_bytes + static_cast<int64_t>(frame.size()) >
            config_.max_outbound_bytes_per_peer) {
      dropped_sends_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    peer.queued_bytes += static_cast<int64_t>(frame.size());
    peer.queue.push_back(std::move(frame));
  }
  // The IO thread clears the flag before it scans the queues, so a set
  // flag means a pending wake will see this frame.
  if (!wake_pending_.exchange(true)) Wake();
}

void TcpTransport::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  std::string host;
  int port = 0;
  if (static_cast<size_t>(config_.self) < config_.peers.size()) {
    ParseHostPort(config_.peers[config_.self], &host, &port);
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 16) != 0 || !SetNonBlocking(listen_fd_)) {
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  if (pipe(wake_fds_) != 0 || !SetNonBlocking(wake_fds_[0])) {
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  started_ok_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { IoLoop(); });
}

void TcpTransport::Stop() {
  alive_->store(false, std::memory_order_release);
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    Wake();
    if (thread_.joinable()) thread_.join();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

void TcpTransport::IoLoop() {
  std::vector<Inbound> inbound;
  std::vector<pollfd> fds;
  std::vector<size_t> peer_at;
  std::string chunk(kReadChunk, '\0');
  while (running_.load(std::memory_order_acquire)) {
    // Cleared before the scan below: a Send() that finds the flag set has
    // enqueued before this scan or will be seen after the next wake.
    wake_pending_.store(false);
    const int64_t now_ms = SteadyNowMs();
    int64_t next_deadline_ms = now_ms + 250;

    // One pass over the peers: kick idle dialers whose backoff expired and
    // that have data queued, flush connected ones, and build the poll set
    // (wake pipe, listener, dialers, accepted conns).
    fds.clear();
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    peer_at.assign(fds.size(), SIZE_MAX);
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (size_t s = 0; s < peers_.size(); ++s) {
        if (static_cast<SiteId>(s) == config_.self) continue;
        Peer& peer = *peers_[s];
        if (peer.state == Peer::State::kIdle && !peer.queue.empty() &&
            peer.port != 0) {  // port 0: address not known yet
          if (peer.next_attempt_ms > now_ms) {
            next_deadline_ms =
                std::min(next_deadline_ms, peer.next_attempt_ms);
            continue;
          }
          const int fd = socket(AF_INET, SOCK_STREAM, 0);
          if (fd < 0) continue;
          SetNonBlocking(fd);
          SetNoDelay(fd);
          sockaddr_in addr{};
          addr.sin_family = AF_INET;
          addr.sin_port = htons(static_cast<uint16_t>(peer.port));
          if (inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
            close(fd);
            peer.CloseAndBackoff(config_.backoff_min_ms,
                                 config_.backoff_max_ms);
            continue;
          }
          const int rc =
              connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
          if (rc == 0 || errno == EINPROGRESS) {
            peer.fd = fd;
            peer.state = Peer::State::kConnecting;
          } else {
            close(fd);
            peer.CloseAndBackoff(config_.backoff_min_ms,
                                 config_.backoff_max_ms);
          }
        }
        peer.Flush(lock, config_.backoff_min_ms, config_.backoff_max_ms);
        if (peer.fd < 0) continue;
        // Connecting, or data left after the flush (the socket buffer is
        // full): wait until writable. Otherwise watch for the peer closing
        // or resetting.
        const short events =
            peer.state == Peer::State::kConnecting || !peer.queue.empty()
                ? POLLOUT
                : POLLIN;
        fds.push_back(pollfd{peer.fd, events, 0});
        peer_at.push_back(s);
      }
    }
    const size_t inbound_base = fds.size();
    for (const Inbound& conn : inbound) {
      fds.push_back(pollfd{conn.fd, POLLIN, 0});
    }

    const int timeout_ms =
        static_cast<int>(std::max<int64_t>(1, next_deadline_ms - now_ms));
    if (poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) {
      // Wakes are coalesced to about one byte per iteration; anything left
      // over only makes the next poll return at once.
      char drain[64];
      (void)!read(wake_fds_[0], drain, sizeof(drain));
    }
    if (fds[1].revents != 0) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd)) {
          close(fd);
          continue;
        }
        SetNoDelay(fd);
        Inbound conn;
        conn.fd = fd;
        inbound.push_back(std::move(conn));
      }
    }

    // Dialer progress, and flushes of the peers found writable.
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (size_t i = 2; i < inbound_base; ++i) {
        if (fds[i].revents == 0) continue;
        Peer& peer = *peers_[peer_at[i]];
        if (peer.fd != fds[i].fd) continue;  // replaced meanwhile
        if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          peer.CloseAndBackoff(config_.backoff_min_ms, config_.backoff_max_ms);
          continue;
        }
        if (peer.state == Peer::State::kConnecting) {
          int err = 0;
          socklen_t len = sizeof(err);
          getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            peer.CloseAndBackoff(config_.backoff_min_ms,
                                 config_.backoff_max_ms);
            continue;
          }
          peer.state = Peer::State::kConnected;
          peer.backoff_ms = 0;
          // New connection epoch: hello first, then the retained queue
          // from the head frame's start.
          peer.queue.push_front(EncodeHello(config_.self));
          peer.queued_bytes +=
              static_cast<int64_t>(peer.queue.front().size());
          peer.head_off = 0;
        }
        if (peer.state == Peer::State::kConnected &&
            (fds[i].revents & POLLIN) != 0) {
          // The receiving side never sends; readable means close/reset.
          char probe[64];
          const ssize_t n = read(peer.fd, probe, sizeof(probe));
          if (n == 0 ||
              (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            peer.CloseAndBackoff(config_.backoff_min_ms,
                                 config_.backoff_max_ms);
            continue;
          }
        }
        peer.Flush(lock, config_.backoff_min_ms, config_.backoff_max_ms);
      }
    }

    // Inbound reads: each chunk's complete frames go out as one batch.
    for (size_t i = inbound_base; i < fds.size(); ++i) {
      Inbound& conn = inbound[i - inbound_base];
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn.bad = true;
      }
      bool closed = false;
      while (!conn.bad) {
        const ssize_t n = read(conn.fd, chunk.data(), chunk.size());
        if (n <= 0) {
          closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                              errno != EINTR);
          break;
        }
        conn.buf.append(chunk.data(), static_cast<size_t>(n));
        std::vector<Message> batch;
        conn.DecodeFrames(&batch);
        if (!batch.empty()) Deliver(conn.from, std::move(batch));
        if (static_cast<size_t>(n) < chunk.size()) break;  // drained
      }
      // A partial frame waits for more bytes; a corrupt frame, an error or
      // EOF ends the connection epoch (the dialer will reconnect).
      if (closed || conn.bad) {
        close(conn.fd);
        conn.fd = -1;
      }
    }
    inbound.erase(std::remove_if(inbound.begin(), inbound.end(),
                                 [](const Inbound& c) { return c.fd < 0; }),
                  inbound.end());
  }
  for (Inbound& conn : inbound) {
    if (conn.fd >= 0) close(conn.fd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& peer : peers_) {
    if (peer->fd >= 0) close(peer->fd);
    peer->fd = -1;
    peer->state = Peer::State::kIdle;
  }
}

#else  // !ESR_TCP_TRANSPORT_POSIX

struct TcpTransport::Peer {};
struct TcpTransport::Inbound {};

TcpTransport::TcpTransport(TcpTransportConfig config, Executor* executor)
    : config_(std::move(config)),
      executor_(executor),
      alive_(std::make_shared<std::atomic<bool>>(true)) {}
TcpTransport::~TcpTransport() = default;
void TcpTransport::Send(SiteId, Message) {}
void TcpTransport::Start() {}
void TcpTransport::Stop() {}
void TcpTransport::SetPeerAddress(SiteId, const std::string&) {}
void TcpTransport::Wake() {}
void TcpTransport::Deliver(SiteId, std::vector<Message>) {}
void TcpTransport::IoLoop() {}

#endif  // ESR_TCP_TRANSPORT_POSIX

}  // namespace esr::runtime
