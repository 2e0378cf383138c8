// Stress and robustness tests for the real TCP binding (TcpTransport), on
// top of the contract checks in runtime_conformance_test:
//
//   * bursts from several strand tasks, payloads from 0 B to 64 KiB (large
//     enough to fill socket buffers, so sends stop on EAGAIN and vectored
//     sends end mid-frame): exact per-pair FIFO order, byte-exact payloads,
//     no duplicates
//   * a receiver restarted mid-stream: the delivered sequence is
//     at-least-once and in order (strictly increasing once adjacent
//     duplicates are dropped), and the stream resumes on the new receiver
//   * a corrupt inbound frame (CRC mismatch, implausible length) ends the
//     connection instead of wedging it, and a fresh connection delivers

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/wire.h"
#include "runtime/interfaces.h"
#include "runtime/tcp_transport.h"
#include "runtime/thread_pool.h"

namespace esr::runtime {
namespace {

/// Waits up to `timeout_ms` for `done()`.
template <typename Pred>
bool WaitFor(Pred done, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic payload of message `seq` on the pair from→to. Mostly
/// small, one in sixteen up to 64 KiB; seq 0 is empty and seq 1 is exactly
/// 64 KiB. Every byte depends on (from, to, seq, index), so a misordered,
/// torn or misattributed payload cannot compare equal.
std::string Payload(SiteId from, SiteId to, int64_t seq) {
  const uint64_t h = Mix(static_cast<uint64_t>(seq) * 1000 +
                         static_cast<uint64_t>(from) * 10 +
                         static_cast<uint64_t>(to));
  size_t len = seq % 16 == 0 ? h % (64 << 10) : h % 257;
  if (seq == 0) len = 0;
  if (seq == 1) len = 64 << 10;
  std::string out(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<char>((h >> (8 * (i % 8))) + i);
  }
  return out;
}

Message Numbered(SiteId from, SiteId to, int64_t seq) {
  Message m;
  m.type = 5;
  m.trace.et = seq;
  m.payload = Payload(from, to, seq);
  return m;
}

/// `n` transports on one pool, one strand each, every address bound to an
/// ephemeral port and learned after Start (until Connect(), sends queue).
struct Mesh {
  Mesh(ThreadPool* pool, int n) {
    for (SiteId s = 0; s < n; ++s) {
      strands.push_back(pool->MakeStrand());
      TcpTransportConfig cfg;
      cfg.self = s;
      cfg.peers.assign(static_cast<size_t>(n), "127.0.0.1:0");
      transports.push_back(
          std::make_unique<TcpTransport>(cfg, strands.back().get()));
    }
  }
  void Start() {
    for (auto& t : transports) t->Start();
  }
  void Connect() {
    for (auto& t : transports) {
      for (SiteId s = 0; s < static_cast<SiteId>(transports.size()); ++s) {
        t->SetPeerAddress(
            s, "127.0.0.1:" + std::to_string(transports[s]->port()));
      }
    }
  }
  void Stop() {
    for (auto& t : transports) t->Stop();
  }

  std::vector<std::unique_ptr<Strand>> strands;
  std::vector<std::unique_ptr<TcpTransport>> transports;
};

TEST(TcpTransportStressTest, BurstsKeepPerPairFifoOrderAndExactPayloads) {
  constexpr int kSites = 3;
  constexpr int kTasks = 4;        // strand tasks per sender
  constexpr int kBurst = 1000;     // messages per task per peer
  constexpr int64_t kPerPair = kTasks * kBurst;
  ThreadPool pool(4);
  Mesh mesh(&pool, kSites);
  // got[to][from]: sequence numbers in delivery order; each receiver's
  // entries are confined to its strand until the pool shuts down.
  std::vector<std::vector<std::vector<int64_t>>> got(
      kSites, std::vector<std::vector<int64_t>>(kSites));
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> bad_payloads{0};
  for (SiteId to = 0; to < kSites; ++to) {
    mesh.transports[to]->SetHandler([&, to](SiteId from, Message msg) {
      if (msg.type != 5 || msg.payload != Payload(from, to, msg.trace.et)) {
        bad_payloads.fetch_add(1);
      }
      got[to][from].push_back(msg.trace.et);
      delivered.fetch_add(1);
    });
  }
  mesh.Start();
  // Sequence counters per sender live on the sender's strand.
  std::vector<std::vector<int64_t>> next_seq(kSites,
                                             std::vector<int64_t>(kSites, 0));
  std::atomic<int> tasks_done{0};
  auto post_bursts = [&](int tasks) {
    for (int task = 0; task < tasks; ++task) {
      for (SiteId from = 0; from < kSites; ++from) {
        mesh.strands[from]->Post([&, from] {
          for (int i = 0; i < kBurst; ++i) {
            for (SiteId to = 0; to < kSites; ++to) {
              if (to == from) continue;
              const int64_t seq = next_seq[from][to]++;
              mesh.transports[from]->Send(to, Numbered(from, to, seq));
            }
          }
          tasks_done.fetch_add(1);
        });
      }
    }
  };
  // Half the bursts queue up before any connection exists, so the first
  // flushes hand megabytes to one socket: sends stop on a full buffer and
  // resume mid-frame. The other half is sent while the queues drain.
  post_bursts(kTasks / 2);
  ASSERT_TRUE(WaitFor(
      [&] { return tasks_done.load() == kSites * (kTasks / 2); }, 60'000));
  mesh.Connect();
  post_bursts(kTasks - kTasks / 2);
  const int64_t total = kSites * (kSites - 1) * kPerPair;
  EXPECT_TRUE(WaitFor([&] { return delivered.load() >= total; }, 120'000))
      << delivered.load() << " of " << total << " delivered";
  mesh.Stop();
  pool.Shutdown();
  EXPECT_EQ(bad_payloads.load(), 0);
  for (SiteId from = 0; from < kSites; ++from) {
    EXPECT_EQ(mesh.transports[from]->dropped_sends(), 0);
    for (SiteId to = 0; to < kSites; ++to) {
      if (to == from) continue;
      const std::vector<int64_t>& seqs = got[to][from];
      ASSERT_EQ(seqs.size(), static_cast<size_t>(kPerPair))
          << from << "->" << to;
      for (int64_t i = 0; i < kPerPair; ++i) {
        ASSERT_EQ(seqs[static_cast<size_t>(i)], i) << from << "->" << to;
      }
    }
  }
}

TEST(TcpTransportStressTest, ReceiverRestartMidStreamIsAtLeastOnceInOrder) {
  constexpr int64_t kFirst = 8'000;  // sent before the restart
  constexpr int64_t kTotal = 16'000;
  ThreadPool pool(3);
  Mesh mesh(&pool, 2);
  TcpTransport& sender = *mesh.transports[0];
  std::vector<int64_t> before;  // confined to site 1's first strand
  std::atomic<int64_t> before_count{0};
  mesh.transports[1]->SetHandler([&](SiteId from, Message msg) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(msg.payload, Payload(0, 1, msg.trace.et));
    before.push_back(msg.trace.et);
    before_count.fetch_add(1);
  });
  mesh.Start();
  mesh.Connect();
  const int port = mesh.transports[1]->port();

  for (int64_t seq = 0; seq < kFirst; ++seq) {
    sender.Send(1, Numbered(0, 1, seq));
  }
  ASSERT_TRUE(WaitFor([&] { return before_count.load() >= 500; }, 30'000));
  // Cut the stream while most of the first half is still in flight, then
  // bring a fresh receiver up on the same port.
  mesh.transports[1]->Stop();
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TcpTransportConfig cfg;
  cfg.self = 1;
  cfg.peers = {"127.0.0.1:" + std::to_string(mesh.transports[0]->port()),
               "127.0.0.1:" + std::to_string(port)};
  TcpTransport restarted(cfg, strand.get());
  std::vector<int64_t> after;  // confined to the new strand
  std::atomic<int64_t> last_after{-1};
  restarted.SetHandler([&](SiteId from, Message msg) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(msg.payload, Payload(0, 1, msg.trace.et));
    after.push_back(msg.trace.et);
    last_after.store(msg.trace.et);
  });
  restarted.Start();
  ASSERT_TRUE(restarted.ok());
  ASSERT_EQ(restarted.port(), port);

  for (int64_t seq = kFirst; seq < kTotal; ++seq) {
    sender.Send(1, Numbered(0, 1, seq));
  }
  EXPECT_TRUE(
      WaitFor([&] { return last_after.load() == kTotal - 1; }, 60'000));
  mesh.Stop();
  restarted.Stop();
  pool.Shutdown();

  EXPECT_EQ(sender.dropped_sends(), 0);
  ASSERT_FALSE(after.empty());
  std::vector<int64_t> all = before;
  all.insert(all.end(), after.begin(), after.end());
  std::vector<int64_t> deduped;
  for (int64_t seq : all) {
    if (deduped.empty() || deduped.back() != seq) deduped.push_back(seq);
  }
  for (size_t i = 1; i < deduped.size(); ++i) {
    ASSERT_LT(deduped[i - 1], deduped[i]) << "at delivery " << i;
  }
  EXPECT_EQ(deduped.front(), 0);
  EXPECT_EQ(deduped.back(), kTotal - 1);
  // Everything sent after the new receiver was up arrives.
  for (int64_t seq = kFirst; seq < kTotal; ++seq) {
    ASSERT_TRUE(std::binary_search(deduped.begin(), deduped.end(), seq))
        << seq;
  }
}

/// --- Corrupt inbound frames ------------------------------------------------

// The transport's frame payload layout (tcp_transport.cc), spelled out so
// the tests can write raw streams.
std::string HelloFrame(SiteId from) {
  wire::Encoder e;
  e.U8(0);
  e.U32(static_cast<uint32_t>(from));
  std::string framed;
  wire::FrameAppend(framed, e.bytes());
  return framed;
}

std::string MessageFrame(const std::string& payload) {
  wire::Encoder e;
  e.U8(1);
  e.U32(9);  // type
  e.I64(0);
  e.U64(0);
  e.U32(0);
  e.U32(0);
  e.Str(payload);
  std::string framed;
  wire::FrameAppend(framed, e.bytes());
  return framed;
}

int ConnectTo(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Returns read()'s result once `fd` turns readable, or -2 if it stays
/// silent for `timeout_ms` (the transport kept the connection open).
ssize_t ReadWhenReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (poll(&p, 1, timeout_ms) <= 0) return -2;
  char buf[64];
  return read(fd, buf, sizeof(buf));
}

struct Receiver {
  Receiver() : pool(2), strand(pool.MakeStrand()) {
    TcpTransportConfig cfg;
    cfg.self = 1;
    cfg.peers = {"127.0.0.1:0", "127.0.0.1:0"};
    transport = std::make_unique<TcpTransport>(cfg, strand.get());
    transport->SetHandler([this](SiteId from, Message msg) {
      EXPECT_EQ(from, 0);
      std::lock_guard<std::mutex> lock(mu);
      payloads.push_back(msg.payload);
    });
    transport->Start();
  }
  ~Receiver() {
    transport->Stop();
    pool.Shutdown();
  }
  std::vector<std::string> Payloads() {
    std::lock_guard<std::mutex> lock(mu);
    return payloads;
  }
  bool Has(const std::string& payload) {
    for (const std::string& p : Payloads()) {
      if (p == payload) return true;
    }
    return false;
  }

  ThreadPool pool;
  std::unique_ptr<Strand> strand;
  std::unique_ptr<TcpTransport> transport;
  std::mutex mu;
  std::vector<std::string> payloads;
};

TEST(TcpTransportCorruptFrameTest, CrcMismatchEndsConnectionFreshOneDelivers) {
  Receiver rx;
  const int fd = ConnectTo(rx.transport->port());
  ASSERT_GE(fd, 0);
  std::string corrupt = MessageFrame("corrupt");
  corrupt.back() ^= 0x5A;  // payload no longer matches the header's CRC
  ASSERT_TRUE(SendAll(fd, HelloFrame(0) + MessageFrame("before") + corrupt +
                              MessageFrame("after")));
  EXPECT_EQ(ReadWhenReadable(fd, 10'000), 0)
      << "connection not closed after a corrupt frame";
  close(fd);

  const int fresh = ConnectTo(rx.transport->port());
  ASSERT_GE(fresh, 0);
  ASSERT_TRUE(SendAll(fresh, HelloFrame(0) + MessageFrame("fresh")));
  EXPECT_TRUE(WaitFor([&] { return rx.Has("fresh"); }, 10'000));
  close(fresh);
  // Frames before the corrupt one were delivered; nothing after it was.
  EXPECT_EQ(rx.Payloads(), (std::vector<std::string>{"before", "fresh"}));
}

TEST(TcpTransportCorruptFrameTest, ImplausibleLengthEndsConnection) {
  Receiver rx;
  const int fd = ConnectTo(rx.transport->port());
  ASSERT_GE(fd, 0);
  wire::Encoder header;
  header.U32(0xFFFFFFF0u);  // would otherwise wait for ~4 GiB
  header.U32(0);
  ASSERT_TRUE(SendAll(fd, HelloFrame(0) + header.bytes()));
  EXPECT_EQ(ReadWhenReadable(fd, 10'000), 0)
      << "connection not closed after an implausible length header";
  close(fd);
}

}  // namespace
}  // namespace esr::runtime
