/**
 * @file
 * A fault-injecting TCP proxy for chaos tests: listens on an ephemeral
 * port, forwards each accepted connection to an upstream 127.0.0.1
 * port, and misbehaves on command.
 *
 * Fault modes (switchable at runtime, applied by every pump thread on
 * its next loop iteration):
 *
 *  - Forward: plain byte pump, both directions;
 *  - Chunked: forward in `chunkBytes` slices with `chunkDelayMs`
 *    pauses — exercises partial-read/partial-write paths in peers (a
 *    frame arrives in many pieces, a slow reader backs up a writer);
 *  - BlackHole: stop moving bytes in either direction but keep both
 *    sockets open — the classic frozen peer: connections look alive,
 *    reads time out, writes eventually jam, heartbeats stop arriving;
 *  - TruncateAfter: forward `truncateBytes` upstream->client bytes,
 *    then close both ends — a peer that dies mid-frame.
 *
 * The proxy never parses frames; all faults are byte-level, which is
 * exactly the abstraction the util/net deadline machinery defends
 * against.  Test-only: raw POSIX sockets, assert-on-failure.
 */

#ifndef FO4_TESTS_CHAOS_PROXY_HH
#define FO4_TESTS_CHAOS_PROXY_HH

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fo4::tests
{

class ChaosProxy
{
  public:
    enum class Mode { Forward, Chunked, BlackHole, TruncateAfter };

    explicit ChaosProxy(std::uint16_t upstreamPort)
        : upstream(upstreamPort)
    {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            throw std::runtime_error("chaos proxy: socket failed");
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd, 16) != 0)
            throw std::runtime_error("chaos proxy: bind/listen failed");
        socklen_t len = sizeof(addr);
        ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        boundPort = ntohs(addr.sin_port);
        acceptThread = std::thread([this] { acceptLoop(); });
    }

    ~ChaosProxy() { stop(); }

    std::uint16_t port() const { return boundPort; }

    /** Switch the fault mode; pumps notice within one poll tick. */
    void setMode(Mode m) { mode.store(m); }

    /** Freeze every connection (keep sockets open, move no bytes). */
    void blackHole() { setMode(Mode::BlackHole); }

    /** Forward in `bytes`-sized slices, pausing `delayMs` between. */
    void chunk(std::size_t bytes, int delayMs)
    {
        chunkBytes.store(bytes);
        chunkDelayMs.store(delayMs);
        setMode(Mode::Chunked);
    }

    /** Forward `bytes` more upstream->client bytes, then sever. */
    void truncateAfter(std::size_t bytes)
    {
        truncateBudget.store(static_cast<long>(bytes));
        setMode(Mode::TruncateAfter);
    }

    /** Connections the proxy has accepted so far. */
    std::size_t accepted() const { return nAccepted.load(); }

    void stop()
    {
        if (stopping.exchange(true))
            return;
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        if (acceptThread.joinable())
            acceptThread.join();
        std::lock_guard<std::mutex> lock(connMutex);
        for (auto &conn : conns) {
            if (conn->client >= 0)
                ::shutdown(conn->client, SHUT_RDWR);
            if (conn->server >= 0)
                ::shutdown(conn->server, SHUT_RDWR);
            if (conn->up.joinable())
                conn->up.join();
            if (conn->down.joinable())
                conn->down.join();
            ::close(conn->client);
            ::close(conn->server);
        }
        conns.clear();
    }

  private:
    struct Conn
    {
        int client = -1;
        int server = -1;
        std::thread up;   ///< client -> upstream
        std::thread down; ///< upstream -> client
    };

    void acceptLoop()
    {
        while (!stopping.load()) {
            const int client = ::accept(listenFd, nullptr, nullptr);
            if (client < 0)
                return; // closed by stop()
            const int server = dialUpstream();
            if (server < 0) {
                ::close(client);
                continue;
            }
            ++nAccepted;
            // Register the connection before its pumps start: a pump
            // whose truncation budget is already spent calls sever()
            // at once, and sever() must find this connection to shut.
            std::lock_guard<std::mutex> lock(connMutex);
            Conn *raw = conns.emplace_back(std::make_unique<Conn>()).get();
            raw->client = client;
            raw->server = server;
            raw->up = std::thread(
                [this, raw] { pump(raw->client, raw->server, false); });
            raw->down = std::thread(
                [this, raw] { pump(raw->server, raw->client, true); });
        }
    }

    int dialUpstream() const
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(upstream);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /** One-direction byte pump; `counted` marks the upstream->client
     *  direction whose bytes the TruncateAfter budget meters. */
    void pump(int src, int dst, bool counted)
    {
        char buf[4096];
        for (;;) {
            if (stopping.load())
                return;
            if (mode.load() == Mode::BlackHole) {
                // Frozen: don't even read, so the sender's socket
                // buffer backs up exactly like a wedged peer's would.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            pollfd p = {src, POLLIN, 0};
            const int rc = ::poll(&p, 1, 50);
            if (rc < 0 && errno != EINTR)
                return;
            if (rc <= 0)
                continue;
            // Sample the mode *after* poll: a fault switched on while
            // this thread slept must govern the bytes that woke it, or
            // a whole frame can slip through under the stale mode.
            const Mode m = mode.load();
            if (m == Mode::BlackHole)
                continue;
            std::size_t want = sizeof(buf);
            if (m == Mode::Chunked) {
                const std::size_t c = chunkBytes.load();
                want = c > 0 && c < want ? c : want;
            }
            const ssize_t n = ::recv(src, buf, want, 0);
            if (n <= 0) {
                // Propagate the hangup so mid-frame EOF reaches the
                // peer as EOF, not as a stuck connection.
                ::shutdown(dst, SHUT_WR);
                return;
            }
            std::size_t toSend = static_cast<std::size_t>(n);
            if (m == Mode::TruncateAfter && counted) {
                const long budget = truncateBudget.fetch_sub(
                    static_cast<long>(n));
                if (budget <= 0) {
                    sever();
                    return;
                }
                if (static_cast<long>(n) > budget) {
                    toSend = static_cast<std::size_t>(budget);
                }
            }
            std::size_t sent = 0;
            while (sent < toSend) {
                const ssize_t w = ::send(dst, buf + sent, toSend - sent,
                                         MSG_NOSIGNAL);
                if (w <= 0)
                    return;
                sent += static_cast<std::size_t>(w);
            }
            if (m == Mode::TruncateAfter && counted &&
                toSend < static_cast<std::size_t>(n)) {
                sever();
                return;
            }
            if (m == Mode::Chunked) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    chunkDelayMs.load()));
            }
        }
    }

    /** Close every connection's sockets (the truncate cliff). */
    void sever()
    {
        std::lock_guard<std::mutex> lock(connMutex);
        for (auto &conn : conns) {
            ::shutdown(conn->client, SHUT_RDWR);
            ::shutdown(conn->server, SHUT_RDWR);
        }
    }

    std::uint16_t upstream;
    std::uint16_t boundPort = 0;
    int listenFd = -1;
    std::atomic<bool> stopping{false};
    std::atomic<Mode> mode{Mode::Forward};
    std::atomic<std::size_t> chunkBytes{64};
    std::atomic<int> chunkDelayMs{1};
    std::atomic<long> truncateBudget{0};
    std::atomic<std::size_t> nAccepted{0};
    std::thread acceptThread;
    std::mutex connMutex;
    std::vector<std::unique_ptr<Conn>> conns;
};

} // namespace fo4::tests

#endif // FO4_TESTS_CHAOS_PROXY_HH
