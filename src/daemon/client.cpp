#include "daemon/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sst::daemon {

DaemonClient::DaemonClient(const std::string& socket_path)
    : socket_path_(socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw DaemonError("socket path '" + socket_path +
                      "' exceeds the unix socket path limit");
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw DaemonError("cannot create socket");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw DaemonError("cannot reach daemon at '" + socket_path +
                      "': " + std::strerror(err));
  }
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

void DaemonClient::send(const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ::ssize_t n =
        ::write(fd_, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DaemonError("daemon connection lost while sending: " +
                        std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

sdl::JsonValue DaemonClient::next_reply() {
  std::string line;
  char buf[65536];
  while (!in_.next(line)) {
    const ::ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw DaemonError("daemon at '" + socket_path_ +
                        "' closed the connection");
    }
    in_.feed(buf, static_cast<std::size_t>(n));
  }
  try {
    return sdl::JsonValue::parse(line);
  } catch (const sdl::JsonError& e) {
    throw DaemonError(std::string("malformed daemon reply: ") + e.what());
  }
}

sdl::JsonValue DaemonClient::status() {
  send("{\"op\":\"status\"}");
  return next_reply();
}

sdl::JsonValue DaemonClient::drain() {
  send("{\"op\":\"drain\"}");
  return next_reply();
}

}  // namespace sst::daemon
