// Embedded HTTP listener: request-line parsing (method, path, version,
// size cap), live round-trips through HttpGet, and the error statuses
// the wire protocol promises (400 / 404 / 405 / 431).

#include "common/http_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

namespace fuseme {
namespace {

TEST(ParseHttpRequestTest, AcceptsSimpleGet) {
  Result<HttpRequest> req = ParseHttpRequest("GET /metrics HTTP/1.1");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/metrics");
}

TEST(ParseHttpRequestTest, StripsQueryString) {
  Result<HttpRequest> req =
      ParseHttpRequest("GET /flightz?window=60 HTTP/1.0");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->path, "/flightz");
}

TEST(ParseHttpRequestTest, ParsesNonGetMethods) {
  // Parsing succeeds — the *server* maps non-GET to 405.
  Result<HttpRequest> req = ParseHttpRequest("POST /metrics HTTP/1.1");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->method, "POST");
}

TEST(ParseHttpRequestTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseHttpRequest("").ok());
  EXPECT_FALSE(ParseHttpRequest("GET").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /metrics").ok());
  EXPECT_FALSE(ParseHttpRequest("GET metrics HTTP/1.1").ok());  // no slash
  EXPECT_FALSE(ParseHttpRequest("GET /metrics FTP/1.1").ok());
}

TEST(ParseHttpRequestTest, RejectsOversizedRequestLine) {
  const std::string line =
      "GET /" + std::string(9000, 'a') + " HTTP/1.1";
  const Result<HttpRequest> req = ParseHttpRequest(line);
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("exceeds"), std::string::npos);
}

// Sends raw bytes to the server and returns everything it answers with —
// for wire-level cases HttpGet (GET-only, well-formed) cannot produce.
std::string RawExchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

class HttpServerLive : public ::testing::Test {
 protected:
  void SetUp() override {
    HttpServer::Options options;
    options.port = 0;  // ephemeral
    server_ = std::make_unique<HttpServer>(
        options, [](const HttpRequest& req) {
          HttpResponse resp;
          if (req.path == "/hello") {
            resp.body = "hi\n";
          } else {
            resp.status = 404;
            resp.body = "not found\n";
          }
          return resp;
        });
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerLive, ServesHandlerResponse) {
  Result<std::string> body = HttpGet(server_->port(), "/hello");
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "hi\n");
}

TEST_F(HttpServerLive, UnknownPathIs404) {
  Result<std::string> body = HttpGet(server_->port(), "/nope");
  ASSERT_FALSE(body.ok());
  EXPECT_NE(body.status().message().find("404"), std::string::npos);
}

TEST_F(HttpServerLive, NonGetMethodIs405) {
  const std::string response = RawExchange(
      server_->port(), "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 405", 0), 0u) << response;
}

TEST_F(HttpServerLive, MalformedRequestLineIs400) {
  const std::string response =
      RawExchange(server_->port(), "NONSENSE\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
}

TEST_F(HttpServerLive, OversizedRequestLineIs431) {
  const std::string response = RawExchange(
      server_->port(),
      "GET /" + std::string(10000, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 431", 0), 0u) << response;
}

TEST_F(HttpServerLive, StopIsIdempotentAndRestartable) {
  server_->Stop();
  server_->Stop();
  ASSERT_TRUE(server_->Start().ok());
  Result<std::string> body = HttpGet(server_->port(), "/hello");
  ASSERT_TRUE(body.ok()) << body.status();
}

}  // namespace
}  // namespace fuseme
