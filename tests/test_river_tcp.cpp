// TCP transport: record streams over real loopback sockets, clean EOS via
// sentinel, abnormal death reported as a disconnect.
#include <gtest/gtest.h>

#include <thread>

#include "river/tcp.hpp"

namespace river = dynriver::river;
using river::Record;
using river::RecvStatus;

namespace {
Record make_audio(std::uint64_t seq) {
  auto rec = Record::data(river::kSubtypeAudio, {1.0F, 2.0F, 3.0F});
  rec.sequence = seq;
  return rec;
}
}  // namespace

TEST(Tcp, RecordRoundTripOverLoopback) {
  river::TcpListener listener(0);
  const auto port = listener.port();
  ASSERT_GT(port, 0);

  std::thread client([port] {
    river::TcpRecordChannel ch(river::TcpStream::connect("127.0.0.1", port));
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(ch.send(make_audio(i)));
    ch.close();
  });

  river::TcpRecordChannel server(listener.accept());
  Record rec;
  int received = 0;
  while (server.recv(rec) == RecvStatus::kRecord) {
    EXPECT_EQ(rec.sequence, static_cast<std::uint64_t>(received));
    ++received;
  }
  client.join();
  EXPECT_EQ(received, 100);
  // And the final status is a clean close, not a disconnect.
  EXPECT_EQ(server.recv(rec), RecvStatus::kClosed);
}

TEST(Tcp, LargePayloadSurvivesFragmentation) {
  river::TcpListener listener(0);
  const auto port = listener.port();

  river::FloatVec big(200000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<float>(i % 997);
  const auto original = Record::data(river::kSubtypeAudio, big);

  std::thread client([port, &original] {
    river::TcpRecordChannel ch(river::TcpStream::connect("127.0.0.1", port));
    EXPECT_TRUE(ch.send(original));
    ch.close();
  });

  river::TcpRecordChannel server(listener.accept());
  Record rec;
  ASSERT_EQ(server.recv(rec), RecvStatus::kRecord);
  EXPECT_TRUE(rec == original);
  client.join();
}

TEST(Tcp, AbruptDeathReportsDisconnect) {
  river::TcpListener listener(0);
  const auto port = listener.port();

  std::thread client([port] {
    auto stream = river::TcpStream::connect("127.0.0.1", port);
    river::TcpRecordChannel ch(std::move(stream));
    EXPECT_TRUE(ch.send(make_audio(0)));
    ch.disconnect();  // abortive close, no EOS sentinel
  });

  river::TcpRecordChannel server(listener.accept());
  Record rec;
  EXPECT_EQ(server.recv(rec), RecvStatus::kRecord);
  EXPECT_EQ(server.recv(rec), RecvStatus::kDisconnected);
  client.join();
}

TEST(Tcp, ConnectToClosedPortThrows) {
  // Grab a free port, then close the listener so nothing accepts.
  std::uint16_t port = 0;
  {
    river::TcpListener listener(0);
    port = listener.port();
    listener.close();
  }
  EXPECT_THROW((void)river::TcpStream::connect("127.0.0.1", port),
               river::TcpError);
}

TEST(Tcp, InvalidAddressThrows) {
  EXPECT_THROW((void)river::TcpStream::connect("not-an-ip", 1234),
               river::TcpError);
}
