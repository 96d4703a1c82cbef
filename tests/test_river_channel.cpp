// Channels: blocking semantics, backpressure, clean vs abnormal
// termination, fault injection.
#include <gtest/gtest.h>

#include <thread>

#include "river/channel.hpp"

namespace river = dynriver::river;
using river::InProcessChannel;
using river::Record;
using river::RecvStatus;

TEST(InProcessChannel, SendRecvOrder) {
  InProcessChannel ch(8);
  for (int i = 0; i < 5; ++i) {
    Record rec;
    rec.sequence = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(ch.send(std::move(rec)));
  }
  Record out;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ch.recv(out), RecvStatus::kRecord);
    EXPECT_EQ(out.sequence, static_cast<std::uint64_t>(i));
  }
}

TEST(InProcessChannel, CleanCloseAfterDraining) {
  InProcessChannel ch(8);
  EXPECT_TRUE(ch.send(Record{}));
  ch.close();
  Record out;
  EXPECT_EQ(ch.recv(out), RecvStatus::kRecord);  // queued record still there
  EXPECT_EQ(ch.recv(out), RecvStatus::kClosed);
  EXPECT_FALSE(ch.send(Record{}));  // sends after close fail
}

TEST(InProcessChannel, DisconnectDropsInFlight) {
  InProcessChannel ch(8);
  EXPECT_TRUE(ch.send(Record{}));
  ch.disconnect();
  Record out;
  EXPECT_EQ(ch.recv(out), RecvStatus::kDisconnected);  // queue wiped
}

TEST(InProcessChannel, RecvForTimesOut) {
  InProcessChannel ch(8);
  Record out;
  EXPECT_EQ(ch.recv_for(out, 10), RecvStatus::kTimeout);
}

TEST(InProcessChannel, BackpressureBlocksSender) {
  InProcessChannel ch(2);
  EXPECT_TRUE(ch.send(Record{}));
  EXPECT_TRUE(ch.send(Record{}));

  std::atomic<bool> third_sent{false};
  std::thread sender([&] {
    Record rec;
    rec.sequence = 3;
    EXPECT_TRUE(ch.send(std::move(rec)));
    third_sent.store(true);
  });
  // The third send must block until the receiver makes room.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_sent.load());

  Record out;
  EXPECT_EQ(ch.recv(out), RecvStatus::kRecord);
  sender.join();
  EXPECT_TRUE(third_sent.load());
}

TEST(InProcessChannel, CrossThreadThroughput) {
  InProcessChannel ch(16);
  constexpr int kCount = 10000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      Record rec;
      rec.sequence = static_cast<std::uint64_t>(i);
      ch.send(std::move(rec));
    }
    ch.close();
  });
  Record out;
  int received = 0;
  while (ch.recv(out) == RecvStatus::kRecord) {
    EXPECT_EQ(out.sequence, static_cast<std::uint64_t>(received));
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kCount);
}

TEST(LossyChannel, FailsAfterConfiguredCount) {
  auto inner = std::make_shared<InProcessChannel>(64);
  river::LossyChannel lossy(inner, 3);
  EXPECT_TRUE(lossy.send(Record{}));
  EXPECT_TRUE(lossy.send(Record{}));
  EXPECT_TRUE(lossy.send(Record{}));
  EXPECT_FALSE(lossy.send(Record{}));  // 4th send kills the link
  EXPECT_TRUE(lossy.failed());

  Record out;
  // The inner channel saw an abnormal disconnect: in-flight records dropped.
  EXPECT_EQ(inner->recv(out), RecvStatus::kDisconnected);
}
