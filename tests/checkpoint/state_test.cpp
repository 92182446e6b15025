#include "checkpoint/state.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

Element makeElement(ElementSeq seq, std::uint32_t payload = 100) {
  Element e;
  e.stream = 1;
  e.seq = seq;
  e.payloadBytes = payload;
  return e;
}

TEST(PeState, SizeBytesCountsAllParts) {
  PeState state;
  state.internal.assign(1000, 0);
  PeState::PortState port;
  port.stream = 1;
  port.buffered.push_back(makeElement(1));
  state.ports.push_back(port);
  const std::uint64_t size = state.sizeBytes();
  EXPECT_GT(size, 1000u + 132u);  // internal + one element on the wire.
  EXPECT_LT(size, 1400u);
}

TEST(PeState, SizeElementsUsesDivisor) {
  PeState state;
  state.internal.assign(264, 0);  // 2 elements at 132 B each.
  PeState::PortState port;
  port.buffered.push_back(makeElement(1));
  port.buffered.push_back(makeElement(2));
  state.ports.push_back(port);
  state.inputBacklog.push_back(makeElement(3));
  EXPECT_EQ(state.sizeElements(), 2u + 2u + 1u);
}

TEST(PeState, SizeElementsRoundsUp) {
  PeState state;
  state.internal.assign(1, 0);
  EXPECT_EQ(state.sizeElements(), 1u);
}

TEST(SubjobState, AggregatesPes) {
  SubjobState state;
  state.subjob = 3;
  PeState a;
  a.pe = 0;
  a.internal.assign(132, 0);
  PeState b;
  b.pe = 1;
  b.internal.assign(264, 0);
  state.pes[0] = a;
  state.pes[1] = b;
  EXPECT_EQ(state.sizeElements(), 3u);
  EXPECT_GT(state.sizeBytes(), 396u);
  EXPECT_FALSE(state.empty());
}

TEST(SubjobState, EmptyState) {
  SubjobState state;
  EXPECT_TRUE(state.empty());
  EXPECT_EQ(state.sizeElements(), 0u);
}

}  // namespace
}  // namespace streamha
