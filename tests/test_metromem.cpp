// Tests for the metro-memory layout: CSR adjacency layout and neighbor
// order, the shared struct-of-arrays agent-state slab, and the medium's
// pooled transmit rings.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/ap_state.hpp"
#include "cryptox/identity.hpp"
#include "graphx/graph.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace core = citymesh::core;
namespace cryptox = citymesh::cryptox;
namespace graphx = citymesh::graphx;
namespace sim = citymesh::sim;

// ------------------------------------------------------------ CSR layout ----

TEST(GraphCsr, NeighborsFollowEdgeInsertionOrder) {
  // The counting sort in GraphBuilder::build is stable, so each vertex's
  // CSR slice lists its incident edges in add_edge order — the invariant
  // the medium's fan-out order and the relayx ETX rows both lean on.
  graphx::GraphBuilder builder(5);
  builder.add_edge(1, 3, 13.0);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 12.0);
  builder.add_edge(4, 1, 14.0);  // reversed endpoints still land on both rows
  builder.add_edge(0, 2, 2.0);
  const graphx::Graph g = builder.build();

  ASSERT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.directed_edge_count(), 10u);

  const auto row = [&](graphx::VertexId v) {
    std::vector<std::pair<graphx::VertexId, double>> out;
    for (const graphx::Edge& e : g.neighbors(v)) out.push_back({e.to, e.weight});
    return out;
  };
  using Row = std::vector<std::pair<graphx::VertexId, double>>;
  EXPECT_EQ(row(0), (Row{{1, 1.0}, {2, 2.0}}));
  EXPECT_EQ(row(1), (Row{{3, 13.0}, {0, 1.0}, {2, 12.0}, {4, 14.0}}));
  EXPECT_EQ(row(2), (Row{{1, 12.0}, {0, 2.0}}));
  EXPECT_EQ(row(3), (Row{{1, 13.0}}));
  EXPECT_EQ(row(4), (Row{{1, 14.0}}));
}

TEST(GraphCsr, OffsetsDegreesAndSplitArraysAgree) {
  graphx::GraphBuilder builder(4);
  builder.add_edge(0, 1, 5.0);
  builder.add_edge(1, 2, 6.0);
  builder.add_edge(2, 3, 7.0);
  const graphx::Graph g = builder.build();

  // edge_offset is valid at vertex_count() (one-past-the-end), and the
  // per-vertex slices tile the packed arrays exactly.
  EXPECT_EQ(g.edge_offset(0), 0u);
  std::size_t total = 0;
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.edge_offset(v), total) << "vertex " << v;
    EXPECT_EQ(g.degree(v), g.neighbors(v).size()) << "vertex " << v;
    total += g.degree(v);
  }
  EXPECT_EQ(g.edge_offset(static_cast<graphx::VertexId>(g.vertex_count())), total);
  EXPECT_EQ(total, g.directed_edge_count());

  // ids()/weights() views and Edge-yielding iteration see the same data.
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto range = g.neighbors(v);
    const auto ids = range.ids();
    const auto weights = range.weights();
    ASSERT_EQ(ids.size(), range.size());
    ASSERT_EQ(weights.size(), range.size());
    for (std::size_t i = 0; i < range.size(); ++i) {
      EXPECT_EQ(range[i].to, ids[i]);
      EXPECT_DOUBLE_EQ(range[i].weight, weights[i]);
    }
  }
  EXPECT_TRUE(g.neighbors(0).size() == 1 && !g.neighbors(0).empty());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

// -------------------------------------------------------- agent state slab --

TEST(AgentStateSlab, MarkSeenDeduplicatesPerApAndMessage) {
  core::AgentStateSlab slab{3};
  EXPECT_TRUE(slab.mark_seen(0, 7));
  EXPECT_FALSE(slab.mark_seen(0, 7));
  EXPECT_TRUE(slab.mark_seen(1, 7));  // same message, different AP
  EXPECT_TRUE(slab.mark_seen(0, 8));  // same AP, different message
  EXPECT_EQ(slab.seen_count(0), 2u);
  EXPECT_EQ(slab.seen_count(1), 1u);
  EXPECT_EQ(slab.seen_count(2), 0u);

  EXPECT_EQ(slab.behavior(2), core::AgentBehavior::kNormal);
  slab.set_behavior(2, core::AgentBehavior::kCompromisedDrop);
  EXPECT_EQ(slab.behavior(2), core::AgentBehavior::kCompromisedDrop);
}

TEST(AgentStateSlab, PostboxChainsReplaceByTagAndVisitAll) {
  core::AgentStateSlab slab{2};
  const auto k1 = cryptox::KeyPair::from_seed(1);
  const auto k2 = cryptox::KeyPair::from_seed(2);
  auto box1 = std::make_shared<core::Postbox>(k1.id());
  auto box2 = std::make_shared<core::Postbox>(k2.id());
  slab.host_postbox(0, box1);
  slab.host_postbox(0, box2);
  EXPECT_EQ(slab.postbox_for_tag(0, k1.id().tag()), box1);
  EXPECT_EQ(slab.postbox_for_tag(0, k2.id().tag()), box2);
  EXPECT_EQ(slab.postbox_for_tag(1, k1.id().tag()), nullptr);

  // Re-hosting the same tag replaces the box (old per-agent map semantics).
  auto box1b = std::make_shared<core::Postbox>(k1.id());
  slab.host_postbox(0, box1b);
  EXPECT_EQ(slab.postbox_for_tag(0, k1.id().tag()), box1b);

  std::size_t visited = 0;
  bool saw_replacement = false;
  slab.for_each_postbox(0, [&](const std::shared_ptr<core::Postbox>& box) {
    ++visited;
    if (box == box1b) saw_replacement = true;
    EXPECT_NE(box, box1);
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_TRUE(saw_replacement);
}

// ------------------------------------------------------ medium ring queues --

namespace {
struct TestPacket {
  int id = 0;
};
}  // namespace

TEST(MediumRings, TransmitQueueIsFifoWithCapacityDrops) {
  sim::Simulator s;
  graphx::GraphBuilder builder(2);
  builder.add_edge(0, 1, 10.0);
  const graphx::Graph g = builder.build();

  sim::MediumConfig cfg;
  cfg.bitrate_bps = 1000.0;  // 400 framing bits -> 0.4 s serialization each
  cfg.jitter_s = 0.0;
  cfg.loss_probability = 0.0;
  cfg.tx_queue_capacity = 2;
  sim::BroadcastMedium<TestPacket> medium{s, g, cfg};

  std::vector<int> received;
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId, const std::shared_ptr<const TestPacket>& p) {
        EXPECT_EQ(to, 1u);
        received.push_back(p->id);
      });

  // Five transmits at t=0: one airs, two queue, two drop.
  for (int i = 0; i < 5; ++i) {
    medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{i}));
  }
  EXPECT_EQ(medium.queued(0), 2u);
  EXPECT_EQ(medium.deferrals(), 2u);
  EXPECT_EQ(medium.queue_drops(), 2u);
  s.run();
  EXPECT_EQ(medium.transmissions(), 3u);
  EXPECT_EQ(medium.queued(0), 0u);
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2}));  // strict FIFO

  // The drained ring was released; a second burst reuses it and stays FIFO.
  received.clear();
  for (int i = 10; i < 13; ++i) {
    medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{i}));
  }
  EXPECT_EQ(medium.queued(0), 2u);
  s.run();
  EXPECT_EQ(received, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(medium.queue_drops(), 2u);  // no new drops
}
