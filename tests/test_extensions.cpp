// Tests for the future-work extensions layered on the paper's baseline:
// acknowledgments + width-escalating reliable send, geo-broadcast,
// location updates, and same-building rebroadcast suppression.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "cryptox/sealed.hpp"
#include "geo/stats.hpp"
#include "osmx/citygen.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace wire = citymesh::wire;
namespace cryptox = citymesh::cryptox;
namespace relayx = citymesh::relayx;

namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

osmx::City row_city(std::size_t n, double gap = 20.0) {
  const double stride = 20.0 + gap;
  osmx::City city{"row", {{0, 0}, {stride * static_cast<double>(n), 40}}};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = static_cast<double>(i) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, 0}, {x0 + 20, 20}}));
  }
  return city;
}

osmx::City dense_town() {
  osmx::CityProfile p;
  p.name = "ext-town";
  p.width_m = 900;
  p.height_m = 700;
  p.park_fraction = 0.0;
  p.seed = 21;
  return osmx::generate_city(p);
}

core::NetworkConfig fast_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 1e-4;
  return cfg;
}

}  // namespace

// ------------------------------------------------------ broadcast header ---

TEST(BroadcastHeader, RadiusRoundTripsWithFlag) {
  wire::PacketHeader h;
  h.message_id = 42;
  h.waypoints = {5, 9, 14};
  h.set_flag(wire::PacketFlag::kBroadcast);
  h.broadcast_radius_m = 350;
  const auto enc = wire::encode_header(h);
  EXPECT_EQ(enc.bit_count, wire::header_bits(h));
  const auto dec = wire::decode_header(enc.bytes);
  EXPECT_EQ(dec, h);
  EXPECT_EQ(dec.broadcast_radius_m, 350u);
}

TEST(BroadcastHeader, RadiusOmittedWithoutFlag) {
  wire::PacketHeader with_flag;
  with_flag.waypoints = {1, 2};
  with_flag.set_flag(wire::PacketFlag::kBroadcast);
  with_flag.broadcast_radius_m = 500;
  wire::PacketHeader without_flag;
  without_flag.waypoints = {1, 2};
  without_flag.broadcast_radius_m = 500;  // ignored when the flag is unset
  EXPECT_GT(wire::header_bits(with_flag), wire::header_bits(without_flag));
  const auto dec = wire::decode_header(wire::encode_header(without_flag).bytes);
  EXPECT_EQ(dec.broadcast_radius_m, 0u);
}

TEST(BroadcastHeader, AckRequestFlagRoundTrips) {
  wire::PacketHeader h;
  h.set_flag(wire::PacketFlag::kAckRequest);
  const auto dec = wire::decode_header(wire::encode_header(h).bytes);
  EXPECT_TRUE(dec.has_flag(wire::PacketFlag::kAckRequest));
}

// ------------------------------------------------------- broadcast region --

TEST(BroadcastRegion, MembershipByDistanceToCenter) {
  const auto city = row_city(10, 20.0);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader h;
  h.waypoints = {0, 5};
  h.set_flag(wire::PacketFlag::kBroadcast);
  h.broadcast_radius_m = 90;  // centroids are 40 m apart
  EXPECT_TRUE(core::in_broadcast_region(h, map, 5));  // the center itself
  EXPECT_TRUE(core::in_broadcast_region(h, map, 4));
  EXPECT_TRUE(core::in_broadcast_region(h, map, 7));  // 80 m away
  EXPECT_FALSE(core::in_broadcast_region(h, map, 8)); // 120 m away
  EXPECT_FALSE(core::in_broadcast_region(h, map, 0));
}

TEST(BroadcastRegion, FalseWithoutFlagOrWaypoints) {
  const auto city = row_city(4);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader no_flag;
  no_flag.waypoints = {0, 2};
  no_flag.broadcast_radius_m = 1000;
  EXPECT_FALSE(core::in_broadcast_region(no_flag, map, 2));
  wire::PacketHeader no_wp;
  no_wp.set_flag(wire::PacketFlag::kBroadcast);
  no_wp.broadcast_radius_m = 1000;
  EXPECT_FALSE(core::in_broadcast_region(no_wp, map, 2));
}

// ------------------------------------------------------------ geo broadcast

TEST(GeoBroadcast, ReachesAllPostboxesInRegion) {
  const auto city = dense_town();
  core::CityMeshNetwork net{city, fast_config()};

  // Postboxes: two near the center building, one far away.
  const auto center =
      static_cast<core::BuildingId>(city.building_count() / 2);
  const geo::Point center_pt = city.building(center).centroid;
  std::vector<std::shared_ptr<core::Postbox>> in_region;
  std::shared_ptr<core::Postbox> out_of_region;
  int seed = 900;
  for (const auto& b : city.buildings()) {
    const double d = geo::distance(b.centroid, center_pt);
    if (in_region.size() < 2 && d < 100.0 && b.id != center) {
      const auto keys = cryptox::KeyPair::from_seed(seed++);
      if (auto box = net.register_postbox(core::PostboxInfo::for_key(keys, b.id))) {
        in_region.push_back(box);
      }
    }
    if (!out_of_region && d > 320.0) {
      const auto keys = cryptox::KeyPair::from_seed(seed++);
      out_of_region = net.register_postbox(core::PostboxInfo::for_key(keys, b.id));
    }
  }
  ASSERT_EQ(in_region.size(), 2u);
  ASSERT_NE(out_of_region, nullptr);

  const auto outcome = net.broadcast(0, center, 150.0, bytes_of("evacuate"), true);
  ASSERT_TRUE(outcome.route_found);
  EXPECT_GE(outcome.postboxes_reached, 2u);
  for (const auto& box : in_region) {
    EXPECT_EQ(box->pending(), 1u);
  }
  EXPECT_EQ(out_of_region->pending(), 0u);
  EXPECT_GT(outcome.transmissions, 0u);
}

TEST(GeoBroadcast, UrgentTriggersPushInRegion) {
  const auto city = dense_town();
  core::CityMeshNetwork net{city, fast_config()};
  const auto center = static_cast<core::BuildingId>(city.building_count() / 2);
  const auto keys = cryptox::KeyPair::from_seed(55);
  const auto box = net.register_postbox(core::PostboxInfo::for_key(keys, center));
  ASSERT_NE(box, nullptr);
  int pushes = 0;
  box->set_push_handler([&](const core::StoredMessage& m) {
    EXPECT_TRUE(m.urgent);
    ++pushes;
  });
  net.broadcast(0, center, 100.0, bytes_of("x"), /*urgent=*/true);
  EXPECT_EQ(pushes, 1);
}

TEST(GeoBroadcast, WiderRadiusTransmitsMore) {
  const auto city = dense_town();
  std::size_t small_tx = 0;
  std::size_t large_tx = 0;
  {
    core::CityMeshNetwork net{city, fast_config()};
    small_tx = net.broadcast(0, static_cast<core::BuildingId>(city.building_count() / 2),
                             60.0, bytes_of("x"))
                   .transmissions;
  }
  {
    core::CityMeshNetwork net{city, fast_config()};
    large_tx = net.broadcast(0, static_cast<core::BuildingId>(city.building_count() / 2),
                             300.0, bytes_of("x"))
                   .transmissions;
  }
  EXPECT_GT(large_tx, small_tx);
}

// ------------------------------------------------------------------- acks --

TEST(Acks, AckReturnsToSenderPostbox) {
  const auto city = row_city(12, 20.0);
  core::CityMeshNetwork net{city, fast_config()};

  const auto alice = cryptox::KeyPair::from_seed(1);
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto alice_info = core::PostboxInfo::for_key(alice, 0);
  const auto bob_info = core::PostboxInfo::for_key(bob, 11);
  const auto alice_box = net.register_postbox(alice_info);
  ASSERT_NE(net.register_postbox(bob_info), nullptr);
  ASSERT_NE(alice_box, nullptr);

  core::SendOptions opts;
  opts.request_ack = true;
  opts.ack_to = alice_info;
  const auto outcome = net.send(0, bob_info, bytes_of("ping"), opts);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_TRUE(outcome.ack_received);
  EXPECT_NE(outcome.ack_message_id, 0u);
  // The ack is a real stored message at Alice's postbox.
  EXPECT_TRUE(alice_box->has_message(outcome.ack_message_id));
}

TEST(Acks, NoAckWithoutRequest) {
  const auto city = row_city(8, 20.0);
  core::CityMeshNetwork net{city, fast_config()};
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto bob_info = core::PostboxInfo::for_key(bob, 7);
  net.register_postbox(bob_info);
  const auto outcome = net.send(0, bob_info, bytes_of("ping"));
  ASSERT_TRUE(outcome.delivered);
  EXPECT_FALSE(outcome.ack_received);
  EXPECT_EQ(outcome.ack_message_id, 0u);
}

TEST(Acks, NoAckWhenUndeliverable) {
  const auto city = row_city(6, 300.0);  // disconnected row
  core::CityMeshNetwork net{city, fast_config()};
  const auto alice = cryptox::KeyPair::from_seed(1);
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto alice_info = core::PostboxInfo::for_key(alice, 0);
  const auto bob_info = core::PostboxInfo::for_key(bob, 5);
  net.register_postbox(alice_info);
  net.register_postbox(bob_info);
  core::SendOptions opts;
  opts.request_ack = true;
  opts.ack_to = alice_info;
  const auto outcome = net.send(0, bob_info, bytes_of("ping"), opts);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_FALSE(outcome.ack_received);
}

TEST(Acks, ReliableSendAcknowledgesOnEasyPath) {
  const auto city = row_city(10, 20.0);
  core::CityMeshNetwork net{city, fast_config()};
  const auto alice = cryptox::KeyPair::from_seed(1);
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto alice_info = core::PostboxInfo::for_key(alice, 0);
  const auto bob_info = core::PostboxInfo::for_key(bob, 9);
  net.register_postbox(alice_info);
  net.register_postbox(bob_info);
  const auto result = net.send_reliable(0, bob_info, bytes_of("important"), alice_info);
  EXPECT_TRUE(result.delivered);
  EXPECT_TRUE(result.acknowledged);
  EXPECT_EQ(result.attempts, 1u);
  ASSERT_EQ(result.tries.size(), 1u);
  EXPECT_TRUE(result.tries[0].ack_received);
}

TEST(Acks, ReliableSendExhaustsWidthsWhenUnreachable) {
  const auto city = row_city(6, 300.0);
  core::CityMeshNetwork net{city, fast_config()};
  const auto alice = cryptox::KeyPair::from_seed(1);
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto alice_info = core::PostboxInfo::for_key(alice, 0);
  const auto bob_info = core::PostboxInfo::for_key(bob, 5);
  net.register_postbox(alice_info);
  net.register_postbox(bob_info);
  const auto result = net.send_reliable(0, bob_info, bytes_of("x"), alice_info);
  EXPECT_FALSE(result.acknowledged);
  EXPECT_EQ(result.attempts, 3u);  // the full default width ladder
}

TEST(Acks, AckDoubleCountsIntoTransmissions) {
  // With an ack, the same send must cost roughly twice the broadcasts of a
  // one-way delivery (the ack floods the reverse conduit).
  const auto city = row_city(10, 20.0);
  std::size_t one_way = 0;
  std::size_t with_ack = 0;
  {
    core::CityMeshNetwork net{city, fast_config()};
    const auto bob = cryptox::KeyPair::from_seed(2);
    const auto bob_info = core::PostboxInfo::for_key(bob, 9);
    net.register_postbox(bob_info);
    one_way = net.send(0, bob_info, bytes_of("x")).transmissions;
  }
  {
    core::CityMeshNetwork net{city, fast_config()};
    const auto alice = cryptox::KeyPair::from_seed(1);
    const auto bob = cryptox::KeyPair::from_seed(2);
    const auto alice_info = core::PostboxInfo::for_key(alice, 0);
    const auto bob_info = core::PostboxInfo::for_key(bob, 9);
    net.register_postbox(alice_info);
    net.register_postbox(bob_info);
    core::SendOptions opts;
    opts.request_ack = true;
    opts.ack_to = alice_info;
    with_ack = net.send(0, bob_info, bytes_of("x"), opts).transmissions;
  }
  EXPECT_GT(with_ack, one_way);
  EXPECT_LT(with_ack, one_way * 3);
}

// -------------------------------------------------------- location update --

TEST(LocationUpdate, PostboxCachesOwnerLocation) {
  const auto city = dense_town();
  core::CityMeshNetwork net{city, fast_config()};
  const auto bob = cryptox::KeyPair::from_seed(3);
  const auto home = static_cast<core::BuildingId>(city.building_count() - 5);
  const auto info = core::PostboxInfo::for_key(bob, home);
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);
  EXPECT_FALSE(box->owner_location().has_value());

  const core::BuildingId current = 3;
  const auto outcome = net.send_location_update(info, current);
  ASSERT_TRUE(outcome.delivered);
  ASSERT_TRUE(box->owner_location().has_value());
  EXPECT_EQ(box->owner_location()->first, city.building(current).centroid);
}

TEST(LocationUpdate, ForwardingPatternReachesMovedDevice) {
  // The application-level push-forwarding pattern from §3 step 4: Bob's home
  // postbox knows where he last checked in; an urgent message is forwarded
  // to a temporary postbox at his current building.
  const auto city = dense_town();
  core::CityMeshNetwork net{city, fast_config()};
  const auto alice = cryptox::KeyPair::from_seed(4);
  const auto bob = cryptox::KeyPair::from_seed(5);
  const auto home = static_cast<core::BuildingId>(city.building_count() - 5);
  const core::BuildingId current = 3;

  const auto home_info = core::PostboxInfo::for_key(bob, home);
  const auto home_box = net.register_postbox(home_info);
  ASSERT_NE(home_box, nullptr);

  // Bob moves and checks in.
  ASSERT_TRUE(net.send_location_update(home_info, current).delivered);

  // Alice sends an urgent sealed message to Bob's home postbox.
  const auto sealed = cryptox::seal(alice, home_info.public_key, "urgent: call me", 7);
  core::SendOptions urgent;
  urgent.urgent = true;
  const auto first_leg = net.send(10, home_info, sealed.serialize(), urgent);
  ASSERT_TRUE(first_leg.delivered);

  // The home postbox pushes; the infrastructure forwards to Bob's current
  // building where his device registered a temporary postbox.
  const auto temp_info = core::PostboxInfo::for_key(bob, current);
  const auto temp_box = net.register_postbox(temp_info);
  ASSERT_NE(temp_box, nullptr);
  ASSERT_TRUE(home_box->owner_location().has_value());
  const auto mail = home_box->retrieve();
  ASSERT_EQ(mail.size(), 2u);  // the location update + the urgent message
  const auto& urgent_msg = mail.back();
  const auto second_leg =
      net.send(home, temp_info,
               {urgent_msg.sealed_payload.data(), urgent_msg.sealed_payload.size()},
               urgent);
  ASSERT_TRUE(second_leg.delivered);

  // Bob reads it at his current location; the seal survived both legs.
  const auto forwarded = temp_box->retrieve();
  ASSERT_EQ(forwarded.size(), 1u);
  const auto parsed = cryptox::SealedMessage::deserialize(forwarded[0].sealed_payload);
  ASSERT_TRUE(parsed.has_value());
  const auto text = cryptox::unseal_text(bob, *parsed);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "urgent: call me");
}

TEST(LocationUpdate, ShortPayloadIgnored) {
  const auto city = row_city(4, 20.0);
  const core::BuildingGraph map{city, {}};
  const auto keys = cryptox::KeyPair::from_seed(6);
  auto box = std::make_shared<core::Postbox>(keys.id());
  core::ApAgent agent{0, map.centroid(3), 3, map};
  agent.host_postbox(box);
  wire::PacketHeader h;
  h.message_id = 9;
  h.postbox_tag = keys.id().tag();
  h.waypoints = {0, 3};
  h.set_flag(wire::PacketFlag::kLocationUpdate);
  const auto enc = wire::encode_header(h);
  const auto action = agent.on_receive({enc.bytes, {0x01, 0x02}}, 1.0);  // 2 bytes
  EXPECT_TRUE(action.delivered);  // message still stored
  EXPECT_FALSE(box->owner_location().has_value());  // but no location parsed
}

// ----------------------------------------------------------- suppression ---

TEST(Suppression, ReducesTransmissionsAtEqualDelivery) {
  // Dense placement => several APs per building => suppression has dupes to
  // cancel. Compare the same city/pairs with and without.
  const auto city = dense_town();
  auto base_cfg = fast_config();
  base_cfg.placement.density_per_m2 = 1.0 / 40.0;

  std::size_t tx_plain = 0;
  std::size_t tx_suppressed = 0;
  bool delivered_plain = false;
  bool delivered_suppressed = false;
  const auto dst = static_cast<core::BuildingId>(city.building_count() - 6);
  {
    core::CityMeshNetwork net{city, base_cfg};
    const auto keys = cryptox::KeyPair::from_seed(7);
    const auto info = core::PostboxInfo::for_key(keys, dst);
    net.register_postbox(info);
    const auto out = net.send(2, info, bytes_of("x"));
    tx_plain = out.transmissions;
    delivered_plain = out.delivered;
  }
  {
    auto cfg = base_cfg;
    cfg.relay.kind = relayx::PolicyKind::kBuildingBackoff;
    core::CityMeshNetwork net{city, cfg};
    const auto keys = cryptox::KeyPair::from_seed(7);
    const auto info = core::PostboxInfo::for_key(keys, dst);
    net.register_postbox(info);
    const auto out = net.send(2, info, bytes_of("x"));
    tx_suppressed = out.transmissions;
    delivered_suppressed = out.delivered;
  }
  ASSERT_TRUE(delivered_plain);
  EXPECT_TRUE(delivered_suppressed);
  EXPECT_LT(tx_suppressed, tx_plain);
}

TEST(Suppression, TraceStillConsistent) {
  const auto city = row_city(12, 20.0);
  auto cfg = fast_config();
  cfg.relay.kind = relayx::PolicyKind::kBuildingBackoff;
  core::CityMeshNetwork net{city, cfg};
  const auto keys = cryptox::KeyPair::from_seed(8);
  const auto info = core::PostboxInfo::for_key(keys, 11);
  net.register_postbox(info);
  core::SendOptions opts;
  opts.collect_trace = true;
  const auto out = net.send(0, info, bytes_of("x"), opts);
  ASSERT_TRUE(out.delivered);
  EXPECT_EQ(out.rebroadcast_aps.size(), out.transmissions);
}
