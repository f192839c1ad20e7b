// FaultyNetwork unit tests: decorator semantics (what is faulted, what is
// passed through) and determinism of the per-channel decision streams.
#include "decmon/distributed/faulty_network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "decmon/monitor/token.hpp"

namespace decmon {
namespace {

/// Records every perturbed send for inspection.
class RecordingNetwork final : public MonitorNetwork {
 public:
  struct Sent {
    int from;
    int to;
    std::uint8_t tag;
    DeliveryPerturbation perturbation;
  };

  void send(MonitorMessage msg) override {
    send_perturbed(std::move(msg), DeliveryPerturbation{});
  }
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override {
    sent.push_back(Sent{msg.from, msg.to,
                        msg.payload ? msg.payload->tag : std::uint8_t{0},
                        perturbation});
  }
  double now() const override { return 0.0; }

  std::vector<Sent> sent;
};

MonitorMessage make_msg(int from, int to) {
  auto payload = std::make_unique<TerminationMessage>();
  payload->process = from;
  payload->last_sn = 5;
  return MonitorMessage{from, to, std::move(payload)};
}

TEST(FaultyNetwork, NoFaultsIsTransparent) {
  RecordingNetwork inner;
  FaultyNetwork net(&inner, 2, FaultConfig{});
  net.send(make_msg(0, 1));
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(inner.sent[0].perturbation.extra_delay, 0.0);
  EXPECT_FALSE(inner.sent[0].perturbation.bypass_fifo);
  EXPECT_EQ(net.stats().messages, 0u);  // fault machinery never engaged
}

TEST(FaultyNetwork, SelfSendsAreNeverFaulted) {
  RecordingNetwork inner;
  FaultConfig config;
  config.lose_prob = 1.0;
  FaultyNetwork net(&inner, 2, config);
  net.send(make_msg(1, 1));
  ASSERT_EQ(inner.sent.size(), 1u);  // delivered despite 100% loss
  EXPECT_EQ(net.stats().lost, 0u);
}

TEST(FaultyNetwork, DropAlwaysRedeliversByDefault) {
  RecordingNetwork inner;
  FaultConfig config;
  config.drop_prob = 1.0;
  config.max_drops = 4;
  config.redelivery_delay = 0.5;
  FaultyNetwork net(&inner, 2, config);
  for (int i = 0; i < 50; ++i) net.send(make_msg(0, 1));
  ASSERT_EQ(inner.sent.size(), 50u);  // every message arrives eventually
  EXPECT_GE(net.stats().dropped, 50u);
  EXPECT_EQ(net.stats().lost, 0u);
  for (const auto& s : inner.sent) {
    // Redelivery: k in [1, max_drops] lost transmissions, each paid for in
    // delay, and the final copy bypasses FIFO.
    EXPECT_GE(s.perturbation.extra_delay, 0.5 - 1e-12);
    EXPECT_LE(s.perturbation.extra_delay, 4 * 0.5 + 1e-12);
    EXPECT_TRUE(s.perturbation.bypass_fifo);
  }
}

TEST(FaultyNetwork, DuplicationClonesThePayload) {
  RecordingNetwork inner;
  FaultConfig config;
  config.dup_prob = 1.0;
  FaultyNetwork net(&inner, 2, config);
  net.send(make_msg(0, 1));
  ASSERT_EQ(inner.sent.size(), 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);
  EXPECT_EQ(inner.sent[0].tag, inner.sent[1].tag);
  // The clone is FIFO-exempt (a retransmitted packet); the original is not.
  EXPECT_TRUE(inner.sent[0].perturbation.bypass_fifo);
  EXPECT_FALSE(inner.sent[1].perturbation.bypass_fifo);
}

TEST(FaultyNetwork, StreamsAreDeterministicPerChannel) {
  FaultConfig config;
  config.delay_prob = 0.3;
  config.reorder_prob = 0.3;
  config.dup_prob = 0.2;
  config.drop_prob = 0.2;
  config.seed = 99;

  auto run = [&config] {
    RecordingNetwork inner;
    FaultyNetwork net(&inner, 3, config);
    for (int i = 0; i < 200; ++i) {
      net.send(make_msg(i % 3, (i + 1) % 3));
    }
    return std::make_pair(inner.sent, net.stats());
  };
  auto [sent_a, stats_a] = run();
  auto [sent_b, stats_b] = run();

  EXPECT_EQ(stats_a.delay_spikes, stats_b.delay_spikes);
  EXPECT_EQ(stats_a.reordered, stats_b.reordered);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  ASSERT_EQ(sent_a.size(), sent_b.size());
  for (std::size_t i = 0; i < sent_a.size(); ++i) {
    EXPECT_EQ(sent_a[i].perturbation.extra_delay,
              sent_b[i].perturbation.extra_delay);
    EXPECT_EQ(sent_a[i].perturbation.bypass_fifo,
              sent_b[i].perturbation.bypass_fifo);
  }
}

TEST(FaultyNetwork, ChannelsAreIndependent) {
  // Interleaving traffic on another channel must not shift a channel's
  // fault stream (this is what makes ThreadRuntime fault schedules stable
  // run to run despite wall-clock nondeterminism).
  FaultConfig config;
  config.delay_prob = 0.5;
  config.drop_prob = 0.3;
  config.seed = 5;

  RecordingNetwork inner_a;
  FaultyNetwork net_a(&inner_a, 3, config);
  for (int i = 0; i < 40; ++i) net_a.send(make_msg(0, 1));

  RecordingNetwork inner_b;
  FaultyNetwork net_b(&inner_b, 3, config);
  for (int i = 0; i < 40; ++i) {
    net_b.send(make_msg(0, 1));
    net_b.send(make_msg(2, 1));  // interleaved cross-traffic
  }

  std::vector<RecordingNetwork::Sent> b_01;
  for (const auto& s : inner_b.sent) {
    if (s.from == 0) b_01.push_back(s);
  }
  ASSERT_EQ(inner_a.sent.size(), b_01.size());
  for (std::size_t i = 0; i < b_01.size(); ++i) {
    EXPECT_EQ(inner_a.sent[i].perturbation.extra_delay,
              b_01[i].perturbation.extra_delay);
    EXPECT_EQ(inner_a.sent[i].perturbation.bypass_fifo,
              b_01[i].perturbation.bypass_fifo);
  }
}

TEST(FaultyNetwork, LoseProbSwallowsMessagesForever) {
  // True loss (the mode the reliable channel exists to survive): no
  // redelivery is ever scheduled, unlike drop_prob's bounded-loss model.
  RecordingNetwork inner;
  FaultConfig config;
  config.lose_prob = 1.0;
  FaultyNetwork net(&inner, 2, config);
  for (int i = 0; i < 10; ++i) net.send(make_msg(0, 1));
  EXPECT_TRUE(inner.sent.empty());
  EXPECT_EQ(net.stats().lost, 10u);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(FaultyNetwork, LossStreamIsDeterministic) {
  // Which messages die is a pure function of {seed, config, channel
  // ordinal}: re-running a lossy config reproduces the exact same carnage,
  // down to the surviving messages' perturbations.
  FaultConfig config;
  config.delay_prob = 0.4;
  config.lose_prob = 0.3;
  config.seed = 21;

  auto run = [&config] {
    RecordingNetwork inner;
    FaultyNetwork net(&inner, 2, config);
    for (int i = 0; i < 100; ++i) net.send(make_msg(0, 1));
    return std::make_pair(inner.sent, net.stats());
  };
  auto [sent_a, stats_a] = run();
  auto [sent_b, stats_b] = run();

  EXPECT_GT(stats_a.lost, 0u);
  EXPECT_LT(stats_a.lost, 100u);
  EXPECT_EQ(stats_a.lost, stats_b.lost);
  ASSERT_EQ(sent_a.size(), sent_b.size());
  for (std::size_t i = 0; i < sent_a.size(); ++i) {
    EXPECT_EQ(sent_a[i].perturbation.extra_delay,
              sent_b[i].perturbation.extra_delay);
  }
}

TEST(FaultyNetwork, PayloadsWithoutCloneAreNotDuplicated) {
  struct OpaquePayload : NetPayload {
    OpaquePayload() : NetPayload(77) {}
    // No clone() override: duplication must degrade to a plain send.
  };
  RecordingNetwork inner;
  FaultConfig config;
  config.dup_prob = 1.0;
  FaultyNetwork net(&inner, 2, config);
  net.send(MonitorMessage{0, 1, std::make_unique<OpaquePayload>()});
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(net.stats().duplicated, 0u);
}

}  // namespace
}  // namespace decmon
