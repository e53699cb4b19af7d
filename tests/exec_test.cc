#include <gtest/gtest.h>

#include "exec/monitor.h"
#include "exec/registry.h"

namespace pjoin {
namespace {

class RecordingListener : public EventListener {
 public:
  explicit RecordingListener(std::string name) : name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status HandleEvent(const Event& event) override {
    events.push_back(event);
    return next_status;
  }

  std::string name_;
  std::vector<Event> events;
  Status next_status;
};

TEST(EventTest, NamesCoverAllTypes) {
  for (int i = 0; i < kNumEventTypes; ++i) {
    EXPECT_NE(EventTypeName(static_cast<EventType>(i)), "?");
  }
}

TEST(EventTest, ToStringIncludesStream) {
  Event e{EventType::kStateFull, 123, 1, {}};
  EXPECT_NE(e.ToString().find("StateFullEvent"), std::string::npos);
  EXPECT_NE(e.ToString().find("stream=1"), std::string::npos);
}

TEST(RegistryTest, DispatchInRegistrationOrder) {
  EventRegistry registry;
  RecordingListener a("a");
  RecordingListener b("b");
  std::vector<std::string> order;
  // Use conditions as probes for call order.
  registry.Register(EventType::kStateFull, &a, [&order](const Event&) {
    order.push_back("a");
    return true;
  });
  registry.Register(EventType::kStateFull, &b, [&order](const Event&) {
    order.push_back("b");
    return true;
  });
  ASSERT_TRUE(registry.Dispatch(Event{EventType::kStateFull, 0, -1, {}}).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(a.events.size(), 1u);
  EXPECT_EQ(b.events.size(), 1u);
}

TEST(RegistryTest, ConditionSkipsListener) {
  EventRegistry registry;
  RecordingListener a("a");
  registry.Register(EventType::kStreamEmpty, &a,
                    [](const Event&) { return false; });
  ASSERT_TRUE(registry.Dispatch(Event{EventType::kStreamEmpty, 0, -1, {}}).ok());
  EXPECT_TRUE(a.events.empty());
}

TEST(RegistryTest, ErrorStopsDispatch) {
  EventRegistry registry;
  RecordingListener a("a");
  RecordingListener b("b");
  a.next_status = Status::Internal("boom");
  registry.Register(EventType::kStateFull, &a);
  registry.Register(EventType::kStateFull, &b);
  Status s = registry.Dispatch(Event{EventType::kStateFull, 0, -1, {}});
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(b.events.empty());
}

TEST(RegistryTest, UnregisterAndClear) {
  EventRegistry registry;
  RecordingListener a("a");
  registry.Register(EventType::kStateFull, &a);
  registry.Register(EventType::kStreamEmpty, &a);
  EXPECT_EQ(registry.NumListeners(EventType::kStateFull), 1u);
  registry.Unregister(EventType::kStateFull, &a);
  EXPECT_EQ(registry.NumListeners(EventType::kStateFull), 0u);
  registry.Clear(EventType::kStreamEmpty);
  EXPECT_EQ(registry.NumListeners(EventType::kStreamEmpty), 0u);
}

TEST(RegistryTest, ToStringListsEntries) {
  EventRegistry registry;
  RecordingListener purge("state-purge");
  registry.Register(EventType::kPurgeThresholdReach, &purge);
  std::string table = registry.ToString();
  EXPECT_NE(table.find("PurgeThresholdReachEvent"), std::string::npos);
  EXPECT_NE(table.find("state-purge"), std::string::npos);
}

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : clock_(0) {}

  void Wire(RuntimeParams params) {
    params_ = params;
    monitor_ = std::make_unique<Monitor>(&params_, &registry_, &clock_);
  }

  VirtualClock clock_;
  RuntimeParams params_;
  EventRegistry registry_;
  std::unique_ptr<Monitor> monitor_;
};

TEST_F(MonitorTest, PurgeThresholdEager) {
  RuntimeParams params;
  params.purge_threshold = 1;
  Wire(params);
  RecordingListener purge("purge");
  registry_.Register(EventType::kPurgeThresholdReach, &purge);
  ASSERT_TRUE(monitor_->OnPunctuationArrived(0).ok());
  EXPECT_EQ(purge.events.size(), 1u);
}

TEST_F(MonitorTest, PurgeThresholdLazyCountsBothStreams) {
  RuntimeParams params;
  params.purge_threshold = 3;
  Wire(params);
  RecordingListener purge("purge");
  registry_.Register(EventType::kPurgeThresholdReach, &purge);
  ASSERT_TRUE(monitor_->OnPunctuationArrived(0).ok());
  ASSERT_TRUE(monitor_->OnPunctuationArrived(1).ok());
  EXPECT_TRUE(purge.events.empty());
  ASSERT_TRUE(monitor_->OnPunctuationArrived(0).ok());
  EXPECT_EQ(purge.events.size(), 1u);
  // Until the purge component acknowledges, the monitor keeps firing.
  monitor_->OnPurgeRan();
  ASSERT_TRUE(monitor_->OnPunctuationArrived(1).ok());
  EXPECT_EQ(purge.events.size(), 1u);
  EXPECT_EQ(monitor_->puncts_since_purge(1), 1);
}

TEST_F(MonitorTest, StateFullFiresOncePerCrossing) {
  RuntimeParams params;
  params.memory_threshold_tuples = 10;
  Wire(params);
  RecordingListener reloc("reloc");
  registry_.Register(EventType::kStateFull, &reloc);
  ASSERT_TRUE(monitor_->OnStateSizeChanged(9).ok());
  EXPECT_TRUE(reloc.events.empty());
  ASSERT_TRUE(monitor_->OnStateSizeChanged(10).ok());
  EXPECT_EQ(reloc.events.size(), 1u);
  // Still above threshold: no re-fire until it drops below.
  ASSERT_TRUE(monitor_->OnStateSizeChanged(12).ok());
  EXPECT_EQ(reloc.events.size(), 1u);
  ASSERT_TRUE(monitor_->OnStateSizeChanged(5).ok());
  ASSERT_TRUE(monitor_->OnStateSizeChanged(11).ok());
  EXPECT_EQ(reloc.events.size(), 2u);
}

TEST_F(MonitorTest, ByteThresholdAlsoFiresStateFull) {
  RuntimeParams params;
  params.memory_threshold_bytes = 1000;
  Wire(params);
  RecordingListener reloc("reloc");
  registry_.Register(EventType::kStateFull, &reloc);
  ASSERT_TRUE(monitor_->OnStateSizeChanged(5, 999).ok());
  EXPECT_TRUE(reloc.events.empty());
  ASSERT_TRUE(monitor_->OnStateSizeChanged(6, 1000).ok());
  EXPECT_EQ(reloc.events.size(), 1u);
}

TEST_F(MonitorTest, PropagateCountThreshold) {
  RuntimeParams params;
  params.purge_threshold = 1000;  // keep purge quiet
  params.propagate_count_threshold = 2;
  Wire(params);
  RecordingListener prop("prop");
  registry_.Register(EventType::kPropagateCountReach, &prop);
  ASSERT_TRUE(monitor_->OnPunctuationArrived(0).ok());
  EXPECT_TRUE(prop.events.empty());
  ASSERT_TRUE(monitor_->OnPunctuationArrived(1).ok());
  EXPECT_EQ(prop.events.size(), 1u);
  monitor_->OnPropagationRan();
  EXPECT_EQ(monitor_->puncts_since_propagation(), 0);
}

TEST_F(MonitorTest, PropagateTimeThreshold) {
  RuntimeParams params;
  params.propagate_time_threshold = 100;
  Wire(params);
  RecordingListener prop("prop");
  registry_.Register(EventType::kPropagateTimeExpire, &prop);
  clock_.AdvanceTo(50);
  ASSERT_TRUE(monitor_->Tick().ok());
  EXPECT_TRUE(prop.events.empty());
  clock_.AdvanceTo(100);
  ASSERT_TRUE(monitor_->Tick().ok());
  EXPECT_EQ(prop.events.size(), 1u);
  monitor_->OnPropagationRan();
  clock_.AdvanceTo(150);
  ASSERT_TRUE(monitor_->Tick().ok());
  EXPECT_EQ(prop.events.size(), 1u);  // re-armed at 100, expires at 200
  clock_.AdvanceTo(200);
  ASSERT_TRUE(monitor_->Tick().ok());
  EXPECT_EQ(prop.events.size(), 2u);
}

TEST_F(MonitorTest, StreamsEmptyAndDiskActivation) {
  RuntimeParams params;
  params.disk_join_activation_threshold = 5;
  Wire(params);
  RecordingListener empty("empty");
  RecordingListener disk("disk");
  registry_.Register(EventType::kStreamEmpty, &empty);
  registry_.Register(EventType::kDiskJoinActivate, &disk);
  ASSERT_TRUE(monitor_->OnStreamsEmpty(3).ok());
  EXPECT_EQ(empty.events.size(), 1u);
  EXPECT_TRUE(disk.events.empty());
  ASSERT_TRUE(monitor_->OnStreamsEmpty(5).ok());
  EXPECT_EQ(disk.events.size(), 1u);
}

TEST_F(MonitorTest, PullModeRequest) {
  Wire(RuntimeParams{});
  RecordingListener prop("prop");
  registry_.Register(EventType::kPropagateRequest, &prop);
  ASSERT_TRUE(monitor_->RequestPropagation().ok());
  EXPECT_EQ(prop.events.size(), 1u);
}

TEST_F(MonitorTest, RuntimeParamsTunableAtRuntime) {
  RuntimeParams params;
  params.purge_threshold = 100;
  Wire(params);
  RecordingListener purge("purge");
  registry_.Register(EventType::kPurgeThresholdReach, &purge);
  ASSERT_TRUE(monitor_->OnPunctuationArrived(0).ok());
  EXPECT_TRUE(purge.events.empty());
  monitor_->params().purge_threshold = 2;  // retune live
  ASSERT_TRUE(monitor_->OnPunctuationArrived(0).ok());
  EXPECT_EQ(purge.events.size(), 1u);
}

}  // namespace
}  // namespace pjoin
