// Unit tests for the interface informers and information loggers —
// the replaceable Coign runtime components of Figure 2.

#include <gtest/gtest.h>

#include "src/marshal/ndr.h"
#include "src/runtime/informer.h"
#include "src/runtime/logger.h"

namespace coign {
namespace {

InterfaceDesc Iface(bool remotable = true) {
  InterfaceBuilder builder("ITestIface");
  if (!remotable) {
    builder.NonRemotable();
  }
  builder.Method("M").In("data", ValueKind::kBlob).Out("result", ValueKind::kInt32);
  return builder.Build();
}

Message InWithBlob(uint64_t bytes) {
  Message m;
  m.Add("data", Value::BlobOfSize(bytes, 1));
  return m;
}

Message OutWithInt() {
  Message m;
  m.Add("result", Value::FromInt32(7));
  return m;
}

// --- Informers ---------------------------------------------------------------

TEST(InformerTest, ProfilingInformerMeasuresPrecisely) {
  ProfilingInformer informer;
  EXPECT_TRUE(informer.measures_communication());
  const WireCall wire = informer.Inspect(Iface(), 0, InWithBlob(500), OutWithInt());
  EXPECT_TRUE(wire.remotable);
  // Exactly what the marshaler computes.
  EXPECT_EQ(wire.request_bytes, kRequestHeaderBytes + *WireSize(InWithBlob(500)));
  EXPECT_EQ(wire.reply_bytes, kReplyHeaderBytes + *WireSize(OutWithInt()));
}

TEST(InformerTest, DistributionInformerOnlyFindsInterfaces) {
  DistributionInformer informer;
  EXPECT_FALSE(informer.measures_communication());
  Message in = InWithBlob(100000);
  in.Add("peer", Value::FromInterface(ObjectRef{5, Guid::FromName("iid:X")}));
  const WireCall wire = informer.Inspect(Iface(), 0, in, OutWithInt());
  EXPECT_TRUE(wire.remotable);
  EXPECT_EQ(wire.request_bytes, 0u);  // No measurement.
  EXPECT_EQ(wire.reply_bytes, 0u);
  ASSERT_EQ(wire.passed_interfaces.size(), 1u);
  EXPECT_EQ(wire.passed_interfaces[0].instance, 5u);
}

TEST(InformerTest, DistributionInformerFlagsNonRemotable) {
  DistributionInformer informer;
  EXPECT_FALSE(informer.Inspect(Iface(false), 0, Message(), Message()).remotable);
  Message opaque;
  opaque.Add("ptr", Value::FromOpaque(1));
  EXPECT_FALSE(informer.Inspect(Iface(), 0, opaque, Message()).remotable);
}

TEST(InformerTest, NamesIdentifyVariants) {
  EXPECT_EQ(ProfilingInformer().name(), "profiling-informer");
  EXPECT_EQ(DistributionInformer().name(), "distribution-informer");
}

// --- Loggers -----------------------------------------------------------------

ProfileEvent CallEvent(ClassificationId src, ClassificationId dst, uint64_t req,
                       uint64_t rep, bool remotable = true) {
  ProfileEvent event;
  event.kind = EventKind::kInterfaceCall;
  event.caller = 1;
  event.subject = 2;
  event.caller_classification = src;
  event.subject_classification = dst;
  event.iid = Guid::FromName("iid:ITestIface");
  event.method = 0;
  event.request_bytes = req;
  event.reply_bytes = rep;
  event.remotable = remotable;
  return event;
}

TEST(ProfilingLoggerTest, SummarizesCallsIntoProfile) {
  ProfilingLogger logger;
  logger.OnEvent(CallEvent(0, 1, 100, 50));
  logger.OnEvent(CallEvent(0, 1, 200, 60));
  logger.OnEvent(CallEvent(0, 1, 10, 10, /*remotable=*/false));
  EXPECT_EQ(logger.profile().total_calls(), 3u);
  EXPECT_EQ(logger.profile().total_bytes(), 430u);
  ASSERT_EQ(logger.profile().calls().size(), 1u);
  EXPECT_EQ(logger.profile().calls().front().summary.non_remotable_calls, 1u);
  // Comm matrix tracks instances symmetrically.
  EXPECT_DOUBLE_EQ(logger.comm_matrix().RowOf(1).at(2), 430.0);
}

TEST(ProfilingLoggerTest, InstantiationEventsCountInstances) {
  ProfilingLogger logger;
  ClassificationInfo info;
  info.id = 3;
  info.clsid = Guid::FromName("clsid:C");
  info.class_name = "C";
  logger.RecordClassification(info);
  ProfileEvent event;
  event.kind = EventKind::kComponentInstantiation;
  event.subject = 9;
  event.subject_classification = 3;
  logger.OnEvent(event);
  logger.OnEvent(event);
  EXPECT_EQ(logger.profile().FindClassification(3)->instance_count, 2u);
}

TEST(ProfilingLoggerTest, BeginExecutionClearsCommMatrixKeepsProfile) {
  ProfilingLogger logger;
  logger.OnEvent(CallEvent(0, 1, 100, 50));
  logger.BeginExecution();
  EXPECT_TRUE(logger.comm_matrix().RowOf(1).empty());
  EXPECT_EQ(logger.profile().total_calls(), 1u);  // Accumulates across runs.
}

TEST(ProfilingLoggerTest, ComputeRouting) {
  ProfilingLogger logger;
  logger.OnCompute(4, 0.25);
  logger.OnCompute(4, 0.25);
  EXPECT_DOUBLE_EQ(logger.profile().ComputeSecondsOf(4), 0.5);
}

TEST(EventLoggerTest, KeepsOrderedTrace) {
  EventLogger logger;
  for (uint64_t i = 0; i < 5; ++i) {
    ProfileEvent event = CallEvent(0, 1, i, i);
    event.sequence = i;
    logger.OnEvent(event);
  }
  ASSERT_EQ(logger.events().size(), 5u);
  EXPECT_EQ(logger.events()[3].request_bytes, 3u);
  EXPECT_EQ(logger.dropped_events(), 0u);
  EXPECT_FALSE(logger.events()[0].ToString().empty());
}

TEST(NullLoggerTest, IgnoresEverything) {
  NullLogger logger;
  logger.OnEvent(CallEvent(0, 1, 100, 100));  // Must not crash or store.
  EXPECT_EQ(logger.name(), "null-logger");
}

TEST(EventKindTest, NamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kComponentInstantiation),
               "component-instantiation");
  EXPECT_STREQ(EventKindName(EventKind::kInterfaceCall), "interface-call");
}

}  // namespace
}  // namespace coign
