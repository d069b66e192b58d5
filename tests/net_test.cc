#include <gtest/gtest.h>

#include <string>

#include "src/net/envelope.h"
#include "src/net/network_model.h"
#include "src/net/network_profiler.h"
#include "src/net/transport.h"
#include "src/support/crc32c.h"

namespace coign {
namespace {

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, ExtendComposesWithConcatenation) {
  const std::string a = "plan-cache";
  const std::string b = " v4 record body";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b.data(), b.size()), Crc32c(a + b));
}

TEST(EnvelopeTest, RoundTripsPayload) {
  const std::string payload = "remote call payload";
  const std::string framed = FrameEnvelope(payload);
  EXPECT_EQ(framed.size(), payload.size() + kEnvelopeHeaderBytes);
  Result<std::string> opened = OpenEnvelope(framed);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, payload);
}

TEST(EnvelopeTest, RejectsTruncationBadMagicAndShortInput) {
  const std::string framed = FrameEnvelope("payload");
  EXPECT_FALSE(OpenEnvelope(framed.substr(0, framed.size() - 1)).ok());
  EXPECT_FALSE(OpenEnvelope(framed.substr(0, kEnvelopeHeaderBytes - 1)).ok());
  std::string bad_magic = framed;
  bad_magic[0] = 'X';
  EXPECT_FALSE(OpenEnvelope(bad_magic).ok());
  std::string bad_length = framed;
  bad_length[4] = static_cast<char>(bad_length[4] + 1);
  EXPECT_FALSE(OpenEnvelope(bad_length).ok());
}

TEST(EnvelopeTest, EverySingleBitFlipIsRejected) {
  // CRC32C detects all single-bit errors; walk every bit of a framed
  // message (header included) and demand a rejection for each.
  const std::string framed = FrameEnvelope("sixteen byte msg");
  for (size_t bit = 0; bit < framed.size() * 8; ++bit) {
    std::string damaged = framed;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_FALSE(OpenEnvelope(damaged).ok()) << "bit " << bit;
  }
}

TEST(EnvelopeTest, ModeledBitFlipIsAlwaysCaught) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(EnvelopeCatchesBitFlip(1 + 97 * i, i / 64.0));
  }
  EXPECT_TRUE(EnvelopeCatchesBitFlip(0, 0.0));       // Header-only frame.
  EXPECT_TRUE(EnvelopeCatchesBitFlip(1 << 20, 0.999));  // Cap path.
}

TEST(NetworkModelTest, ExpectedMessageTimeIsAffine) {
  NetworkModel model;
  model.per_message_seconds = 1e-3;
  model.bytes_per_second = 1e6;
  EXPECT_DOUBLE_EQ(model.ExpectedOneWaySeconds(0), 1e-3);
  EXPECT_DOUBLE_EQ(model.ExpectedOneWaySeconds(1000000), 1e-3 + 1.0);
}

TEST(NetworkModelTest, PresetsAreOrderedByBandwidth) {
  EXPECT_LT(NetworkModel::Isdn().bytes_per_second, NetworkModel::TenBaseT().bytes_per_second);
  EXPECT_LT(NetworkModel::TenBaseT().bytes_per_second,
            NetworkModel::HundredBaseT().bytes_per_second);
  EXPECT_LT(NetworkModel::HundredBaseT().bytes_per_second,
            NetworkModel::San().bytes_per_second);
  // Latency ordering is the reverse.
  EXPECT_GT(NetworkModel::Isdn().per_message_seconds,
            NetworkModel::TenBaseT().per_message_seconds);
  EXPECT_GT(NetworkModel::TenBaseT().per_message_seconds,
            NetworkModel::San().per_message_seconds);
}

TEST(TransportTest, RoundTripSumsBothDirections) {
  Transport transport(NetworkModel::TenBaseT());
  const NetworkModel& m = transport.model();
  EXPECT_DOUBLE_EQ(transport.ExpectedRoundTripSeconds(100, 200),
                   m.ExpectedOneWaySeconds(100) + m.ExpectedOneWaySeconds(200));
}

TEST(TransportTest, SampledTimesCenterOnExpectation) {
  Transport transport(NetworkModel::TenBaseT());
  Rng rng(77);
  const double expected = transport.ExpectedRoundTripSeconds(4096, 4096);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double sample = transport.SampleRoundTripSeconds(4096, 4096, rng);
    EXPECT_GT(sample, 0.0);
    sum += sample;
  }
  EXPECT_NEAR(sum / n, expected, expected * 0.01);
}

TEST(TransportTest, ZeroJitterIsDeterministic) {
  NetworkModel model = NetworkModel::TenBaseT();
  model.jitter_fraction = 0.0;
  Transport transport(model);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(transport.SampleRoundTripSeconds(100, 100, rng),
                   transport.ExpectedRoundTripSeconds(100, 100));
}

TEST(TransportTest, ClockAccumulates) {
  Transport transport(NetworkModel::TenBaseT());
  transport.Charge(0.5);
  transport.Charge(0.25);
  EXPECT_DOUBLE_EQ(transport.elapsed_seconds(), 0.75);
  transport.ResetClock();
  EXPECT_EQ(transport.elapsed_seconds(), 0.0);
}

TEST(NetworkProfileTest, ExactProfileMatchesModel) {
  const NetworkModel model = NetworkModel::TenBaseT();
  const NetworkProfile profile = NetworkProfile::Exact(model);
  EXPECT_DOUBLE_EQ(profile.TrafficSeconds(1, 0), model.per_message_seconds);
  EXPECT_NEAR(profile.TrafficSeconds(1, 1000000), model.ExpectedOneWaySeconds(1000000),
              1e-12);
  // A call's request and reply: two messages, priced by their total bytes.
  EXPECT_DOUBLE_EQ(profile.TrafficSeconds(2, 300),
                   model.ExpectedOneWaySeconds(100) + model.ExpectedOneWaySeconds(200));
}

// Statistical sampling recovers the true model parameters within a few
// percent, despite jitter — the property Coign's predictions depend on.
class NetworkProfilerParamTest
    : public ::testing::TestWithParam<std::pair<const char*, NetworkModel>> {};

TEST_P(NetworkProfilerParamTest, FitRecoversModelParameters) {
  const NetworkModel& model = GetParam().second;
  Transport transport(model);
  Rng rng(2024);
  const NetworkProfile profile = ProfileNetwork(transport, rng);
  EXPECT_EQ(profile.network_name, model.name);
  EXPECT_GT(profile.sample_count, 0u);
  EXPECT_NEAR(profile.per_message_seconds, model.per_message_seconds,
              model.per_message_seconds * 0.25);
  EXPECT_NEAR(profile.seconds_per_byte, 1.0 / model.bytes_per_second,
              0.05 / model.bytes_per_second);
  EXPECT_GT(profile.fit_r_squared, 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, NetworkProfilerParamTest,
    ::testing::Values(std::pair{"10bt", NetworkModel::TenBaseT()},
                      std::pair{"100bt", NetworkModel::HundredBaseT()},
                      std::pair{"isdn", NetworkModel::Isdn()},
                      std::pair{"atm", NetworkModel::Atm155()},
                      std::pair{"san", NetworkModel::San()}),
    [](const auto& info) { return info.param.first; });

}  // namespace
}  // namespace coign
