// A small hand-built profile shared by the profile log tests.

#ifndef COIGN_TESTS_SAMPLE_PROFILE_H_
#define COIGN_TESTS_SAMPLE_PROFILE_H_

#include "src/com/class_registry.h"
#include "src/profile/icc_profile.h"

namespace coign {

// Recorded through the builder, so tests can add records before Build().
inline IccProfileBuilder SampleRecording() {
  IccProfileBuilder profile;
  ClassificationInfo info;
  info.id = 0;
  info.clsid = Guid::FromName("clsid:Reader");
  info.class_name = "App.Doc Reader";  // Name with a space, on purpose.
  info.api_usage = kApiStorage;
  profile.RecordClassification(info);
  profile.RecordInstantiation(0);
  ClassificationInfo info2;
  info2.id = 3;
  info2.clsid = Guid::FromName("clsid:Ui");
  info2.class_name = "App.Ui";
  info2.api_usage = kApiGui;
  profile.RecordClassification(info2);

  CallKey key;
  key.src = 0;
  key.dst = 3;
  key.iid = Guid::FromName("iid:IView");
  key.method = 2;
  profile.RecordCall(key, 1000, 64, true);
  profile.RecordCall(key, 3, 100000, false);
  profile.RecordCompute(0, 0.125);
  return profile;
}

inline IccProfile SampleProfile() { return SampleRecording().Build(); }

}  // namespace coign

#endif  // COIGN_TESTS_SAMPLE_PROFILE_H_
