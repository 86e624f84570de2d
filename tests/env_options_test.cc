// ApplyEnvOverrides: unset variables leave options untouched, valid values
// land, and a typo in any variable is an InvalidArgument naming it. Only the
// parser runs here — no hierarchy is built and no thread is started.

#include "xar/env_options.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

namespace xar {
namespace {

constexpr const char* kVariables[] = {"XAR_ROUTING_BACKEND",
                                      "XAR_PREPROCESS_THREADS"};

/// Saves every variable the parser reads, clears them for the test, and
/// restores the saved values afterwards.
class EnvOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::size_t i = 0; i < std::size(kVariables); ++i) {
      const char* value = std::getenv(kVariables[i]);
      if (value != nullptr) saved_[i] = value;
      unsetenv(kVariables[i]);
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < std::size(kVariables); ++i) {
      if (saved_[i].has_value()) {
        setenv(kVariables[i], saved_[i]->c_str(), 1);
      } else {
        unsetenv(kVariables[i]);
      }
    }
  }

  /// Applies the overrides with `variable` set to `value` and expects an
  /// InvalidArgument that names the variable.
  void ExpectRejected(const char* variable, const char* value) {
    SCOPED_TRACE(::testing::Message() << variable << "=" << value);
    setenv(variable, value, 1);
    XarOptions options;
    Status status = ApplyEnvOverrides(&options);
    unsetenv(variable);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find(variable), std::string::npos)
        << status.ToString();
  }

 private:
  std::optional<std::string> saved_[std::size(kVariables)];
};

TEST_F(EnvOptionsTest, UnsetVariablesLeaveOptionsUntouched) {
  XarOptions options;
  options.routing_backend = RoutingBackendKind::kAlt;
  options.preprocess_threads = 3;
  ASSERT_TRUE(ApplyEnvOverrides(&options).ok());
  EXPECT_EQ(options.routing_backend, RoutingBackendKind::kAlt);
  EXPECT_EQ(options.preprocess_threads, 3u);
}

TEST_F(EnvOptionsTest, ValidValuesAreApplied) {
  setenv("XAR_ROUTING_BACKEND", "dijkstra", 1);
  setenv("XAR_PREPROCESS_THREADS", "2", 1);
  XarOptions options;
  ASSERT_TRUE(ApplyEnvOverrides(&options).ok());
  EXPECT_EQ(options.routing_backend, RoutingBackendKind::kDijkstra);
  EXPECT_EQ(options.preprocess_threads, 2u);

  // 0 is a valid count: all cores.
  setenv("XAR_PREPROCESS_THREADS", "0", 1);
  options.preprocess_threads = 5;
  ASSERT_TRUE(ApplyEnvOverrides(&options).ok());
  EXPECT_EQ(options.preprocess_threads, 0u);
}

TEST_F(EnvOptionsTest, TyposAreInvalidArgumentNamingTheVariable) {
  ExpectRejected("XAR_ROUTING_BACKEND", "chh");
  ExpectRejected("XAR_ROUTING_BACKEND", "-1");
  ExpectRejected("XAR_ROUTING_BACKEND", "astar");
  ExpectRejected("XAR_PREPROCESS_THREADS", "abc");
  ExpectRejected("XAR_PREPROCESS_THREADS", "-1");
  ExpectRejected("XAR_PREPROCESS_THREADS", "12x");
  ExpectRejected("XAR_PREPROCESS_THREADS", "");
  ExpectRejected("XAR_PREPROCESS_THREADS", " 4");
  ExpectRejected("XAR_PREPROCESS_THREADS", "99999999999999999999999");
}

TEST_F(EnvOptionsTest, RejectedThreadCountLeavesOptionsUntouched) {
  setenv("XAR_PREPROCESS_THREADS", "-1", 1);
  XarOptions options;
  options.preprocess_threads = 4;
  EXPECT_FALSE(ApplyEnvOverrides(&options).ok());
  EXPECT_EQ(options.preprocess_threads, 4u);
}

}  // namespace
}  // namespace xar
