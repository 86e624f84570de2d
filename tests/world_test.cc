#include "xar/world.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "graph/generator.h"

namespace xar {
namespace {

// The layers hold references to the world's own graph: a move would leave
// them dangling, so World has none.
static_assert(!std::is_move_constructible_v<World>);

TEST(WorldTest, OracleRunsTheRoutingBackendTheOptionsName) {
  World world(GenerateCity({.rows = 6, .cols = 6}), {},
              XarOptions{.routing_backend = RoutingBackendKind::kAlt});
  EXPECT_EQ(std::string(world.oracle->backend_name()), "alt");
  EXPECT_GT(world.region->NumClusters(), 0u);
}

}  // namespace
}  // namespace xar
