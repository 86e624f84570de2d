#ifndef XAR_XAR_XAR_H_
#define XAR_XAR_XAR_H_

/// \file
/// Umbrella header for the Xhare-a-Ride library: the road-network substrate
/// (graphs, routing engines, oracles, generators, I/O), the three-tier
/// region discretization, the XAR run-time (create / search / book / track /
/// cancel), and the deployment-facing façades (thread-safe wrapper, GeoJSON
/// export). The network and text front ends live in src/serve. See README.md
/// for a quickstart.

#include "discretize/region_index.h"
#include "graph/alt.h"
#include "graph/contraction_hierarchy.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/serialization.h"
#include "graph/spatial_index.h"
#include "graph/text_io.h"
#include "schedule/kinetic_tree.h"
#include "xar/concurrent_xar.h"
#include "xar/env_options.h"
#include "xar/geojson_export.h"
#include "xar/options.h"
#include "xar/ride.h"
#include "xar/xar_system.h"

#endif  // XAR_XAR_XAR_H_
