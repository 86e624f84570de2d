#ifndef XAR_XAR_ENV_OPTIONS_H_
#define XAR_XAR_ENV_OPTIONS_H_

#include "common/status.h"
#include "xar/options.h"

namespace xar {

/// Applies the standard XAR_* environment overrides to `options`:
///
///   XAR_ROUTING_BACKEND=dijkstra|astar|alt|ch
///   XAR_ORACLE_CACHE=clock|striped_lru
///   XAR_PREPROCESS_THREADS=N   (a plain decimal; 0 = all cores)
///
/// Unset variables leave the corresponding field untouched. A typo in any
/// set variable is a hard error — the returned InvalidArgument names the
/// variable and lists the valid spellings (for the thread count: rejects
/// signs, suffixes and values past size_t) — never a silent fall-through to
/// the default. Shared by every binary that honours these variables
/// (xar_shell, city_simulation, the event-sim demo, ...).
Status ApplyEnvOverrides(XarOptions* options);

}  // namespace xar

#endif  // XAR_XAR_ENV_OPTIONS_H_
