#ifndef FABRICSIM_STATEDB_STATE_BACKEND_H_
#define FABRICSIM_STATEDB_STATE_BACKEND_H_

#include <memory>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// The data structure behind each channel's world state. There is one,
/// the ordered map (MemoryStateDb). This type, MakeStateDb and
/// FabricConfig::state_backend remain only because
/// perfbench/fabricbench.cc names them; they go with the benchmark's
/// next revision.
enum class StateBackendType { kOrderedMap };

/// An empty MemoryStateDb.
inline std::unique_ptr<StateDatabase> MakeStateDb(StateBackendType) {
  return MakeMemoryStateDb();
}

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_STATE_BACKEND_H_
