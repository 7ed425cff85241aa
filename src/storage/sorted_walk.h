#ifndef ESDB_STORAGE_SORTED_WALK_H_
#define ESDB_STORAGE_SORTED_WALK_H_

#include <vector>

#include "common/status.h"

namespace esdb {

// Merge step over sorted maps (term dictionaries, doc-values columns,
// field indexes): calls fn(key, entries) for every key of `maps`, in
// key order, walking the maps in step. entries[i] is map i's value for
// the key, or null when map i lacks it or is itself null. Stops at the
// first error fn returns.
template <typename Map, typename Fn>
Status ForEachKeyInStep(const std::vector<const Map*>& maps, Fn fn) {
  std::vector<typename Map::const_iterator> pos, end;
  for (const Map* map : maps) {
    pos.push_back(map != nullptr ? map->begin() : typename Map::const_iterator());
    end.push_back(map != nullptr ? map->end() : typename Map::const_iterator());
  }
  std::vector<const typename Map::mapped_type*> entries(maps.size());
  for (;;) {
    const typename Map::key_type* key = nullptr;
    for (size_t i = 0; i < maps.size(); ++i) {
      if (pos[i] != end[i] && (key == nullptr || pos[i]->first < *key)) {
        key = &pos[i]->first;
      }
    }
    if (key == nullptr) return Status::OK();
    for (size_t i = 0; i < maps.size(); ++i) {
      entries[i] = nullptr;
      if (pos[i] != end[i] && pos[i]->first == *key) {
        entries[i] = &pos[i]->second;
        ++pos[i];
      }
    }
    ESDB_RETURN_IF_ERROR(fn(*key, entries));
  }
}

}  // namespace esdb

#endif  // ESDB_STORAGE_SORTED_WALK_H_
