#ifndef ESDB_QUERY_BATCH_SLOT_H_
#define ESDB_QUERY_BATCH_SLOT_H_

#include "document/slot.h"
#include "document/value.h"

namespace esdb {

struct Predicate;  // query/ast.h

namespace batch {

// The slot vocabulary (SlotTag, TypedSlot, SlotToValue) lives in
// document/slot.h so the storage layer can store slots natively
// without including upward into query/. Re-exported here under the
// engine's namespace; the operations below depend on the query AST
// and therefore stay at this layer.
using ::esdb::CompareSlotValue;
using ::esdb::SlotTag;
using ::esdb::SlotToValue;
using ::esdb::TypedSlot;

// Predicate evaluation on a slot: produces exactly the same result as
// Predicate::Eval on the materialized Value, without constructing
// one. The batch engine's parity contract leans on this equivalence
// (asserted by the randomized fuzzer in tests/batch_executor_test.cc).
bool EvalPredSlot(const Predicate& pred, const TypedSlot& slot);

}  // namespace batch
}  // namespace esdb

#endif  // ESDB_QUERY_BATCH_SLOT_H_
